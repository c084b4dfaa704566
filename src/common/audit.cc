#include "common/audit.hh"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "common/decision_log.hh"
#include "common/env.hh"
#include "common/logging.hh"

namespace gllc
{

namespace detail
{

std::atomic<int> auditState{-1};

bool
resolveAuditActive()
{
#ifdef GLLC_AUDIT_BUILD
    const int v = 1;
#else
    const int v = (envString("GLLC_AUDIT", "0") != "0") ? 1 : 0;
#endif
    // A setAuditActive() that raced ahead of us wins.
    int expected = -1;
    if (!auditState.compare_exchange_strong(expected, v,
                                            std::memory_order_relaxed))
        return expected != 0;
    return v != 0;
}

} // namespace detail

namespace
{

thread_local AuditContext auditCtx;

} // namespace

void
setAuditActive(bool active)
{
    detail::auditState.store(active ? 1 : 0, std::memory_order_relaxed);
}

void
resetAuditActive()
{
    detail::auditState.store(-1, std::memory_order_relaxed);
}

AuditContext &
auditContext()
{
    return auditCtx;
}

AuditScope::AuditScope() : saved_(auditCtx)
{
}

AuditScope::~AuditScope()
{
    auditCtx = saved_;
}

void
auditFail(const char *component, const char *check, const char *fmt, ...)
{
    const AuditContext &c = auditCtx;
    note("=== GLLC AUDIT FAILURE ===");
    note("component: %s  check: %s", component, check);
    if (!c.app.empty() || c.frame >= 0 || !c.policy.empty()) {
        note("cell: app=%s frame=%lld policy=%s",
             c.app.empty() ? "?" : c.app.c_str(),
             static_cast<long long>(c.frame),
             c.policy.empty() ? "?" : c.policy.c_str());
    }
    note("access: index=%lld stream=%s bank=%lld set=%lld way=%lld",
         static_cast<long long>(c.accessIndex),
         c.stream.empty() ? "?" : c.stream.c_str(),
         static_cast<long long>(c.bank),
         static_cast<long long>(c.set),
         static_cast<long long>(c.way));
    char detail[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(detail, sizeof(detail), fmt, args);
    va_end(args);
    note("detail: %s", detail);
    // The failing thread's ring of recent LLC decisions, when
    // GLLC_DECISION_TRACE is live: the history that led here.
    dumpLocalDecisionLog();
    note("==========================");
    std::fflush(stderr);
    std::abort();
}

} // namespace gllc
