/**
 * @file
 * Debug-time invariant-audit framework.
 *
 * The GSPC-family policies are small state machines (Tables 3-5 and
 * the Figure-10 block FSM); a silent corruption of an epoch bit or a
 * sampler counter shifts hit rates without any visible fault, which
 * is exactly the failure mode the parallel sweep engine can scale
 * into plausible-but-wrong Table-1 numbers.  The audit layer re-checks
 * the structural invariants of every component after each simulated
 * access and aborts with a structured report naming the policy,
 * stream, set and access index when one is violated.
 *
 * Activation (auditActive()):
 *   - configure with -DGLLC_AUDIT=ON: audited in every run, or
 *   - set GLLC_AUDIT=1 in the environment of any build, or
 *   - call setAuditActive(true) from a test.
 *
 * Auditors are read-only: an audited run produces bit-identical
 * results to an unaudited one, it is merely slower.  Components
 * expose their auditors as auditInvariants() overrides (policies),
 * auditSet() (RripState) or per-access checks guarded by
 * auditActive(); all of them report through GLLC_AUDIT_CHECK /
 * auditFail() so every failure carries the same context block.
 */

#ifndef GLLC_COMMON_AUDIT_HH
#define GLLC_COMMON_AUDIT_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace gllc
{

namespace detail
{

/** -1 = undecided (read build flag / environment), 0 = off, 1 = on. */
extern std::atomic<int> auditState;

/** Decide an undecided auditState from the build flag and env. */
bool resolveAuditActive();

} // namespace detail

/**
 * True when the per-access invariant audit is enabled.  Inline: the
 * policies ask on every access, so once decided this is one relaxed
 * load; only the first call goes out of line to read the build flag
 * and the environment.
 */
inline bool
auditActive()
{
    const int v = detail::auditState.load(std::memory_order_relaxed);
    return v < 0 ? detail::resolveAuditActive() : v != 0;
}

/**
 * Force auditing on or off for this process (tests).  Overrides both
 * the GLLC_AUDIT build option and the GLLC_AUDIT environment switch.
 */
void setAuditActive(bool active);

/**
 * Drop any setAuditActive() override: the next auditActive() decides
 * again from the build flag and the environment (tests).
 */
void resetAuditActive();

/**
 * Where in the simulation the audit currently is.  The sweep engine
 * fills the cell fields (app, frame, policy); BankedLlc::access()
 * fills the per-access fields.  Thread-local, so concurrent sweep
 * cells report their own coordinates.  Negative integers and empty
 * strings mean "unknown" and are omitted from reports.
 */
struct AuditContext
{
    std::string app;
    std::int64_t frame = -1;
    std::string policy;
    std::string stream;
    std::int64_t accessIndex = -1;
    std::int64_t bank = -1;
    std::int64_t set = -1;
    std::int64_t way = -1;
};

/** The calling thread's audit context (mutable). */
AuditContext &auditContext();

/**
 * RAII save/restore of the thread's audit context, for scopes that
 * annotate it (one sweep cell, one trace replay).
 */
class AuditScope
{
  public:
    AuditScope();
    ~AuditScope();
    AuditScope(const AuditScope &) = delete;
    AuditScope &operator=(const AuditScope &) = delete;

  private:
    AuditContext saved_;
};

/**
 * Print a structured audit report (component, failed check, the
 * thread's AuditContext and a formatted detail line) and abort.
 */
[[noreturn]] void auditFail(const char *component, const char *check,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/**
 * Invariant check for auditor implementations: when @p cond is
 * false, fail the audit of @p component naming @p check with a
 * printf-formatted detail message.
 */
#define GLLC_AUDIT_CHECK(component, check, cond, ...)                   \
    do {                                                                \
        if (!(cond))                                                    \
            ::gllc::auditFail(component, check, __VA_ARGS__);           \
    } while (0)

} // namespace gllc

#endif // GLLC_COMMON_AUDIT_HH
