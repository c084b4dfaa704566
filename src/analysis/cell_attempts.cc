#include "analysis/cell_attempts.hh"

#include <chrono>
#include <exception>
#include <thread>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"

namespace gllc
{

namespace
{

/** Stall injected by the cell.delay fault site (timeout fodder). */
constexpr unsigned kInjectedDelayMs = 100;

} // namespace

std::uint64_t
cellFaultKey(const CellKey &key, unsigned attempt)
{
    return fnv1a64(key.policy, fnv1a64(key.app))
        ^ mix64((static_cast<std::uint64_t>(key.frameIndex) << 8)
                | attempt);
}

void
injectCellFaults(std::uint64_t fault_key)
{
    if (!faultsActive())
        return;
    if (faultFires(FaultSite::CellDelay, fault_key))
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kInjectedDelayMs));
    if (faultFires(FaultSite::CellThrow, fault_key))
        throwInjectedFault(FaultSite::CellThrow);
}

std::string
guardedCall(const std::function<void()> &fn)
{
    try {
        fn();
        return {};
    } catch (const std::exception &e) {
        return e.what()[0] != '\0' ? e.what() : "unnamed exception";
    } catch (...) {
        return "non-standard exception";
    }
}

AttemptsResult
runAttempts(unsigned max_attempts, unsigned backoff_ms,
            const std::function<std::string(unsigned)> &attempt_fn,
            const std::function<void(unsigned, const std::string &)>
                &on_retry)
{
    GLLC_ASSERT(max_attempts >= 1);
    AttemptsResult out;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        out.attempts = attempt;
        out.error = attempt_fn(attempt);
        if (out.ok() || attempt == max_attempts)
            break;
        if (on_retry)
            on_retry(attempt, out.error);
        if (backoff_ms > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(
                static_cast<std::uint64_t>(backoff_ms)
                << (attempt - 1)));
    }
    return out;
}

} // namespace gllc
