/**
 * @file
 * The cell-attempt policy both sweep executors share.
 *
 * A sweep cell — one (frame, policy) replay — runs as a bounded
 * series of attempts, whichever executor runs it: the in-process
 * engine (SweepConfig::run, the thread backend: an attempt is a call
 * on a pool thread) or the gllcd shard runner (runShardedSweep, the
 * subprocess backend: an attempt is one request to a worker
 * process).  The rules they share live here, once:
 *
 *   runAttempts()       up to max_attempts tries; the first success
 *                       ends the cell, every failure but the last
 *                       backs off exponentially (backoff_ms doubled
 *                       per attempt), and the last failure's text is
 *                       the cell's quarantine error
 *   guardedCall()       the exception boundary that turns a throw
 *                       into that error text
 *   cellFaultKey(),     the keyed cell.delay / cell.throw draws,
 *   injectCellFaults()  hashed from the cell's logical coordinates
 *                       and attempt number, so GLLC_FAULT fails the
 *                       same cells at any thread count and in either
 *                       executor
 *
 * The cell timeout (SweepJobSpec::cellTimeoutMs, 0 = none) bounds the
 * wall time of one attempt.  Both backends count an overrun
 * (sweep.cell_timeouts / gllcd.cell_timeouts) and warn with the
 * cell's coordinates.  The subprocess backend also SIGKILLs the
 * worker and fails the attempt; the thread backend lets the attempt
 * finish, because a replay stopped midway would leave a corrupt
 * result, not a late one.
 */

#ifndef GLLC_ANALYSIS_CELL_ATTEMPTS_HH
#define GLLC_ANALYSIS_CELL_ATTEMPTS_HH

#include <cstdint>
#include <functional>
#include <string>

#include "analysis/cell_key.hh"

namespace gllc
{

/**
 * Fault key of attempt @p attempt (1-based) of cell @p key: the
 * coordinates, never an execution index, so a later attempt of the
 * same cell draws independently and the failing set is reproducible.
 */
std::uint64_t cellFaultKey(const CellKey &key, unsigned attempt);

/**
 * The cell.delay (a short stall) and cell.throw (an injected
 * exception) draws for one attempt; a no-op unless faults are armed.
 */
void injectCellFaults(std::uint64_t fault_key);

/**
 * Run @p fn; "" on success, else a description of what it threw.
 * Nothing propagates: a throw must fail one attempt, never the
 * thread (or process) running the sweep.
 */
std::string guardedCall(const std::function<void()> &fn);

/** How a cell's attempts ended. */
struct AttemptsResult
{
    /** Attempts made (1 = the first try decided it). */
    unsigned attempts = 0;

    /** The last attempt's error; "" when an attempt succeeded. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Call @p attempt_fn(attempt) for attempt = 1, 2, ... until it
 * returns "" (success) or @p max_attempts have failed.  Before each
 * re-attempt, @p on_retry(failed_attempt, error) runs (may be null)
 * and then the backoff sleeps backoff_ms << (failed_attempt - 1).
 */
AttemptsResult
runAttempts(unsigned max_attempts, unsigned backoff_ms,
            const std::function<std::string(unsigned)> &attempt_fn,
            const std::function<void(unsigned, const std::string &)>
                &on_retry = nullptr);

} // namespace gllc

#endif // GLLC_ANALYSIS_CELL_ATTEMPTS_HH
