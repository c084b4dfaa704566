/**
 * @file
 * Durable job journal (write-ahead log) of the gllcd sweep service.
 *
 * The JobQueue exists only in memory, so without a journal a daemon
 * crash silently loses every accepted-but-unfinished job — the one
 * failure mode a client cannot defend against, because its submit
 * was already acknowledged by the act of queuing.  The journal
 * closes that hole: every accepted job's canonical SweepJobSpec JSON
 * is appended (and fsync'd) BEFORE the job enters the queue, and a
 * finish record lands when the job reaches a terminal state
 * (completed, failed, cancelled, shed).  On `gllcd --recover` the
 * journal replays: unfinished jobs re-enqueue in their original
 * acceptance order, so a kill -9 mid-queue followed by a restart
 * completes every accepted job — and the results, being computed
 * from the same canonical spec, are byte-identical to a local run.
 * The daemon writes a finish record only after storing the result,
 * an atomic rename without fsync: the order protects against a
 * killed daemon, not against a power loss.
 *
 * Format ("gllcd-journal-v1"): a sealed journal like the checkpoint
 * (common/durable_file.hh: torn tails trimmed on open, bad lines
 * skipped on load):
 *
 *   header  {"gllcd_journal":1,...}
 *   accept  {"accept":1,"job":ID,"tenant":T,"priority":P,
 *            "spec":"<escaped SweepJobSpec::toJson()>",...}
 *   finish  {"finish":1,"job":ID,"outcome":"completed",...}
 *
 * The spec travels as an escaped string so replay re-parses it with
 * the same parseSweepJobSpec() every other consumer uses; the
 * canonical serialization round-trips exactly, so a recovered job's
 * contentHash()/traceHash() — and therefore its ResultStore key —
 * are identical to the original submission's.
 */

#ifndef GLLC_SERVICE_JOB_JOURNAL_HH
#define GLLC_SERVICE_JOB_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/durable_file.hh"
#include "common/result.hh"
#include "service/job_queue.hh"

namespace gllc
{

/** One accepted-but-unfinished job restored from a journal. */
struct JournalJob
{
    std::uint64_t id = 0;
    std::string tenant;
    int priority = 0;
    SweepJobSpec spec;
};

/** What a journal replay found. */
struct JournalRecovery
{
    /** Unfinished jobs, in original acceptance order. */
    std::vector<JournalJob> pending;

    /** Highest job id ever journaled (seed for fresh ids). */
    std::uint64_t maxJobId = 0;

    std::size_t accepted = 0;      ///< accept records read
    std::size_t finished = 0;      ///< finish records read
    std::size_t skippedLines = 0;  ///< torn/corrupt lines skipped
};

/**
 * Appending journal writer (see file comment).  Thread-safe: accept
 * records come from connection threads, finish records from the
 * dispatcher.  Every record is fsync'd before the call returns —
 * jobs are seconds-scale work, so per-record durability is cheap
 * relative to what it buys.  A default-constructed (never opened)
 * journal drops records for free, so call sites need no guards.
 */
class JobJournal
{
  public:
    /**
     * Open @p path for appending: trim a torn tail, write the
     * header when starting fresh.  Io when the path is unusable.
     */
    [[nodiscard]] Result<Unit> open(const std::string &path);

    /** True once open() succeeded (records will persist). */
    bool active() const;

    /** Durably record an accepted job.  Call BEFORE queuing it. */
    void recordAccept(const QueuedJob &job);

    /**
     * Durably record a job's terminal outcome ("completed",
     * "failed", "cancelled", "shed").
     */
    void recordFinish(std::uint64_t id, const char *outcome);

    /** Sync and close; further records are dropped. */
    void close();

    /**
     * Replay the journal at @p path.  Io when the file cannot be
     * opened, Corrupt when it is non-empty without a valid header;
     * individually bad lines (the torn tail of a killed daemon) are
     * skipped and counted, never fatal.
     */
    [[nodiscard]] static Result<JournalRecovery>
    load(const std::string &path);

  private:
    SealedJournal journal_;
};

} // namespace gllc

#endif // GLLC_SERVICE_JOB_JOURNAL_HH
