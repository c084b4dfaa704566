/**
 * @file
 * gllcd: the sharded sweep service.
 *
 * One daemon process owns listeners (Unix socket and/or loopback
 * TCP), a tenant-fair priority JobQueue, a content-addressed
 * ResultStore, and the worker subprocess pool.  Life of a job:
 *
 *   1. a connection thread reads the submit envelope + spec frames,
 *      validates the spec, and computes its ResultKey
 *      (traceHash, contentHash);
 *   2. a stored result is served immediately (cache hit, zero
 *      compute); an identical job already queued or running is
 *      joined, not duplicated (in-flight dedup) — both clients get
 *      the same bytes;
 *   3. otherwise the job queues; the single dispatcher thread pops
 *      per the fairness policy and executes it via runShardedSweep,
 *      cells fanned out over worker subprocesses, which load each
 *      frame's trace from the store's trace cache when any earlier
 *      job rendered it at the same scale — a crashing cell
 *      kills a worker, gets retried on a fresh one, and at worst
 *      quarantines that cell; the daemon never dies with it;
 *   4. the exact writeSweepJson() bytes are stored (clean runs
 *      only) and served to every waiting client, so a served result
 *      is byte-identical to an in-process SweepConfig run.
 *
 * Jobs execute one at a time — each job already saturates the
 * machine through its worker pool; admission control is the queue's
 * job, not the scheduler's.
 *
 * Status requests answer from counters without touching the queue's
 * dispatcher; everything also lands in the metrics registry under
 * "gllcd." when collection is active.
 */

#ifndef GLLC_SERVICE_DAEMON_HH
#define GLLC_SERVICE_DAEMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "service/event_log.hh"
#include "service/exposition.hh"
#include "service/job_journal.hh"
#include "service/job_queue.hh"
#include "service/protocol.hh"
#include "service/result_store.hh"
#include "service/worker.hh"

namespace gllc
{

/** Exit code of a daemon killed by the daemon.crash fault site. */
constexpr int kDaemonCrashExitCode = 70;

/** Where and how a SweepDaemon serves. */
struct DaemonOptions
{
    /** Unix-domain listener path; "" = no Unix listener. */
    std::string socketPath;

    /** Loopback TCP port; -1 = none, 0 = pick an ephemeral port. */
    int tcpPort = -1;

    /** Worker subprocesses per job (clamped to the frame count). */
    unsigned workers = 2;

    /**
     * ResultStore root; its traces/ subdirectory is the workers'
     * frame-trace cache.  "" disables both.
     */
    std::string storeDir;

    /**
     * Loopback HTTP port for GET /metrics + /status; -1 = no
     * exposition listener, 0 = pick an ephemeral port.
     */
    int metricsPort = -1;

    /**
     * Directory for merged per-job Perfetto timelines
     * (job-<id>.json, stitched from daemon spans and the worker
     * subprocesses' span files); "" disables job tracing.
     */
    std::string traceDir;

    /** JSON-lines event log path ("gllcd-events-v1"); "" = off. */
    std::string eventLogPath;

    /** Queue depth cap; over-limit submits shed.  0 = unbounded. */
    std::size_t maxQueue = 0;

    /** Per-tenant in-queue quota; 0 = unlimited. */
    std::size_t tenantQuota = 0;

    /**
     * Deadline in ms on every client-connection read and write; a
     * peer that stalls past it (slowloris, half-open socket) is
     * disconnected.  0 = no deadline.
     */
    int connTimeoutMs = 0;

    /** Concurrent-connection cap; over-limit accepts shed.  0 = ∞. */
    std::size_t maxConns = 0;

    /** Durable job journal (WAL) path; "" = no journal. */
    std::string journalPath;

    /**
     * Replay the journal at startup: unfinished jobs re-enqueue in
     * original order before the daemon starts serving.
     */
    bool recover = false;
};

/** The service (see file comment).  start() it, stop() it. */
class SweepDaemon
{
  public:
    explicit SweepDaemon(DaemonOptions options);

    /** stop()s if still running. */
    ~SweepDaemon();

    SweepDaemon(const SweepDaemon &) = delete;
    SweepDaemon &operator=(const SweepDaemon &) = delete;

    /**
     * Bind the configured listeners and start serving.
     * InvalidArgument when no listener is configured; Io when a
     * bind fails.
     */
    [[nodiscard]] Result<Unit> start();

    /**
     * Shut down: close listeners, abort in-flight connections,
     * drain the dispatcher, join every thread.  Idempotent.
     */
    void stop();

    /** The TCP port actually bound (after start(); -1 = none). */
    int tcpPort() const { return boundTcpPort_; }

    /** The exposition listener's bound port (-1 = not serving). */
    int metricsPort() const { return metricsServer_.port(); }

    /** The Unix socket path served (empty = none). */
    const std::string &socketPath() const
    {
        return options_.socketPath;
    }

    /** Jobs executed to completion (not cache hits). */
    std::uint64_t jobsCompleted() const
    {
        return jobsCompleted_.load();
    }

    /** Submissions answered straight from the result store. */
    std::uint64_t cacheHits() const { return cacheHits_.load(); }

    /** Worker subprocess deaths survived. */
    std::uint64_t workerCrashes() const
    {
        return workerCrashes_.load();
    }

    /** Hung workers killed at the cell timeout. */
    std::uint64_t cellTimeouts() const
    {
        return cellTimeouts_.load();
    }

    /** Submits refused by admission control (all reasons). */
    std::uint64_t jobsShed() const { return jobsShed_.load(); }

    /** Queued jobs cancelled because every waiter disconnected. */
    std::uint64_t jobsCancelled() const
    {
        return jobsCancelled_.load();
    }

    /** Jobs re-enqueued from the journal by --recover. */
    std::uint64_t jobsRecovered() const
    {
        return jobsRecovered_.load();
    }

  private:
    /** A job zero-or-more connections are waiting on. */
    struct JobState
    {
        Mutex mutex;
        CondVar doneCv;
        bool done GLLC_GUARDED_BY(mutex) = false;
        bool failed GLLC_GUARDED_BY(mutex) = false;
        /**
         * Connections currently blocked on doneCv.  Registered
         * under inflightMutex_ at join/create time, so a zero here
         * (checked under both locks) proves nobody can be about to
         * wait — the precondition for cancelling a queued job whose
         * last client hung up.  Recovered jobs start at zero and
         * are never cancelled: cancellation only triggers from a
         * disconnecting waiter.
         */
        unsigned waiters GLLC_GUARDED_BY(mutex) = 0;
        Error error GLLC_GUARDED_BY(mutex);
        ResultHeader header GLLC_GUARDED_BY(mutex);
        std::string payload GLLC_GUARDED_BY(mutex);
    };

    Result<int> bindUnixListener();
    Result<int> bindTcpListener();
    void acceptLoop(int listen_fd) GLLC_EXCLUDES(connMutex_);
    void serveConnection(int fd) GLLC_EXCLUDES(connMutex_);
    void dispatchLoop();
    void executeJob(const QueuedJob &job)
        GLLC_EXCLUDES(inflightMutex_);
    bool handleSubmit(int fd, const RequestEnvelope &envelope)
        GLLC_EXCLUDES(inflightMutex_);
    bool handleStatusV2(int fd);
    std::string statusV2Json();
    void countMetric(const char *name);

    /**
     * Answer an over-limit submit with a shed frame (typed reason +
     * retry-after hint) and account for it.
     */
    void shedSubmit(int fd, const char *reason,
                    const std::string &tenant);

    /** Count a failed response write: the client is gone. */
    void noteClientGone(std::uint64_t job_id,
                        const std::string &tenant);

    /**
     * Cancel @p state's queued job after its last waiter hung up;
     * false when the dispatcher got there first (the job runs and
     * its result lands in the store).
     */
    bool cancelAbandonedJob(const ResultKey &key,
                            const std::shared_ptr<JobState> &state,
                            const std::string &tenant)
        GLLC_EXCLUDES(inflightMutex_);

    /** Replay the journal: re-enqueue unfinished jobs in order. */
    [[nodiscard]] Result<Unit> recoverFromJournal()
        GLLC_EXCLUDES(inflightMutex_);

    /** Record current queue depths into the windowed gauges. */
    void recordQueueGauges();

    /**
     * Render the Prometheus exposition and rearm the windowed
     * queue-depth gauges for the next scrape window.
     */
    std::string metricsExposition();

    /**
     * Stitch the daemon's job spans and every worker-<pid>.jsonl
     * under @p job_trace_dir into one merged Perfetto timeline at
     * traceDir/job-<id>.json.
     */
    void stitchJobTrace(const QueuedJob &job,
                        const std::string &trace_id,
                        const std::string &job_trace_dir,
                        double accepted_us, double popped_us,
                        double done_us);

    /** Join conn threads whose serveConnection() has returned. */
    void reapFinishedConnsLocked() GLLC_REQUIRES(connMutex_);

    /** Wake every submit waiter with @p error; empties inflight_. */
    void failPendingJobs(const Error &error)
        GLLC_EXCLUDES(inflightMutex_);

    DaemonOptions options_;

    /** Written while binding listeners in start(), read after. */
    int boundTcpPort_ = -1;

    /** start()/stop() bookkeeping; touched only by their caller. */
    std::vector<int> listenFds_;
    std::vector<std::thread> acceptThreads_;
    std::thread dispatcher_;
    std::atomic<bool> running_{false};

    Mutex connMutex_;
    std::vector<std::thread> connThreads_
        GLLC_GUARDED_BY(connMutex_);
    /** Threads in connThreads_ that have finished and await join. */
    std::vector<std::thread::id> finishedConnIds_
        GLLC_GUARDED_BY(connMutex_);
    std::vector<int> connFds_ GLLC_GUARDED_BY(connMutex_);

    JobQueue queue_;
    ResultStore store_;

    Mutex inflightMutex_;
    std::map<ResultKey, std::shared_ptr<JobState>> inflight_
        GLLC_GUARDED_BY(inflightMutex_);

    MetricsHttpServer metricsServer_;
    ServiceEventLog eventLog_;
    JobJournal journal_;
    std::chrono::steady_clock::time_point startTime_;

    std::atomic<std::uint64_t> nextJobId_{1};
    std::atomic<std::uint64_t> jobsSubmitted_{0};
    std::atomic<std::uint64_t> jobsCompleted_{0};
    std::atomic<std::uint64_t> jobsFailed_{0};
    std::atomic<std::uint64_t> jobsQuarantined_{0};
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> inflightJoins_{0};
    std::atomic<std::uint64_t> workerCrashes_{0};
    std::atomic<std::uint64_t> cellTimeouts_{0};
    std::atomic<std::uint64_t> jobsShed_{0};
    std::atomic<std::uint64_t> jobsCancelled_{0};
    std::atomic<std::uint64_t> jobsRecovered_{0};
    std::atomic<std::uint64_t> clientGone_{0};
};

} // namespace gllc

#endif // GLLC_SERVICE_DAEMON_HH
