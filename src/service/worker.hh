/**
 * @file
 * Sweep-cell worker subprocesses and the sharded job runner.
 *
 * The daemon's fault boundary is the process: a cell that segfaults,
 * aborts, or hard-exits (the worker.crash injection site) must kill
 * a disposable worker, never the service.  So a job's (frame,
 * policy) cells are sharded across worker subprocesses by frame
 * (each frame's trace renders once, in the one worker that owns it)
 * and executed over a line protocol on the worker's stdin/stdout:
 *
 *   parent -> worker   line 1:  SweepJobSpec::toJson()
 *   parent -> worker   {"trace":{"id":"...","job":N,"epoch_us":E,
 *                       "out":"<path>.jsonl"}}   (optional, once,
 *                      right after the spec: the daemon's per-job
 *                      trace context — the worker records one span
 *                      per cell and writes them to "out" at EOF,
 *                      timestamps shifted onto the daemon's trace
 *                      clock via the epoch difference; no reply)
 *   parent -> worker   {"cell":{"frame":F,"policy":P,"attempt":A}}
 *                      (F, P index the spec's frames/policies)
 *   worker -> parent   one line per cell, in request order:
 *                        success: checkpointCellLine() bytes — the
 *                          same sealed line a checkpoint journal
 *                          holds, so a cell survives a pipe exactly
 *                          the way it survives a crash; it carries
 *                          the characterization arrays only when
 *                          the spec declares characterize
 *                        failure: {"failed":1,...} sealed the same
 *                          way, carrying the error text
 *                      a cell that loaded its frame (rather than
 *                      reusing the one in memory) prefixes its line
 *                      with "cache " or "render ": where the trace
 *                      came from, counted by the parent as
 *                      gllcd.trace_cache.hits / .misses
 *
 * Requests are strictly request/response, so when a worker dies the
 * unanswered request names the killer cell precisely.  The parent
 * respawns the worker and retries that cell under the cell-attempt
 * policy the in-process engine uses (analysis/cell_attempts.hh:
 * spec.retries, spec.backoffMs, the same fault keys), then
 * quarantines it and moves on.  A clean job is therefore byte-identical to
 * SweepConfig::fromSpec(spec).run() — fewer moving parts than it
 * sounds: both paths end in the same runTrace() on the same trace.
 *
 * The worker executable is GLLC_WORKER_EXE when set (tests point it
 * at the gllcd binary) and /proc/self/exe otherwise; either way it
 * is entered through runSweepWorker() via the --worker flag, followed
 * by the trace cache directory when the daemon has one
 * (`gllcd --worker [DIR]`).  Workers sharing a cache directory load
 * each other's traces: a frame any earlier job rendered at the same
 * scale loads instead of rendering.
 */

#ifndef GLLC_SERVICE_WORKER_HH
#define GLLC_SERVICE_WORKER_HH

#include <cstdint>
#include <string>

#include "analysis/job_spec.hh"
#include "analysis/sweep.hh"
#include "common/result.hh"
#include "service/event_log.hh"

namespace gllc
{

/** Exit code of a worker killed by the worker.crash fault site. */
constexpr int kWorkerCrashExitCode = 70;

/** Telemetry of one sharded run (service status, tests). */
struct ShardedRunStats
{
    unsigned workersSpawned = 0;
    unsigned workerCrashes = 0;
    /** Attempts whose worker overran cellTimeoutMs and was killed. */
    unsigned cellTimeouts = 0;
};

/**
 * Per-job observability context the daemon threads through a
 * sharded run.  traceDir enables cross-process tracing: every
 * spawned worker is handed a trace line naming a private
 * worker-<pid>.jsonl file under traceDir plus the daemon's trace
 * epoch, and the daemon stitches the files it finds there into one
 * merged per-job timeline after the run.  events (when non-null and
 * active) receives cell_retry / cell_quarantined structured events
 * as they happen.  A default-constructed context disables both.
 */
struct ShardTelemetry
{
    std::uint64_t jobId = 0;

    /** Daemon-minted per-job trace id (hex), tags every span. */
    std::string traceId;

    /** Worker trace files land here; "" = no cross-process traces. */
    std::string traceDir;

    /** The daemon collector's TraceCollector::epochSinceBootUs(). */
    double daemonEpochUs = 0.0;

    /** Structured event sink (not owned); may be null. */
    ServiceEventLog *events = nullptr;
};

/**
 * Execute @p spec with its cells sharded over @p workers worker
 * subprocesses (clamped to the frame count, minimum 1).  Execution
 * knobs inside the spec keep their engine meaning where they apply
 * (retries, backoffMs, cellTimeoutMs); threads/frameWindow are
 * superseded by the process-level sharding and checkpointing is the
 * caller's concern, not the workers'.  Each request to a worker is
 * one cell attempt (analysis/cell_attempts.hh).  A crash, a garbled
 * reply, a failed cell and a failed spawn each fail the attempt.  So
 * does an attempt that overruns cellTimeoutMs (0 = no timeout): its
 * worker is SIGKILLed, counted in cellTimeouts, and the cell retried
 * on a fresh worker — safe because the fault boundary is a
 * disposable process with no shared state to corrupt.  Returns
 * InvalidArgument when the spec does not validate(), otherwise a
 * result: cells whose attempts all fail — even when no worker can be
 * spawned at all — are quarantined, exactly like the in-process
 * engine.  Workers load and store frame traces in
 * @p trace_cache_dir ("" = render every frame).
 */
[[nodiscard]] Result<SweepResult>
runShardedSweep(const SweepJobSpec &spec, unsigned workers,
                const std::string &trace_cache_dir,
                ShardedRunStats *stats = nullptr,
                const ShardTelemetry *telemetry = nullptr);

/**
 * Worker-subprocess entry: serve cell requests on stdin/stdout per
 * the protocol above until EOF, caching frame traces in
 * @p trace_cache_dir ("" = no cache).  Returns the process exit code
 * (0 on an orderly shutdown, EX_DATAERR-style nonzero when the parent
 * speaks garbage).
 */
int runSweepWorker(const std::string &trace_cache_dir);

} // namespace gllc

#endif // GLLC_SERVICE_WORKER_HH
