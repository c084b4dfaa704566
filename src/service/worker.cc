#include "service/worker.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "analysis/cell_attempts.hh"
#include "analysis/checkpoint.hh"
#include "analysis/offline_sim.hh"
#include "analysis/policy_table.hh"
#include "common/durable_file.hh"
#include "common/env.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_annotations.hh"
#include "common/trace_event.hh"
#include "service/fd_hygiene.hh"
#include "workload/trace_cache.hh"

namespace gllc
{

namespace
{

/** The failed-cell line of the worker protocol (sealed). */
std::string
failedCellLine(const CellKey &key, unsigned attempts,
               const std::string &error)
{
    std::string line = "{\"failed\":1,\"app\":\"";
    line += jsonEscape(key.app);
    line += "\",\"frame\":";
    line += std::to_string(key.frameIndex);
    line += ",\"policy\":\"";
    line += jsonEscape(key.policy);
    line += "\",\"attempts\":";
    line += std::to_string(attempts);
    line += ",\"error\":\"";
    line += jsonEscape(error);
    line += '"';
    return sealJournalLine(std::move(line));
}

/** Parsed failure report. */
struct FailedCell
{
    CellKey key;
    unsigned attempts = 0;
    std::string error;
};

/** Parse a sealed failed-cell line; false on any deviation. */
bool
parseFailedCellLine(const std::string &line, FailedCell &out)
{
    JsonValue doc;
    if (!parseSealedLine(line, doc))
        return false;
    // The values in failedCellLine()'s order; the re-emit below
    // rejects a line of any other shape.
    JsonLeaves v(doc);
    v.u64();  // "failed":1
    out.key.app = v.str();
    out.key.frameIndex = static_cast<std::uint32_t>(v.u64());
    out.key.policy = v.str();
    out.attempts = static_cast<unsigned>(v.u64());
    out.error = v.str();
    return v.ok()
        && sameSealedLine(
            failedCellLine(out.key, out.attempts, out.error), line);
}

/** Write all bytes; false on unrecoverable error (EPIPE, ...). */
bool
writeAll(int fd, const char *buf, std::size_t len)
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n = ::write(fd, buf + done, len - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/** One worker-bound cell request line. */
std::string
cellRequestLine(std::size_t frame, std::size_t policy,
                unsigned attempt)
{
    std::string line = "{\"cell\":{\"frame\":";
    line += std::to_string(frame);
    line += ",\"policy\":";
    line += std::to_string(policy);
    line += ",\"attempt\":";
    line += std::to_string(attempt);
    line += "}}\n";
    return line;
}

/**
 * Strip a reply's frame-source prefix ("cache " or "render ") and
 * return its word; "" when the cell reused the frame in memory.
 */
std::string
takeFrameSource(std::string &line)
{
    for (const std::string word : {"cache", "render"}) {
        if (line.compare(0, word.size() + 1, word + ' ') == 0) {
            line.erase(0, word.size() + 1);
            return word;
        }
    }
    return "";
}

/** The trace-context line handed to a freshly spawned worker. */
std::string
traceRequestLine(const ShardTelemetry &telemetry,
                 const std::string &out_path)
{
    char epoch[64];
    std::snprintf(epoch, sizeof(epoch), "%.3f",
                  telemetry.daemonEpochUs);
    std::string line = "{\"trace\":{\"id\":\"";
    line += jsonEscape(telemetry.traceId);
    line += "\",\"job\":";
    line += std::to_string(telemetry.jobId);
    line += ",\"epoch_us\":";
    line += epoch;
    line += ",\"out\":\"";
    line += jsonEscape(out_path);
    line += "\"}}\n";
    return line;
}

/** Emit a per-cell structured event when an event sink is wired. */
void
emitCellEvent(const ShardTelemetry *telemetry, const char *type,
              const CellKey &key, unsigned attempts,
              const std::string &detail)
{
    if (telemetry == nullptr || telemetry->events == nullptr
        || !telemetry->events->active())
        return;
    ServiceEvent event(type);
    event.num("job", static_cast<std::int64_t>(telemetry->jobId))
        .str("app", key.app)
        .num("frame", key.frameIndex)
        .str("policy", key.policy)
        .num("attempts", attempts);
    if (!detail.empty())
        event.str("error", detail);
    telemetry->events->emit(event);
}

/** How a receive() attempt ended. */
enum class RecvStatus
{
    Line,    ///< one complete response line delivered
    Eof,     ///< worker closed its pipe (died or exited)
    Timeout  ///< no complete line within the deadline
};

/**
 * How long a reap waits for a closed worker to exit before SIGKILL.
 * A healthy worker exits on stdin EOF within milliseconds.
 */
constexpr int kReapDeadlineMs = 5000;

/** How long a worker.linger worker ignores its stdin EOF. */
constexpr int kLingerSeconds = 60;

/**
 * Wait up to @p timeout_ms for child @p pid to exit, leaving it
 * unreaped; true once it has.  Polls a pidfd, so a prompt exit adds
 * no sleep.
 */
bool
awaitExit(pid_t pid, int timeout_ms)
{
    using clock = std::chrono::steady_clock;
    const clock::time_point deadline =
        clock::now() + std::chrono::milliseconds(timeout_ms);
    const auto left_ms = [&] {
        return static_cast<int>(std::max<long long>(
            0, std::chrono::duration_cast<std::chrono::milliseconds>(
                   deadline - clock::now())
                   .count()));
    };
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (pidfd >= 0) {
        pollfd pfd{};
        pfd.fd = pidfd;
        pfd.events = POLLIN;
        int ready = 0;
        do {
            ready = ::poll(&pfd, 1, left_ms());
        } while (ready < 0 && errno == EINTR);
        ::close(pidfd);
        return ready > 0;
    }
    // No pidfds (kernels before 5.3, or a seccomp filter that denies
    // pidfd_open): poll the child's state instead.
    for (;;) {
        siginfo_t info{};
        if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                     WEXITED | WNOHANG | WNOWAIT)
                == 0
            && info.si_pid == pid)
            return true;
        const int left = left_ms();
        if (left == 0)
            return false;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min(left, 10)));
    }
}

/** Describe how a reaped worker died. */
std::string
exitDescription(int status)
{
    if (WIFEXITED(status))
        return "exit status "
            + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return "unknown status " + std::to_string(status);
}

/** A live worker subprocess (parent side). */
class WorkerProcess
{
  public:
    /**
     * @param telemetry reap-timeout events go here; may be null
     * @param trace_cache_dir the workers' trace cache ("" = none)
     */
    WorkerProcess(const ShardTelemetry *telemetry,
                  const std::string &trace_cache_dir)
        : telemetry_(telemetry), traceCacheDir_(trace_cache_dir),
          argv_{"gllcd-worker", "--worker"}
    {
        if (!traceCacheDir_.empty())
            argv_.push_back(traceCacheDir_);
    }
    ~WorkerProcess() { shutdown(); }

    WorkerProcess(const WorkerProcess &) = delete;
    WorkerProcess &operator=(const WorkerProcess &) = delete;

    bool alive() const { return pid_ > 0; }

    /** The subprocess pid (names its per-spawn trace file). */
    pid_t pid() const { return pid_; }

    /**
     * Spawn `exe --worker [TRACE_CACHE_DIR]` and send the spec line;
     * false on any failure.  The child inherits fds 0, 1 and 2 only
     * (fd_hygiene.hh).
     */
    [[nodiscard]] bool
    spawn(const std::string &exe, const std::string &spec_line)
    {
        Result<PipedChild> child = spawnPiped(exe, argv_);
        if (!child.ok())
            return false;
        pid_ = child.value().pid;
        writeFd_ = child.value().stdinFd;
        readFd_ = child.value().stdoutFd;
        buffer_.clear();
        if (!send(spec_line)) {
            shutdown();
            return false;
        }
        return true;
    }

    [[nodiscard]] bool
    send(const std::string &line)
    {
        return writeFd_ >= 0
            && writeAll(writeFd_, line.data(), line.size());
    }

    /**
     * Read one response line.  @p timeout_ms bounds the whole wait
     * (0 = wait forever); Timeout means the worker is alive but
     * hung past the budget — the caller must kill() it, since a
     * spinning worker ignores its pipes closing.
     */
    RecvStatus
    receive(std::string &line, unsigned timeout_ms)
    {
        using clock = std::chrono::steady_clock;
        const clock::time_point deadline =
            clock::now() + std::chrono::milliseconds(timeout_ms);
        for (;;) {
            const std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                line.assign(buffer_, 0, nl + 1);
                buffer_.erase(0, nl + 1);
                return RecvStatus::Line;
            }
            if (readFd_ < 0)
                return RecvStatus::Eof;
            if (timeout_ms > 0) {
                const long long left_ms =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(deadline
                                                   - clock::now())
                        .count();
                if (left_ms <= 0)
                    return RecvStatus::Timeout;
                pollfd pfd{};
                pfd.fd = readFd_;
                pfd.events = POLLIN;
                const int ready = ::poll(
                    &pfd, 1,
                    static_cast<int>(std::min<long long>(
                        left_ms, INT_MAX)));
                if (ready < 0) {
                    if (errno == EINTR)
                        continue;
                    return RecvStatus::Eof;
                }
                if (ready == 0)
                    return RecvStatus::Timeout;
            }
            char chunk[4096];
            const ssize_t n =
                ::read(readFd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return RecvStatus::Eof;
            }
            if (n == 0)
                return RecvStatus::Eof;
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** SIGKILL a hung worker so shutdown()'s reap cannot block. */
    void
    kill()
    {
        if (pid_ > 0)
            ::kill(pid_, SIGKILL);
    }

    /**
     * Close pipes and reap; returns the exit description.  A worker
     * still running kReapDeadlineMs after its pipes close is
     * SIGKILLed, so the reap is bounded.  A worker that did not exit
     * cleanly may have died mid-write: its trace temp files go too.
     */
    std::string
    shutdown()
    {
        if (writeFd_ >= 0) {
            ::close(writeFd_);
            writeFd_ = -1;
        }
        if (readFd_ >= 0) {
            ::close(readFd_);
            readFd_ = -1;
        }
        buffer_.clear();
        std::string how = "never ran";
        if (pid_ > 0) {
            const auto start = std::chrono::steady_clock::now();
            if (!awaitExit(pid_, kReapDeadlineMs)) {
                ::kill(pid_, SIGKILL);
                noteReapTimeout(
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
            }
            int status = 0;
            while (::waitpid(pid_, &status, 0) < 0
                   && errno == EINTR) {
            }
            how = exitDescription(status);
            if (!traceCacheDir_.empty()
                && !(WIFEXITED(status) && WEXITSTATUS(status) == 0))
                removeTempFiles(traceCacheDir_, pid_);
            pid_ = -1;
        }
        return how;
    }

  private:
    void
    noteReapTimeout(std::int64_t waited_ms) const
    {
        warn("gllcd worker %d still running %lld ms after its pipes "
             "closed; killed",
             static_cast<int>(pid_), static_cast<long long>(waited_ms));
        if (metricsActive())
            MetricsRegistry::instance().addCounter(
                "gllcd.worker_reap_timeouts");
        if (telemetry_ == nullptr || telemetry_->events == nullptr
            || !telemetry_->events->active())
            return;
        ServiceEvent event("worker_reap_timeout");
        event.num("job", static_cast<std::int64_t>(telemetry_->jobId))
            .num("pid", pid_)
            .num("waited_ms", waited_ms);
        telemetry_->events->emit(event);
    }

    const ShardTelemetry *telemetry_;
    const std::string traceCacheDir_;
    std::vector<std::string> argv_;
    pid_t pid_ = -1;
    int writeFd_ = -1;
    int readFd_ = -1;
    std::string buffer_;
};

/** The worker binary to exec (tests point this at gllcd). */
std::string
workerExecutable()
{
    const std::string configured = envString("GLLC_WORKER_EXE", "");
    return configured.empty() ? "/proc/self/exe" : configured;
}

/** Run-wide stats the shard threads update concurrently. */
struct SharedStats
{
    Mutex mutex;
    ShardedRunStats stats GLLC_GUARDED_BY(mutex);
};

/**
 * Drive one worker's shard of cells to completion (one thread per
 * worker runs this).  Crashes respawn the worker and retry the
 * unanswered cell within the job's retry budget; a cell that keeps
 * killing workers is quarantined and the shard moves on.
 */
void
runShard(const SweepJobSpec &spec, const std::string &spec_line,
         const std::string &trace_cache_dir,
         const std::vector<std::pair<std::size_t, std::size_t>>
             &cells,
         std::vector<CellOutcome> &outcomes, std::size_t num_policies,
         SharedStats &shared, const ShardTelemetry *telemetry)
{
    const std::string exe = workerExecutable();
    const unsigned max_attempts = spec.retries + 1;
    WorkerProcess proc(telemetry, trace_cache_dir);

    // Hand every fresh worker the job's trace context; each spawn
    // writes its own worker-<pid>.jsonl, so a crashed worker leaves
    // at most a file the daemon's stitcher will ignore as invalid.
    const bool tracing = telemetry != nullptr
        && !telemetry->traceDir.empty();
    const auto send_trace_context = [&] {
        if (!tracing)
            return;
        const std::string out_path = telemetry->traceDir + "/worker-"
            + std::to_string(proc.pid()) + ".jsonl";
        // A failed send means the worker died already; the next
        // cell request surfaces that as a crash.
        (void)proc.send(traceRequestLine(*telemetry, out_path));
    };

    const auto note_spawn = [&] {
        MutexLock lock(shared.mutex);
        ++shared.stats.workersSpawned;
    };
    const auto note_crash = [&] {
        MutexLock lock(shared.mutex);
        ++shared.stats.workerCrashes;
        if (metricsActive())
            MetricsRegistry::instance().addCounter(
                "gllcd.worker_crashes");
    };
    const auto note_frame_source = [](const std::string &source) {
        if (source.empty() || !metricsActive())
            return;
        if (source == "cache")
            MetricsRegistry::instance().addCounter(
                "gllcd.trace_cache.hits");
        else
            MetricsRegistry::instance().addCounter(
                "gllcd.trace_cache.misses");
    };
    const auto note_timeout = [&] {
        MutexLock lock(shared.mutex);
        ++shared.stats.cellTimeouts;
        if (metricsActive())
            MetricsRegistry::instance().addCounter(
                "gllcd.cell_timeouts");
    };

    for (const auto &[frame_idx, policy_idx] : cells) {
        CellOutcome &out =
            outcomes[frame_idx * num_policies + policy_idx];
        const CellKey expect{spec.frames[frame_idx].app,
                             spec.frames[frame_idx].frameIndex,
                             spec.policies[policy_idx]};
        out.cell.key = expect;
        // One attempt: (re)spawn a worker if none is alive, send the
        // request, read and parse the reply.  Every failure, spawn
        // included, costs one attempt of the same budget.
        const auto attempt_cell = [&](unsigned attempt) -> std::string {
            if (!proc.alive()) {
                if (!proc.spawn(exe, spec_line))
                    return "cannot spawn worker " + exe;
                note_spawn();
                send_trace_context();
            }
            const auto attempt_start = std::chrono::steady_clock::now();
            std::string line;
            RecvStatus received = RecvStatus::Eof;
            if (proc.send(cellRequestLine(frame_idx, policy_idx,
                                          attempt)))
                received = proc.receive(line, spec.cellTimeoutMs);
            recordLatencyMs(
                "gllcd.cell.exec_ms",
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - attempt_start)
                    .count());
            if (received != RecvStatus::Line) {
                // The unanswered request names the killer cell.  A
                // hung worker (Timeout) must die by SIGKILL first:
                // it is not reading its pipes, so shutdown()'s reap
                // would otherwise block on it forever.
                const bool hung = received == RecvStatus::Timeout;
                if (hung) {
                    proc.kill();
                    note_timeout();
                } else {
                    note_crash();
                }
                const std::string how = proc.shutdown();
                warn("gllcd worker %s (%s) on cell %s (attempt %u)",
                     hung ? "hung past the cell timeout" : "died",
                     how.c_str(), expect.toString().c_str(), attempt);
                if (hung)
                    return "cell exceeded timeout "
                        + std::to_string(spec.cellTimeoutMs) + " ms";
                return "worker crashed (" + how + ")";
            }

            note_frame_source(takeFrameSource(line));
            SweepCell cell;
            if (parseCheckpointCellLine(line, cell)
                && cell.key == expect) {
                out.cell = std::move(cell);
                return "";
            }
            FailedCell failed;
            if (parseFailedCellLine(line, failed) && failed.key == expect
                && !failed.error.empty())
                return failed.error;
            // Unparseable response: the worker is off the rails;
            // treat it like a crash of this cell.
            const std::string how = proc.shutdown();
            note_crash();
            warn("gllcd worker spoke garbage (%s) on cell %s",
                 how.c_str(), expect.toString().c_str());
            return "worker protocol failure (" + how + ")";
        };
        const AttemptsResult run = runAttempts(
            max_attempts, spec.backoffMs, attempt_cell,
            [&](unsigned attempt, const std::string &error) {
                emitCellEvent(telemetry, "cell_retry", expect, attempt,
                              error);
            });
        out.cell.attempts = run.attempts;
        out.state = run.ok() ? CellOutcome::State::Ok
                             : CellOutcome::State::Quarantined;
        out.error = run.error;
        if (metricsActive())
            MetricsRegistry::instance().recordValue(
                "gllcd.cell.attempts", run.attempts);
        if (!run.ok())
            emitCellEvent(telemetry, "cell_quarantined", expect,
                          run.attempts, run.error);
    }
    proc.shutdown();
}

} // namespace

Result<SweepResult>
runShardedSweep(const SweepJobSpec &spec, unsigned workers,
                const std::string &trace_cache_dir,
                ShardedRunStats *stats,
                const ShardTelemetry *telemetry)
{
    Result<Unit> valid = spec.validate();
    if (!valid.ok())
        return valid.error();

    const auto start = std::chrono::steady_clock::now();
    const std::size_t num_frames = spec.frames.size();
    const std::size_t num_policies = spec.policies.size();
    const unsigned shard_count = static_cast<unsigned>(std::min(
        static_cast<std::size_t>(std::max(workers, 1u)),
        num_frames));
    const std::string spec_line = spec.toJson() + "\n";

    // Frames round-robin over shards, each shard's cells
    // frame-major: a frame's cells stay in one worker and arrive
    // back to back, and the worker renders a frame only when the
    // frame index changes.  A respawned worker renders it again.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
        shards(shard_count);
    for (std::size_t f = 0; f < num_frames; ++f) {
        for (std::size_t p = 0; p < num_policies; ++p)
            shards[f % shard_count].emplace_back(f, p);
    }

    std::vector<CellOutcome> outcomes(num_frames * num_policies);
    SharedStats shared;
    {
        std::vector<std::thread> drivers;
        drivers.reserve(shard_count);
        for (unsigned s = 0; s < shard_count; ++s) {
            drivers.emplace_back([&, s] {
                runShard(spec, spec_line, trace_cache_dir, shards[s],
                         outcomes, num_policies, shared, telemetry);
            });
        }
        for (std::thread &t : drivers)
            t.join();
    }

    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (stats != nullptr) {
        MutexLock lock(shared.mutex);
        *stats = shared.stats;
    }
    return SweepResult(spec.policies, spec.renderScale(),
                       spec.llcConfig(), std::move(outcomes), wall,
                       shard_count);
}

int
runSweepWorker(const std::string &trace_cache_dir)
{
    // The daemon's telemetry env vars are inherited through exec;
    // left in place, every worker's atexit exporters would race to
    // clobber the daemon's own stats/trace files.  Workers report
    // through the line protocol and the trace context instead.  The
    // trace cache is the one the daemon names (<store>/traces), not
    // an inherited GLLC_TRACE_CACHE.
    ::unsetenv("GLLC_STATS_JSON");
    ::unsetenv("GLLC_TRACE_OUT");
    ::unsetenv("GLLC_TRACE_CACHE");

    // Line 1: the job spec this worker serves cells of.
    char *buf = nullptr;
    std::size_t cap = 0;
    ssize_t n = ::getline(&buf, &cap, stdin);
    if (n < 0) {
        std::free(buf);
        return 65;  // EX_DATAERR: no spec
    }
    const std::string spec_json(buf, static_cast<std::size_t>(n));
    Result<SweepJobSpec> parsed = parseSweepJobSpec(spec_json);
    if (!parsed.ok()) {
        std::free(buf);
        warn("gllcd worker: bad spec: %s",
             parsed.error().toString().c_str());
        return 65;
    }
    const SweepJobSpec spec = parsed.take();
    Result<Unit> valid = spec.validate();
    if (!valid.ok()) {
        std::free(buf);
        warn("gllcd worker: invalid spec: %s",
             valid.error().toString().c_str());
        return 65;
    }

    const RenderScale scale = spec.renderScale();
    const LlcConfig llc = spec.llcConfig();
    const std::vector<PolicySpec> policies =
        spec.policySpecs().takeOrFatal();
    const std::vector<FrameSpec> frames = spec.frameSpecs().takeOrFatal();

    // Trace context (set by the optional trace line): where this
    // worker's spans go and how to land them on the daemon's clock.
    std::string trace_id;
    std::string trace_out;
    double daemon_epoch_us = 0.0;

    // The last trace loaded, keyed by its index in spec.frames.
    // runShard sends a shard's cells frame-major, so each frame
    // loads once and all of its cells replay that one trace.
    std::optional<std::pair<std::uint64_t, FrameTrace>> rendered;

    // Serve cell requests until the parent hangs up.
    int rc = 0;
    while ((n = ::getline(&buf, &cap, stdin)) >= 0) {
        const std::string line(buf, static_cast<std::size_t>(n));
        Result<JsonValue> doc = parseJson(line);
        const JsonValue *trace_node =
            doc.ok() && doc.value().isObject()
                ? doc.value().find("trace")
                : nullptr;
        if (trace_node != nullptr) {
            const JsonValue *id = trace_node->isObject()
                ? trace_node->find("id") : nullptr;
            const JsonValue *epoch = trace_node->isObject()
                ? trace_node->find("epoch_us") : nullptr;
            const JsonValue *out = trace_node->isObject()
                ? trace_node->find("out") : nullptr;
            if (id == nullptr || !id->isString() || epoch == nullptr
                || !epoch->isNumber() || out == nullptr
                || !out->isString()) {
                warn("gllcd worker: malformed trace context");
                rc = 65;
                break;
            }
            trace_id = id->string();
            daemon_epoch_us = epoch->number();
            trace_out = out->string();
            setTraceEventsActive(true);
            continue;  // configuration, not a request: no reply
        }
        const JsonValue *cell_node =
            doc.ok() && doc.value().isObject()
                ? doc.value().find("cell")
                : nullptr;
        const JsonValue *frame_node =
            cell_node != nullptr && cell_node->isObject()
                ? cell_node->find("frame")
                : nullptr;
        const JsonValue *policy_node =
            cell_node != nullptr && cell_node->isObject()
                ? cell_node->find("policy")
                : nullptr;
        const JsonValue *attempt_node =
            cell_node != nullptr && cell_node->isObject()
                ? cell_node->find("attempt")
                : nullptr;
        if (frame_node == nullptr || policy_node == nullptr
            || attempt_node == nullptr) {
            warn("gllcd worker: unintelligible request");
            rc = 65;
            break;
        }
        Result<std::uint64_t> frame_idx = frame_node->asU64("frame");
        Result<std::uint64_t> policy_idx =
            policy_node->asU64("policy");
        Result<std::uint64_t> attempt_no =
            attempt_node->asU64("attempt");
        if (!frame_idx.ok() || !policy_idx.ok() || !attempt_no.ok()
            || frame_idx.value() >= spec.frames.size()
            || policy_idx.value() >= spec.policies.size()
            || attempt_no.value() == 0) {
            warn("gllcd worker: cell request out of range");
            rc = 65;
            break;
        }
        const FrameSpec &frame = frames[frame_idx.value()];
        const PolicySpec &policy = policies[policy_idx.value()];
        const unsigned attempt =
            static_cast<unsigned>(attempt_no.value());

        SweepCell cell;
        cell.key = {frame.app->name, frame.frameIndex, policy.name};
        cell.attempts = attempt;
        const std::uint64_t fault_key =
            cellFaultKey(cell.key, attempt);
        // "cache" or "render" when this cell loaded its frame.
        std::string source;

        // The crash site fires before any reply, so the parent sees
        // EOF on exactly this cell.  _Exit skips atexit/destructors:
        // this models a hard death, not an orderly failure.
        if (faultFires(FaultSite::WorkerCrash, fault_key))
            std::_Exit(kWorkerCrashExitCode);

        TraceSpan span("cell", cell.key.toString(),
                       {{"app", cell.key.app},
                        {"frame",
                         std::to_string(cell.key.frameIndex)},
                        {"policy", cell.key.policy},
                        {"trace", trace_id}});
        const std::string error = guardedCall([&] {
            // The in-process engine's draws (cell_attempts.hh);
            // cell.delay is how tests make a worker overrun the cell
            // timeout.
            injectCellFaults(fault_key);
            if (!rendered || rendered->first != frame_idx.value()) {
                // Dropped before rendering, so a render that throws
                // cannot leave another frame's trace behind.
                rendered.reset();
                TraceSpan render("render",
                                 frame.app->name + " frame "
                                     + std::to_string(frame.frameIndex),
                                 {{"app", frame.app->name},
                                  {"frame",
                                   std::to_string(frame.frameIndex)},
                                  {"trace", trace_id}});
                bool loaded = false;
                rendered.emplace(frame_idx.value(),
                                 cachedRenderFrame(*frame.app,
                                                   frame.frameIndex,
                                                   scale,
                                                   trace_cache_dir,
                                                   &loaded));
                source = loaded ? "cache" : "render";
                render.arg("source", source);
            }
            cell.result = runTrace(rendered->second, policy, llc);
        });
        std::string reply = source.empty() ? "" : source + ' ';
        reply += error.empty()
            ? checkpointCellLine(cell)
            : failedCellLine(cell.key, attempt, error);
        if (!writeAll(1, reply.data(), reply.size())) {
            rc = 74;  // EX_IOERR: parent is gone
            break;
        }
    }
    std::free(buf);

    // worker.linger: stay up past the EOF, like a worker that never
    // sees it because a stray copy of its stdin pipe is held open.
    // The daemon's bounded reap must kill it.
    if (faultFires(FaultSite::WorkerLinger))
        std::this_thread::sleep_for(std::chrono::seconds(kLingerSeconds));

    // Flush this worker's spans where the daemon's stitcher expects
    // them, shifted onto the daemon's trace clock and stamped with
    // the real pid so the merged timeline shows one track per
    // worker process.  Crashed workers never get here; the stitcher
    // simply finds fewer files.
    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::trunc);
        if (os) {
            const TraceCollector &collector =
                TraceCollector::instance();
            collector.writeJsonl(
                os,
                collector.epochSinceBootUs() - daemon_epoch_us,
                static_cast<std::uint32_t>(::getpid()));
        } else {
            warn("gllcd worker: cannot write trace %s",
                 trace_out.c_str());
        }
    }
    return rc;
}

} // namespace gllc
