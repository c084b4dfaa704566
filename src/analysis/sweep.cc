#include "analysis/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <ostream>
#include <thread>

#include "analysis/cell_attempts.hh"
#include "analysis/checkpoint.hh"
#include "common/audit.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/progress.hh"
#include "common/stats.hh"
#include "common/thread_annotations.hh"
#include "common/thread_pool.hh"
#include "common/trace_event.hh"
#include "workload/trace_cache.hh"

namespace gllc
{

namespace
{

/** A count knob's value; a negative setting reads as 0. */
std::uint32_t
knobCount(std::int64_t v)
{
    return v > 0 ? static_cast<std::uint32_t>(v) : 0;
}

/** Render one frame trace, with an optional timeline span. */
FrameTrace
renderFrame(const FrameSpec &frame, const RenderScale &scale)
{
    TraceSpan span("render",
                   frame.app->name + " frame "
                       + std::to_string(frame.frameIndex),
                   {{"app", frame.app->name},
                    {"frame", std::to_string(frame.frameIndex)}});
    FrameTrace trace =
        cachedRenderFrame(*frame.app, frame.frameIndex, scale);
    if (metricsActive())
        MetricsRegistry::instance().addCounter(
            "sweep.frames_rendered");
    return trace;
}

/**
 * The thread backend's cell timeout (cell_attempts.hh): a background
 * thread scans the in-flight attempts and warns (once per attempt)
 * about any running longer than the budget, counting it as
 * sweep.cell_timeouts.  The attempt is never killed — the replay
 * owns no cancellable state, and a partial kill would trade a slow
 * result for a corrupt one.
 */
class CellWatchdog
{
  public:
    using Namer = std::function<std::string(std::size_t)>;

    CellWatchdog(unsigned timeout_ms, std::size_t slots, Namer namer)
        : timeoutMs_(timeout_ms), slots_(slots),
          namer_(std::move(namer))
    {
        if (timeoutMs_ == 0)
            return;
        starts_ =
            std::make_unique<std::atomic<std::int64_t>[]>(slots_);
        warned_ = std::make_unique<std::atomic<bool>[]>(slots_);
        for (std::size_t i = 0; i < slots_; ++i) {
            starts_[i].store(-1, std::memory_order_relaxed);
            warned_[i].store(false, std::memory_order_relaxed);
        }
        thread_ = std::thread([this] { loop(); });
    }

    ~CellWatchdog()
    {
        if (!thread_.joinable())
            return;
        {
            MutexLock lock(mutex_);
            stopping_ = true;
        }
        cv_.notifyAll();
        thread_.join();
    }

    CellWatchdog(const CellWatchdog &) = delete;
    CellWatchdog &operator=(const CellWatchdog &) = delete;

    void
    begin(std::size_t k)
    {
        if (timeoutMs_ == 0)
            return;
        warned_[k].store(false, std::memory_order_relaxed);
        starts_[k].store(nowMs(), std::memory_order_relaxed);
    }

    void
    end(std::size_t k)
    {
        if (timeoutMs_ == 0)
            return;
        starts_[k].store(-1, std::memory_order_relaxed);
    }

  private:
    static std::int64_t
    nowMs()
    {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now()
                       .time_since_epoch())
            .count();
    }

    void
    loop() GLLC_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        const auto poll = std::chrono::milliseconds(
            std::max<unsigned>(timeoutMs_ / 4, 10));
        for (;;) {
            // A spurious wakeup before the poll interval elapses
            // only scans early; scanning is idempotent.
            (void)cv_.waitFor(mutex_, poll);
            if (stopping_)
                return;
            const std::int64_t now = nowMs();
            for (std::size_t k = 0; k < slots_; ++k) {
                const std::int64_t start =
                    starts_[k].load(std::memory_order_relaxed);
                if (start < 0 || now - start <= timeoutMs_)
                    continue;
                if (warned_[k].exchange(true,
                                        std::memory_order_relaxed))
                    continue;
                warn("sweep cell %s has run %lld ms (soft timeout "
                     "%u ms); letting it finish",
                     namer_(k).c_str(),
                     static_cast<long long>(now - start),
                     timeoutMs_);
                if (metricsActive())
                    MetricsRegistry::instance().addCounter(
                        "sweep.cell_timeouts");
            }
        }
    }

    unsigned timeoutMs_;
    std::size_t slots_;
    Namer namer_;
    std::unique_ptr<std::atomic<std::int64_t>[]> starts_;
    std::unique_ptr<std::atomic<bool>[]> warned_;
    std::thread thread_;
    Mutex mutex_;
    CondVar cv_;
    bool stopping_ GLLC_GUARDED_BY(mutex_) = false;
};

/** RAII in-flight marker for one cell attempt. */
class WatchdogScope
{
  public:
    WatchdogScope(CellWatchdog &watchdog, std::size_t k)
        : watchdog_(watchdog), k_(k)
    {
        watchdog_.begin(k_);
    }
    ~WatchdogScope() { watchdog_.end(k_); }
    WatchdogScope(const WatchdogScope &) = delete;
    WatchdogScope &operator=(const WatchdogScope &) = delete;

  private:
    CellWatchdog &watchdog_;
    std::size_t k_;
};

} // namespace

double
missMetric(const RunResult &r)
{
    return static_cast<double>(r.stats.totalMisses());
}

unsigned
sweepThreads(unsigned requested)
{
    if (requested > 0)
        return requested;
    const std::int64_t env = envInt("GLLC_THREADS", 0);
    if (env > 0)
        return static_cast<unsigned>(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

// ---------------------------------------------------------------
// SweepConfig
// ---------------------------------------------------------------

SweepConfig::SweepConfig()
{
    // Read the environment once: each knob left unset keeps the
    // SweepJobSpec default.
    scale(scaleFromEnv());
    frames(frameSetFromEnv());
    spec_.threads = sweepThreads(0);
    spec_.frameWindow =
        knobCount(envInt("GLLC_FRAME_WINDOW", spec_.frameWindow));
    spec_.progress = progressEnabled(-1);
    spec_.retries = knobCount(envInt("GLLC_CELL_RETRIES", spec_.retries));
    spec_.backoffMs =
        knobCount(envInt("GLLC_CELL_BACKOFF_MS", spec_.backoffMs));
    spec_.cellTimeoutMs =
        knobCount(envInt("GLLC_CELL_TIMEOUT_MS", spec_.cellTimeoutMs));
    spec_.checkpoint = envString("GLLC_CHECKPOINT", spec_.checkpoint);
    spec_.resume = envInt("GLLC_RESUME", spec_.resume) != 0;
}

SweepConfig::SweepConfig(SweepJobSpec spec)
    : spec_(std::move(spec)),
      policies_(spec_.policySpecs().takeOrFatal())
{
}

SweepConfig
SweepConfig::fromSpec(const SweepJobSpec &spec)
{
    return SweepConfig(spec);
}

SweepConfig &
SweepConfig::policies(std::vector<std::string> names)
{
    policies_.clear();
    policies_.reserve(names.size());
    for (const std::string &name : names)
        policies_.push_back(policySpec(name));
    spec_.policies = std::move(names);
    return *this;
}

SweepConfig &
SweepConfig::policySpecs(std::vector<PolicySpec> specs)
{
    policies_ = std::move(specs);
    spec_.policies.clear();
    for (const PolicySpec &spec : policies_)
        spec_.policies.push_back(spec.name);
    return *this;
}

SweepConfig &
SweepConfig::llcBytes(std::uint64_t full_llc_bytes)
{
    spec_.llcBytes = full_llc_bytes;
    return *this;
}

SweepConfig &
SweepConfig::frames(const std::vector<FrameSpec> &frames)
{
    spec_.frames.clear();
    spec_.frames.reserve(frames.size());
    for (const FrameSpec &frame : frames)
        spec_.frames.push_back({frame.app->name, frame.frameIndex});
    return *this;
}

SweepConfig &
SweepConfig::scale(const RenderScale &scale)
{
    spec_.scaleLinear = scale.linear;
    spec_.scatterPages = scale.scatterPages;
    return *this;
}

SweepConfig &
SweepConfig::characterize(bool enabled)
{
    spec_.characterize = enabled;
    return *this;
}

SweepConfig &
SweepConfig::collectDramTrace(bool collect)
{
    spec_.collectDramTrace = collect;
    return *this;
}

SweepConfig &
SweepConfig::threads(unsigned count)
{
    spec_.threads = sweepThreads(count);
    return *this;
}

SweepConfig &
SweepConfig::frameWindow(unsigned frames)
{
    spec_.frameWindow = frames;
    return *this;
}

SweepConfig &
SweepConfig::progress(bool enabled)
{
    spec_.progress = enabled;
    return *this;
}

SweepConfig &
SweepConfig::retries(unsigned count)
{
    spec_.retries = count;
    return *this;
}

SweepConfig &
SweepConfig::backoffMs(unsigned ms)
{
    spec_.backoffMs = ms;
    return *this;
}

SweepConfig &
SweepConfig::cellTimeoutMs(unsigned ms)
{
    spec_.cellTimeoutMs = ms;
    return *this;
}

SweepConfig &
SweepConfig::checkpoint(std::string path)
{
    spec_.checkpoint = std::move(path);
    return *this;
}

SweepConfig &
SweepConfig::resume(bool enabled)
{
    spec_.resume = enabled;
    return *this;
}

SweepConfig &
SweepConfig::cliArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--resume") {
            resume(true);
        } else if (flag == "--checkpoint") {
            if (i + 1 >= argc)
                fatal("--checkpoint requires a file path");
            checkpoint(argv[++i]);
        }
    }
    return *this;
}

SweepResult
SweepConfig::run(const CellObserver &observer) const
{
    GLLC_ASSERT(!policies_.empty());

    // Every knob below comes from the spec; the runtime objects are
    // derived from it once, by its own helpers.
    const SweepJobSpec &job = spec_;
    const std::vector<FrameSpec> frames = job.frameSpecs().takeOrFatal();
    const RenderScale scale = job.renderScale();
    const LlcConfig llc = job.llcConfig();

    const std::size_t num_policies = policies_.size();
    const std::size_t num_frames = frames.size();
    const std::size_t num_cells = num_frames * num_policies;
    const unsigned nthreads = std::max(job.threads, 1u);
    const std::string &checkpoint_path = job.checkpoint;
    const bool resuming = job.resume && !checkpoint_path.empty();

    // Working state, one slot per (frame, policy) cell; SweepResult
    // compacts the slots at the end.
    using State = CellOutcome::State;
    std::vector<CellOutcome> outcomes(num_cells);

    const CheckpointMeta meta = job.checkpointMeta();

    bool journal_append = false;
    if (resuming) {
        Result<CheckpointContents> loaded =
            loadCheckpoint(checkpoint_path);
        if (!loaded.ok()) {
            // The journal itself is unusable, so start it over: an
            // appended cell behind an invalid header would be
            // unreadable on the next resume too.
            warn("cannot resume from \"%s\" (%s); running the full "
                 "sweep", checkpoint_path.c_str(),
                 loaded.error().toString().c_str());
        } else {
            // Refuse to mix cells from a different sweep: silently
            // merging them would corrupt results, the opposite of
            // what a checkpoint is for.
            if (loaded.value().meta != meta)
                fatal("checkpoint \"%s\" was written by a different "
                      "sweep configuration; delete it or match the "
                      "configuration", checkpoint_path.c_str());
            CheckpointContents contents = loaded.take();
            journal_append = true;
            if (contents.skippedLines > 0)
                warn("checkpoint \"%s\": skipped %zu torn/corrupt "
                     "line(s)", checkpoint_path.c_str(),
                     contents.skippedLines);
            for (std::size_t f = 0; f < num_frames; ++f) {
                for (std::size_t p = 0; p < num_policies; ++p) {
                    const auto it = contents.cells.find(
                        CellKey{frames[f].app->name,
                                frames[f].frameIndex,
                                policies_[p].name});
                    if (it == contents.cells.end())
                        continue;
                    CellOutcome &out = outcomes[f * num_policies + p];
                    out.cell = std::move(it->second);
                    out.state = State::Restored;
                }
            }
        }
        if (observer && job.collectDramTrace)
            warn("resuming a DRAM-trace sweep: restored cells do "
                 "not re-fire the observer");
    }

    std::unique_ptr<CheckpointWriter> journal;
    if (!checkpoint_path.empty())
        journal = std::make_unique<CheckpointWriter>(
            checkpoint_path, meta, journal_append);

    // Window of frames whose traces live in memory concurrently.
    // One thread holds one frame: one trace alive, and observer
    // rows fire frame by frame.
    std::size_t window = job.frameWindow;
    if (window == 0)
        window = nthreads == 1 ? 1 : 2 * static_cast<std::size_t>(nthreads);
    // Each in-flight cell of a DRAM-trace run retains a bulky
    // trace until observed, so keep fewer frames open.
    if (job.collectDramTrace)
        window = std::min<std::size_t>(window, nthreads);
    window = std::max<std::size_t>(1,
                                   std::min(window, num_frames));

    ProgressMeter progress(job.progress, num_cells);
    const auto start = std::chrono::steady_clock::now();

    CellWatchdog watchdog(
        job.cellTimeoutMs, num_cells,
        [this, &frames, num_policies](std::size_t k) {
            const FrameSpec &frame = frames[k / num_policies];
            return frame.app->name + " frame "
                + std::to_string(frame.frameIndex) + " "
                + policies_[k % num_policies].name;
        });

    // Replay one cell.  Everything it touches is private to the
    // call (the trace is shared immutable), so cells run on any
    // thread with bit-identical results.
    const auto replay_cell = [&job, &llc](SweepCell &cell,
                                          const FrameTrace &trace,
                                          const PolicySpec &spec) {
        TraceSpan span(
            "cell", cell.key.toString(),
            {{"app", cell.key.app},
             {"frame", std::to_string(cell.key.frameIndex)},
             {"policy", cell.key.policy}});
        RunOptions options;
        options.collectDramTrace = job.collectDramTrace;
        options.characterize = job.characterize;
        if (auditActive()) {
            // Name the cell in any audit report, so a violation in a
            // concurrent sweep aborts with its exact coordinates.
            AuditScope scope;
            auditContext().app = cell.key.app;
            auditContext().frame = cell.key.frameIndex;
            cell.result = runTrace(trace, spec, llc, options);
        } else {
            cell.result = runTrace(trace, spec, llc, options);
        }
    };

    // Sampled once per sweep; the per-cell bookkeeping below never
    // re-reads the metrics switch.
    const bool metrics_on = metricsActive();
    const unsigned max_attempts = job.retries + 1;
    const auto count_retry = [metrics_on](unsigned,
                                          const std::string &) {
        if (metrics_on)
            MetricsRegistry::instance().addCounter("sweep.retries");
    };
    const auto quarantine = [&](CellOutcome &out, std::string error) {
        out.state = State::Quarantined;
        out.error = std::move(error);
        if (metrics_on)
            MetricsRegistry::instance().addCounter(
                "sweep.quarantined");
    };

    // One cell under the shared attempt policy (cell_attempts.hh).
    const auto attempt_cell = [&](std::size_t k,
                                  const FrameSpec &frame,
                                  const FrameTrace &trace) {
        const PolicySpec &spec = policies_[k % num_policies];
        CellOutcome &out = outcomes[k];
        out.cell.key = {frame.app->name, frame.frameIndex, spec.name};
        const AttemptsResult run = runAttempts(
            max_attempts, job.backoffMs,
            [&](unsigned attempt) {
                WatchdogScope in_flight(watchdog, k);
                return guardedCall([&] {
                    injectCellFaults(cellFaultKey(out.cell.key, attempt));
                    replay_cell(out.cell, trace, spec);
                });
            },
            count_retry);
        out.cell.attempts = run.attempts;
        if (run.ok()) {
            out.state = State::Ok;
            return;
        }
        warn("quarantined cell %s after %u attempt(s): %s",
             out.cell.key.toString().c_str(), run.attempts,
             run.error.c_str());
        quarantine(out, run.error);
    };

    // Frame rendering under the same attempt policy; a frame that
    // cannot be produced quarantines its pending cells.
    struct RenderedFrame
    {
        FrameTrace trace;
        AttemptsResult render;
    };

    const auto render_checked = [&](const FrameSpec &frame) {
        RenderedFrame out;
        out.render = runAttempts(
            max_attempts, job.backoffMs,
            [&](unsigned) {
                return guardedCall(
                    [&] { out.trace = renderFrame(frame, scale); });
            },
            count_retry);
        if (!out.render.ok())
            warn("frame %s %u failed to render after %u attempt(s): "
                 "%s", frame.app->name.c_str(), frame.frameIndex,
                 out.render.attempts, out.render.error.c_str());
        return out;
    };

    const auto mark_render_failed = [&](std::size_t k,
                                        const FrameSpec &frame,
                                        const AttemptsResult &render) {
        CellOutcome &out = outcomes[k];
        out.cell.key = {frame.app->name, frame.frameIndex,
                        policies_[k % num_policies].name};
        out.cell.attempts = render.attempts;
        quarantine(out, "frame render failed: " + render.error);
    };

    /** Does any cell of global frame @p f still need its trace? */
    const auto frame_pending = [&](std::size_t f) {
        for (std::size_t p = 0; p < num_policies; ++p) {
            if (outcomes[f * num_policies + p].state == State::Pending)
                return true;
        }
        return false;
    };

    // Merge step, deterministic sweep order: observers fire,
    // fresh cells are journaled, bulky traces are dropped.
    std::size_t done = 0;
    const auto finish_cell = [&](std::size_t k,
                                 const FrameTrace &trace) {
        SweepCell &cell = outcomes[k].cell;
        switch (outcomes[k].state) {
          case State::Ok:
            if (observer)
                observer(cell, trace);
            if (journal)
                journal->append(cell);
            if (metrics_on)
                MetricsRegistry::instance().addCounter(
                    "sweep.cells_done");
            cell.result.dramTrace.clear();
            cell.result.dramTrace.shrink_to_fit();
            break;
          case State::Restored:
            if (metrics_on)
                MetricsRegistry::instance().addCounter(
                    "sweep.cells_restored");
            break;
          case State::Quarantined:
            break;
          case State::Pending:
            panic("sweep cell %zu was never executed", k);
        }
        progress.update(++done);
    };

    // One thread fans out inline on the calling thread: a pool
    // thread would only add its own malloc arena to the peak RSS.
    std::optional<ThreadPool> pool;
    if (nthreads > 1)
        pool.emplace(nthreads);
    const auto fan_out = [&](std::size_t n,
                             const std::function<void(std::size_t)> &fn) {
        if (pool) {
            pool->parallelFor(n, fn);
            return;
        }
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
    };

    for (std::size_t base = 0; base < num_frames; base += window) {
        const std::size_t block = std::min(window, num_frames - base);

        const std::string window_tag =
            "frames " + std::to_string(base) + ".."
            + std::to_string(base + block - 1);

        // Produce the block's still-needed traces once, in parallel;
        // immutable from here on.
        std::vector<RenderedFrame> rendered(block);
        {
            TraceSpan phase("phase", "render " + window_tag);
            fan_out(block, [&](std::size_t i) {
                if (frame_pending(base + i))
                    rendered[i] = render_checked(frames[base + i]);
            });
        }

        // Replay every pending (frame, policy) cell of the block
        // concurrently into its preallocated slot.
        {
            TraceSpan phase("phase", "replay " + window_tag);
            fan_out(block * num_policies, [&](std::size_t idx) {
                const std::size_t f = idx / num_policies;
                const std::size_t k =
                    (base + f) * num_policies + idx % num_policies;
                if (outcomes[k].state != State::Pending)
                    return;
                if (rendered[f].render.ok())
                    attempt_cell(k, frames[base + f], rendered[f].trace);
                else
                    mark_render_failed(k, frames[base + f],
                                       rendered[f].render);
            });
        }

        // Merge: observers fire in sweep order regardless of
        // completion order.
        TraceSpan phase("phase", "merge " + window_tag);
        for (std::size_t f = 0; f < block; ++f) {
            for (std::size_t p = 0; p < num_policies; ++p)
                finish_cell((base + f) * num_policies + p,
                            rendered[f].trace);
        }
    }

    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return SweepResult(job.policies, scale, llc, std::move(outcomes),
                       wall, nthreads);
}

// ---------------------------------------------------------------
// SweepResult
// ---------------------------------------------------------------

SweepResult::SweepResult(std::vector<std::string> policies,
                         const RenderScale &scale,
                         const LlcConfig &llc_config,
                         std::vector<CellOutcome> outcomes,
                         double wall_seconds, unsigned threads_used)
    : policies_(std::move(policies)), scale_(scale),
      llcConfig_(llc_config), wallSeconds_(wall_seconds),
      threadsUsed_(threads_used)
{
    // Surviving cells keep deterministic sweep order; failures move
    // to the quarantine manifest.
    cells_.reserve(outcomes.size());
    for (CellOutcome &out : outcomes) {
        GLLC_ASSERT_MSG(out.state != CellOutcome::State::Pending,
                        "sweep cell %s left unexecuted",
                        out.cell.key.toString().c_str());
        if (out.state == CellOutcome::State::Quarantined) {
            quarantined_.push_back(
                {std::move(out.cell.key), std::move(out.error),
                 out.cell.attempts});
            continue;
        }
        if (out.state == CellOutcome::State::Restored)
            ++restoredCells_;
        cells_.push_back(std::move(out.cell));
    }
}

std::vector<std::string>
SweepResult::appOrder() const
{
    std::vector<std::string> order;
    for (const AppProfile &app : paperApps()) {
        for (const SweepCell &cell : cells_) {
            if (cell.key.app == app.name) {
                order.push_back(app.name);
                break;
            }
        }
    }
    return order;
}

std::map<std::string, std::map<std::string, double>>
SweepResult::totalsByApp(const Metric &metric) const
{
    std::map<std::string, std::map<std::string, double>> totals;
    for (const SweepCell &cell : cells_)
        totals[cell.key.app][cell.key.policy] +=
            metric(cell.result);
    return totals;
}

std::map<std::string, double>
SweepResult::meanNormalized(const Metric &metric,
                            const std::string &baseline) const
{
    GLLC_ASSERT_MSG(std::find(policies_.begin(), policies_.end(),
                              baseline)
                        != policies_.end(),
                    "baseline policy \"%s\" not swept",
                    baseline.c_str());

    // Collect per-frame baseline values.
    std::map<std::pair<std::string, std::uint32_t>, double> base;
    for (const SweepCell &cell : cells_) {
        if (cell.key.policy == baseline)
            base[{cell.key.app, cell.key.frameIndex}] =
                metric(cell.result);
    }

    std::map<std::string, std::vector<double>> ratios;
    for (const SweepCell &cell : cells_) {
        const auto it =
            base.find({cell.key.app, cell.key.frameIndex});
        // A frame whose baseline cell was quarantined contributes
        // no ratios: partial results stay comparable.
        if (it == base.end())
            continue;
        if (it->second > 0.0)
            ratios[cell.key.policy].push_back(metric(cell.result)
                                              / it->second);
    }

    std::map<std::string, double> means;
    for (const auto &[policy, values] : ratios)
        means[policy] = mean(values);
    return means;
}

void
SweepResult::printNormalizedTable(std::ostream &os,
                                  const std::string &title,
                                  const Metric &metric,
                                  const std::string &baseline) const
{
    const auto totals = totalsByApp(metric);

    std::vector<std::string> header{"app"};
    for (const std::string &p : policies_) {
        if (p != baseline)
            header.push_back(p);
    }
    TablePrinter tp(header);

    for (const std::string &app : appOrder()) {
        const auto &row = totals.at(app);
        const auto base_it = row.find(baseline);
        const double base =
            base_it != row.end() ? base_it->second : 0.0;
        std::vector<std::string> row_cells{app};
        for (const std::string &p : policies_) {
            if (p == baseline)
                continue;
            const auto it = row.find(p);
            row_cells.push_back(it != row.end() && base > 0.0
                                    ? fmt(it->second / base, 3)
                                    : "n/a");
        }
        tp.addRow(std::move(row_cells));
    }

    const auto means = meanNormalized(metric, baseline);
    std::vector<std::string> mean_row{"MEAN"};
    for (const std::string &p : policies_) {
        if (p == baseline)
            continue;
        const auto it = means.find(p);
        mean_row.push_back(it != means.end() ? fmt(it->second, 3)
                                             : "n/a");
    }
    tp.addRow(std::move(mean_row));

    os << title << " (normalized to " << baseline << ")\n";
    tp.print(os);
    if (!quarantined_.empty())
        os << "(" << quarantined_.size()
           << " quarantined cell(s) excluded)\n";
    os << '\n';
}

} // namespace gllc
