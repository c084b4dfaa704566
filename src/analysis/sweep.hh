/**
 * @file
 * Frame-set sweep engine shared by the benchmark harnesses.
 *
 * Each benchmark regenerates one of the paper's figures: it walks
 * the 52-frame set, replays every frame under a list of policies,
 * and prints per-application rows plus the cross-frame mean, which
 * is how the paper aggregates (per-frame values averaged over all
 * 52 frames; per-app bars average that title's frames).
 *
 * Execution model.  A sweep is a matrix of independent
 * (frame, policy) cells: every replay owns its OfflineSim, policy
 * instances and per-bank counters, so cells are embarrassingly
 * parallel.  The engine renders each frame trace once (traces are
 * immutable after build and shared read-only by the replays of that
 * frame), fans the cells of a window of frames out over a
 * ThreadPool, and merges the finished cells into deterministic
 * Table-1 order regardless of completion order.  Results are
 * bit-identical to a serial run: trace generation is seeded per
 * (app, frame) and each replay is deterministic in isolation.
 *
 * Fault model.  A multi-hour batch sweep must not die because one
 * cell does: cells run under the cell-attempt policy shared with the
 * gllcd shard runner (analysis/cell_attempts.hh) — an exception
 * boundary per attempt, bounded retry with exponential backoff — and
 * a cell that exhausts its budget is quarantined — recorded with its
 * error and attempt count in SweepResult::quarantined() and in the
 * CSV/JSON artifacts — while every other cell still completes.  An
 * attempt that overruns the cell timeout is warned about and
 * counted, then left to finish.  With GLLC_CHECKPOINT set,
 * completed cells are journaled (JSON lines, fsync'd batches; see
 * analysis/checkpoint);
 * resume() — the benches' --resume flag — replays the journal and
 * re-executes only missing cells, merging to a byte-identical
 * SweepResult.  Restored cells do not re-fire the CellObserver (the
 * journal does not retain bulky DRAM traces), so observer-driven
 * timing runs should resume with that in mind.
 *
 * Knobs (environment, read once when a SweepConfig is constructed;
 * each is overridable per SweepConfig, and an unset knob keeps the
 * SweepJobSpec default):
 *   GLLC_THREADS         worker count (default: hardware
 *                        concurrency)
 *   GLLC_FRAME_WINDOW    frames whose traces may be cached in
 *                        memory at once (default 2x threads; 1 at
 *                        one thread, the serial cadence)
 *   GLLC_PROGRESS        1/0 forces cells/s + ETA reporting
 *   GLLC_CELL_RETRIES    re-attempts after a cell's first failure
 *                        (default 2)
 *   GLLC_CELL_BACKOFF_MS first retry delay, doubled per attempt
 *                        (default 25)
 *   GLLC_CELL_TIMEOUT_MS wall-time budget of one cell attempt;
 *                        an overrun is warned about and counted,
 *                        never killed (default 0 = disabled)
 *   GLLC_CHECKPOINT      journal path for checkpoint/resume
 *   GLLC_RESUME          1 resumes from GLLC_CHECKPOINT (the
 *                        benches' --resume flag does the same)
 */

#ifndef GLLC_ANALYSIS_SWEEP_HH
#define GLLC_ANALYSIS_SWEEP_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "analysis/cell_key.hh"
#include "analysis/job_spec.hh"
#include "analysis/offline_sim.hh"
#include "workload/frame_set.hh"

namespace gllc
{

/** Results of one (frame, policy) replay. */
struct SweepCell
{
    /** Logical coordinates: (app, frame, policy). */
    CellKey key;

    RunResult result;

    /** Attempts the cell took (1 = first try; >1 = retries won). */
    unsigned attempts = 1;
};

/** A cell that exhausted its retry budget. */
struct QuarantinedCell
{
    CellKey key;
    std::string error;
    unsigned attempts = 0;
};

/**
 * How one cell of a sweep ended.  Both executors (SweepConfig::run
 * and the gllcd shard runner) fill one slot per cell and hand the
 * slots to SweepResult, which compacts them.
 */
struct CellOutcome
{
    enum class State : std::uint8_t
    {
        Pending,
        Ok,
        Restored,     ///< read back from a checkpoint journal
        Quarantined,
    };
    State state = State::Pending;

    /** Key and attempts always; the result only when it survived. */
    SweepCell cell;

    /** The last attempt's error (Quarantined only). */
    std::string error;
};

/**
 * Completed sweep: the surviving cells in deterministic Table-1
 * order (frames in frame-set order, policies in configured order
 * within each frame), the quarantined cells, plus the aggregation
 * and export methods every harness shares.
 */
class SweepResult
{
  public:
    /** Per-cell scalar metric, e.g. missMetric. */
    using Metric = std::function<double(const RunResult &)>;

    SweepResult() = default;

    /**
     * Compact one outcome per cell, given in sweep order (frame-major,
     * policies in configured order), into the surviving cells and the
     * quarantine manifest.  No outcome may still be Pending.
     */
    SweepResult(std::vector<std::string> policies,
                const RenderScale &scale, const LlcConfig &llc_config,
                std::vector<CellOutcome> outcomes, double wall_seconds,
                unsigned threads_used);

    const std::vector<SweepCell> &cells() const { return cells_; }
    const std::vector<std::string> &policies() const
    {
        return policies_;
    }
    const RenderScale &scale() const { return scale_; }
    const LlcConfig &llcConfig() const { return llcConfig_; }

    /** Cells that failed permanently (empty on a clean sweep). */
    const std::vector<QuarantinedCell> &quarantined() const
    {
        return quarantined_;
    }

    /** Cells restored from a checkpoint journal instead of re-run. */
    std::size_t restoredCells() const { return restoredCells_; }

    /** Wall-clock seconds spent executing the sweep. */
    double wallSeconds() const { return wallSeconds_; }

    /** Worker threads the sweep actually used. */
    unsigned threadsUsed() const { return threadsUsed_; }

    /** Application names in Table 1 order (only those swept). */
    std::vector<std::string> appOrder() const;

    /**
     * Sum @p metric per (app, policy); rows ordered like Table 1.
     */
    std::map<std::string, std::map<std::string, double>>
    totalsByApp(const Metric &metric) const;

    /**
     * Mean over frames of (metric / baseline metric) per policy.
     * Frames whose baseline cell is quarantined contribute no
     * ratios (partial results stay comparable, never silently
     * wrong).
     */
    std::map<std::string, double>
    meanNormalized(const Metric &metric,
                   const std::string &baseline) const;

    /**
     * Print a table of per-app values of @p metric for every policy
     * normalized to @p baseline (the paper's usual presentation),
     * with a final MEAN row averaging the per-frame ratios.
     */
    void printNormalizedTable(std::ostream &os,
                              const std::string &title,
                              const Metric &metric,
                              const std::string &baseline) const;

    /** Machine-readable export (the writers live in report.cc). */
    void writeCsv(std::ostream &os) const;
    void writeJson(std::ostream &os) const;

  private:
    std::vector<std::string> policies_;
    RenderScale scale_;
    LlcConfig llcConfig_;
    std::vector<SweepCell> cells_;
    std::vector<QuarantinedCell> quarantined_;
    std::size_t restoredCells_ = 0;
    double wallSeconds_ = 0.0;
    unsigned threadsUsed_ = 1;
};

/**
 * Builder describing a frames x policies sweep.
 *
 * The sweep is one SweepJobSpec.  The constructor fills it from the
 * environment (GLLC_SCALE, GLLC_FRAMES, GLLC_THREADS,
 * GLLC_FRAME_WINDOW, GLLC_PROGRESS, GLLC_CELL_RETRIES,
 * GLLC_CELL_BACKOFF_MS, GLLC_CELL_TIMEOUT_MS, GLLC_CHECKPOINT,
 * GLLC_RESUME); each setter assigns one field of the spec, and
 * run(), resolve() and fromSpec() never read the environment:
 *
 *   SweepResult r = SweepConfig()
 *                       .policies({"DRRIP", "GSPC"})
 *                       .llcBytes(16ull << 20)
 *                       .threads(8)
 *                       .run();
 */
class SweepConfig
{
  public:
    SweepConfig();

    /** Policies to evaluate, by policySpec registry name. */
    SweepConfig &policies(std::vector<std::string> names);

    /** Policies as explicit specs (registry-free custom policies). */
    SweepConfig &policySpecs(std::vector<PolicySpec> specs);

    /** Unscaled LLC capacity (8 MB baseline by default). */
    SweepConfig &llcBytes(std::uint64_t full_llc_bytes);

    /** Frame subset of Table 1 applications (default: GLLC_FRAMES). */
    SweepConfig &frames(const std::vector<FrameSpec> &frames);

    /** Render scale override (default: GLLC_SCALE). */
    SweepConfig &scale(const RenderScale &scale);

    /** Collect the DRAM trace of every replay (timing benches). */
    SweepConfig &collectDramTrace(bool collect);

    /** Worker threads; 0 = GLLC_THREADS / hardware concurrency. */
    SweepConfig &threads(unsigned count);

    /**
     * Max frames whose traces are held in memory at once; 0 = 2x
     * threads (one frame at one thread: one trace alive, observer
     * rows frame by frame).  DRAM-trace collection narrows the
     * effective window to the thread count, because each in-flight
     * cell then retains a bulky trace.
     */
    SweepConfig &frameWindow(unsigned frames);

    /** Force progress reporting on or off (default: tty autodetect). */
    SweepConfig &progress(bool enabled);

    /** Retry budget after a cell's first failure. */
    SweepConfig &retries(unsigned count);

    /** First retry delay in ms (doubled per attempt). */
    SweepConfig &backoffMs(unsigned ms);

    /**
     * Wall-time budget of one cell attempt in ms (0 off): an overrun
     * is warned about and counted (sweep.cell_timeouts), then left
     * to finish — a replay stopped midway would be corrupt.
     */
    SweepConfig &cellTimeoutMs(unsigned ms);

    /** Checkpoint journal path ("" = no journal). */
    SweepConfig &checkpoint(std::string path);

    /** Restore completed cells from the checkpoint journal. */
    SweepConfig &resume(bool enabled);

    /**
     * Apply the shared command-line options every bench accepts:
     * "--resume" and "--checkpoint <path>".  Unrelated arguments
     * are left for the caller.
     */
    SweepConfig &cliArgs(int argc, char **argv);

    /**
     * Observes each completed cell in deterministic sweep order,
     * e.g. to feed a timing model; the cell's dramTrace and the
     * frame trace are valid during the callback only.  Not invoked
     * for cells restored from a checkpoint.
     */
    using CellObserver = std::function<void(const SweepCell &,
                                            const FrameTrace &)>;

    /** Execute the sweep. */
    SweepResult run(const CellObserver &observer = nullptr) const;

    /** The LLC configuration the sweep will replay against. */
    LlcConfig llcConfig() const { return spec_.llcConfig(); }
    RenderScale scale() const { return spec_.renderScale(); }

    /** Policy display names in configured order. */
    std::vector<std::string> policyNames() const { return spec_.policies; }

    /**
     * The sweep as a fully-defaulted SweepJobSpec: every knob
     * explicit, so fromSpec(resolve()).run() is bit-identical to
     * run().
     */
    SweepJobSpec resolve() const { return spec_; }

    /**
     * A runnable config holding a copy of @p spec; the environment
     * is not consulted.  Unknown policy names are fatal here,
     * unknown application names when the sweep runs; services
     * validate() the spec first and reject bad jobs gracefully.
     */
    static SweepConfig fromSpec(const SweepJobSpec &spec);

  private:
    explicit SweepConfig(SweepJobSpec spec);

    SweepJobSpec spec_;

    /**
     * spec_.policies as runnable specs: the one thing a spec cannot
     * carry is a registry-free policy factory.
     */
    std::vector<PolicySpec> policies_;
};

/**
 * Resolve a requested worker count: 0 falls back to GLLC_THREADS,
 * then to the hardware concurrency.  Shared with the perf harnesses
 * that parallelize outside the sweep engine.
 */
unsigned sweepThreads(unsigned requested = 0);

/** Common metric: total LLC misses (including bypasses). */
double missMetric(const RunResult &r);

} // namespace gllc

#endif // GLLC_ANALYSIS_SWEEP_HH
