/**
 * @file
 * SweepJobSpec: the serializable, plain-data description of a sweep.
 *
 * A sweep used to exist only as a SweepConfig builder captured
 * in-process — fine for a bench binary, useless for a service that
 * must receive work over a socket, deduplicate identical requests
 * across tenants, and key a result store.  SweepJobSpec is the job
 * API those flows share:
 *
 *  - plain data (policy names, frame references, scalar knobs): no
 *    factories, no pointers, nothing that cannot round-trip;
 *  - canonical JSON: toJson() emits one fixed field order with no
 *    whitespace variance, so equal specs serialize byte-identically
 *    and parseSweepJobSpec(toJson()) is the identity;
 *  - stable hashes: contentHash() covers exactly the fields that
 *    determine replay results (policies, frames, scale, LLC size,
 *    whether cells are characterized) —
 *    execution knobs like thread counts or retry budgets are
 *    excluded because results are bit-identical across them — and
 *    traceHash() covers the subset that determines the rendered
 *    frame traces.  (trace hash, content hash) is the key of the
 *    service's content-addressed result store.
 *
 * A SweepConfig builder holds its sweep as one SweepJobSpec:
 * SweepConfig::resolve() returns it, SweepConfig::fromSpec() wraps a
 * copy, so `fromSpec(cfg.resolve()).run()` is bit-identical to
 * `cfg.run()`.  The helpers below (renderScale(), llcConfig(),
 * policySpecs(), frameSpecs(), checkpointMeta()) are the one
 * translation from a spec to the runtime objects a sweep replays
 * with; the in-process engine, the gllcd shard runner and its
 * workers all go through them.  Serializable jobs are limited to
 * registry policies (policySpec() names); in-process sweeps with
 * custom policy factories still run, they just cannot be shipped to
 * the service.
 */

#ifndef GLLC_ANALYSIS_JOB_SPEC_HH
#define GLLC_ANALYSIS_JOB_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/checkpoint.hh"
#include "analysis/offline_sim.hh"
#include "common/result.hh"
#include "workload/frame_set.hh"
#include "workload/trace_identity.hh"

namespace gllc
{

/** One frame of a job, by application name (serializable). */
using SweepJobFrame = FrameRef;

/** The plain-data description of one sweep job. */
struct SweepJobSpec
{
    /**
     * Format version pinned into the canonical JSON and hashes.
     * Version 2 added `characterize`; a version 1 document parses as
     * a characterized job, since version 1 characterized every cell.
     */
    static constexpr std::uint32_t kVersion = 2;

    // --- identity: these determine the replay results -----------

    /** Policies in evaluation order, by policySpec registry name. */
    std::vector<std::string> policies;

    /** Frames in sweep order. */
    std::vector<SweepJobFrame> frames;

    /** Linear render-scale divisor (RenderScale::linear). */
    std::uint32_t scaleLinear = 4;

    /** Page-scatter model switch (RenderScale::scatterPages). */
    bool scatterPages = true;

    /** Unscaled LLC capacity in bytes (8 MB paper baseline). */
    std::uint64_t llcBytes = 8ull << 20;

    /**
     * Declared output: run the Characterizer in every cell (the
     * Section 2 reuse study, Figs. 4-9 and 13).  Off, cells replay
     * unobserved and carry statistics and fills only.
     */
    bool characterize = false;

    // --- execution knobs: change how, never what, is computed ---
    //
    // These initializers are the only defaults; a SweepConfig starts
    // from them and overrides each one whose GLLC_* knob is set
    // (analysis/sweep.hh).

    bool collectDramTrace = false;
    std::uint32_t threads = 1;      ///< >= 1 (0 runs as 1)
    std::uint32_t frameWindow = 0;  ///< 0 = 2x threads (1 at 1 thread)
    bool progress = false;
    std::uint32_t retries = 2;      ///< re-attempts after a failure
    std::uint32_t backoffMs = 25;   ///< first retry delay, doubled
    /**
     * Wall-time budget of one cell attempt, 0 = none.  An overrun is
     * counted and warned about; the gllcd shard runner also SIGKILLs
     * the worker and fails the attempt, the in-process engine lets
     * it finish (cell_attempts.hh).
     */
    std::uint32_t cellTimeoutMs = 0;
    std::string checkpoint;         ///< journal path; "" = off
    bool resume = false;            ///< restore cells from checkpoint

    bool operator==(const SweepJobSpec &other) const = default;

    // --- the runtime objects a spec describes ---

    /** The render scale of the frame traces. */
    RenderScale renderScale() const;

    /** The LLC replayed against: llcBytes scaled to the render scale. */
    LlcConfig llcConfig() const;

    /** Registry specs of the policies, in order (InvalidArgument). */
    [[nodiscard]] Result<std::vector<PolicySpec>> policySpecs() const;

    /** The frames against the Table 1 profiles (InvalidArgument). */
    [[nodiscard]] Result<std::vector<FrameSpec>> frameSpecs() const;

    /** The header of this sweep's checkpoint journal. */
    CheckpointMeta checkpointMeta() const;

    /** Canonical JSON of the whole spec (fixed field order). */
    std::string toJson() const;

    /** Canonical JSON of the identity fields only (hash input). */
    std::string identityJson() const;

    /**
     * Stable content hash over identityJson().  Pinned by golden
     * tests: changing a serialized key or the field order is a
     * format break and must fail loudly there.
     */
    std::uint64_t contentHash() const;

    /**
     * Stable hash of the trace-determining subset (frames + scale):
     * two specs with equal traceHash() replay the same rendered
     * traces, whatever their policies or LLC size.  It is
     * traceSetHash() (workload/trace_identity.hh), the identity that
     * also names each cached trace file.
     */
    std::uint64_t traceHash() const;

    /**
     * Check that the spec can run: nonempty policies and frames,
     * every application and policy name known to the registries.
     * InvalidArgument with a precise context otherwise — the service
     * rejects the job instead of fatal()ing the daemon.
     */
    [[nodiscard]] Result<Unit> validate() const;
};

/**
 * Parse a spec from JSON (any field order).  Identity fields are
 * required; execution knobs default as the struct does.  Unknown
 * keys are rejected (InvalidArgument) so a misspelled knob cannot
 * silently fall back to a default, and structurally broken JSON
 * surfaces as Corrupt.
 */
[[nodiscard]] Result<SweepJobSpec>
parseSweepJobSpec(const std::string &json);

} // namespace gllc

#endif // GLLC_ANALYSIS_JOB_SPEC_HH
