/**
 * @file
 * Offline LLC simulator: replay one frame trace through a policy.
 *
 * The paper's characterization and miss-count results come from "an
 * offline cache simulator, which ... digests the LLC load/store
 * access trace collected from the detailed simulator for each
 * frame" (Section 2).  runTrace() is that component: it builds a
 * BankedLlc for one policy and replays the trace through the access
 * path instantiated on that policy's class (analysis/policy_types.hh),
 * with the Characterizer as observer only when RunOptions asks for it.
 */

#ifndef GLLC_ANALYSIS_OFFLINE_SIM_HH
#define GLLC_ANALYSIS_OFFLINE_SIM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/characterizer.hh"
#include "analysis/policy_table.hh"
#include "cache/banked_llc.hh"
#include "trace/frame_trace.hh"

namespace gllc
{

/** Result of replaying one frame under one policy. */
struct RunResult
{
    LlcStats stats;

    /** Present only when RunOptions::characterize was on. */
    std::optional<Characterization> characterization;
    FillHistogram fills;

    /**
     * DRAM-bound traffic in trace order (only when requested): miss
     * fill reads, bypassed accesses, and dirty writebacks.  Cycle
     * stamps are inherited from the triggering access.
     */
    std::vector<MemAccess> dramTrace;
};

/** Options for a replay. */
struct RunOptions
{
    /** Collect RunResult::dramTrace (needed for timing runs). */
    bool collectDramTrace = false;

    /**
     * Run the Characterizer and fill RunResult::characterization.
     * Off, the replay observes nothing (NullAccessObserver), which
     * is what a caller that reads only statistics wants.
     */
    bool characterize = false;
};

/**
 * Replay @p trace through an LLC of the given configuration managed
 * by @p spec (building the Belady oracle when the policy needs it).
 */
RunResult runTrace(const FrameTrace &trace, const PolicySpec &spec,
                   const LlcConfig &llc_config,
                   const RunOptions &options = {});

/** LLC configuration scaled from the paper's (capacity / scale^2). */
LlcConfig scaledLlcConfig(std::uint64_t full_capacity_bytes,
                          std::uint32_t pixel_scale);

} // namespace gllc

#endif // GLLC_ANALYSIS_OFFLINE_SIM_HH
