#include "analysis/offline_sim.hh"

#include <algorithm>

#include "analysis/policy_types.hh"
#include "analysis/replay_loop.hh"

namespace gllc
{

namespace
{

/** replay() on a Characterizer, through the policy-class dispatch. */
Characterization
replayCharacterized(BankedLlc &llc, const std::vector<MemAccess> &trace,
                    std::size_t count, std::vector<MemAccess> *dram)
{
    Characterizer characterizer(llc.geometry().totalBlocks());
    withPolicyClass(llc, [&](auto policy_class) {
        detail::replay<typename decltype(policy_class)::type>(
            llc, trace, count, characterizer, detail::TraceSink(dram));
    });
    return characterizer.result();
}

} // namespace

RunResult
runTrace(const FrameTrace &trace, const PolicySpec &spec,
         const LlcConfig &llc_config, const RunOptions &options)
{
    RunResult result;
    std::vector<MemAccess> *dram = nullptr;
    if (options.collectDramTrace) {
        // An access adds at most two entries (its fill or bypass, and
        // one writeback), so this one allocation holds the whole
        // replay's traffic.
        result.dramTrace.reserve(2 * trace.accesses.size());
        dram = &result.dramTrace;
    }
    result.stats = detail::replayFrame(
        trace, spec, llc_config, [&](BankedLlc &llc, std::size_t count) {
            if (options.characterize) {
                result.characterization = replayCharacterized(
                    llc, trace.accesses, count, dram);
            } else {
                detail::replayUnobserved(llc, trace.accesses, count, dram);
            }
            result.fills = llc.mergedFillHistogram();
        });
    return result;
}

LlcConfig
scaledLlcConfig(std::uint64_t full_capacity_bytes,
                std::uint32_t pixel_scale)
{
    LlcConfig config;
    config.capacityBytes =
        std::max<std::uint64_t>(full_capacity_bytes / pixel_scale,
                                64 * 1024);
    config.ways = 16;
    config.banks = 4;
    return config;
}

} // namespace gllc
