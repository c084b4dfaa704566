#include "gpu/gpu_simulator.hh"

namespace gllc
{

FrameSimResult
simulateFrame(const FrameTrace &trace, const PolicySpec &policy,
              const GpuConfig &config, const RenderScale &scale)
{
    LlcConfig llc =
        scaledLlcConfig(config.llcCapacityBytes, scale.pixelScale());
    llc.ways = config.llcWays;
    llc.banks = config.llcBanks;

    RunOptions options;
    options.collectDramTrace = true;
    options.characterize = false;
    const RunResult run = runTrace(trace, policy, llc, options);

    FrameSimResult result;
    result.llcStats = run.stats;
    result.timing =
        timeFrame(trace.work, run.stats, run.dramTrace, config);
    return result;
}

} // namespace gllc
