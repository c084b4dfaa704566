/**
 * @file
 * Full GPU simulation of one frame: workload -> render caches ->
 * LLC(policy) -> DRAM -> frame time.
 */

#ifndef GLLC_GPU_GPU_SIMULATOR_HH
#define GLLC_GPU_GPU_SIMULATOR_HH

#include <string>

#include "analysis/offline_sim.hh"
#include "gpu/timing_model.hh"
#include "workload/frame_renderer.hh"

namespace gllc
{

/** Outcome of simulating one frame end to end. */
struct FrameSimResult
{
    FrameTiming timing;
    LlcStats llcStats;
};

/**
 * Simulate one already-rendered frame trace under @p policy on
 * @p config.  The LLC geometry is taken from the config, scaled by
 * @p scale to match the trace.  Nothing here reads a
 * characterization, so the replay runs without the Characterizer.
 * Without scan-out the replay streams its DRAM traffic straight into
 * the frame timer; with scan-out it collects the traffic for
 * timeFrame().  Both give the same result.
 */
FrameSimResult simulateFrame(const FrameTrace &trace,
                             const PolicySpec &policy,
                             const GpuConfig &config,
                             const RenderScale &scale);

} // namespace gllc

#endif // GLLC_GPU_GPU_SIMULATOR_HH
