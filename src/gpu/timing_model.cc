#include "gpu/timing_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gllc
{

namespace
{

/** Front buffer placed beyond the render surfaces. */
constexpr Addr kScanBase = 1ull << 40;

} // namespace

FrameTimer::FrameTimer(const FrameWork &work, std::uint64_t llc_accesses,
                       const GpuConfig &config)
    : config_(config), dram_(config.dram), schedule_(dram_)
{
    FrameTiming &t = bounds_;

    // Compute bound: pixel + vertex shading through the ALU pipes at
    // the sustained (not peak) rate.
    const double sustained_ops = static_cast<double>(config.shaderCores)
        * config.opsPerCoreCycle * config.shaderEfficiency;
    const double vertex_ops =
        static_cast<double>(work.verticesShaded) * 24.0;
    t.computeCycles =
        (static_cast<double>(work.shaderOps) + vertex_ops)
        / sustained_ops;

    // Sampler bound: fixed-function texel fill rate.
    t.samplerCycles = static_cast<double>(work.texelRequests)
        / (static_cast<double>(config.samplers)
           * config.texelsPerSamplerCycle);

    // LLC occupancy bound: one access per bank per LLC cycle.
    t.llcCycles = static_cast<double>(llc_accesses) / config.llcBanks
        * (config.coreClockGhz / config.llcClockGhz);

    // The execution-bound portion of the frame: the shader engine
    // issues memory traffic over this window.
    const double issue_span = std::max<double>(
        1.0, static_cast<double>(work.issueCycles));
    base_ = std::max({t.computeCycles, t.samplerCycles, t.llcCycles});

    // DRAM schedule: arrivals spread over the execution window; the
    // schedule length beyond the window is the memory overhang.
    gpuToDram_ = (config.dram.clockMhz / 1000.0) / config.coreClockGhz;
    stretch_ = std::max(1.0, base_ / issue_span);
}

void
FrameTimer::scanOutUntil(std::uint32_t last_cycle)
{
    // Optional display engine: scan-out reads the front buffer at
    // the refresh rate, a constant background load on the memory
    // system, interleaved by arrival time over the window up to the
    // last request arrival.  The arrival map is monotone in the
    // cycle, so that arrival is the one of the largest cycle stamp.
    GLLC_ASSERT(config_.scanoutEnabled() && scanBlocks_ == 0);
    scanWindow_ = static_cast<double>(arrivalOf(last_cycle)) + 1.0;
    const double window_s = scanWindow_ / (config_.dram.clockMhz * 1e6);
    scanBlocks_ = static_cast<std::uint64_t>(
        window_s * config_.scanoutHz
        * static_cast<double>(config_.scanoutBytes) / kBlockBytes);
    scanAt_ = scanArrival(0);
}

std::uint64_t
FrameTimer::scanArrival(std::uint64_t b) const
{
    return b < scanBlocks_
        ? static_cast<std::uint64_t>(static_cast<double>(b) * scanWindow_
                                     / static_cast<double>(scanBlocks_))
        : kNoScanOut;
}

void
FrameTimer::scanOutNext()
{
    const std::uint64_t span =
        std::max<std::uint64_t>(config_.scanoutBytes, kBlockBytes);
    schedule_.service(kScanBase + (scanNext_ * kBlockBytes) % span,
                      scanAt_, false);
    scanAt_ = scanArrival(++scanNext_);
}

FrameTiming
FrameTimer::finish(const LlcStats &llc_stats)
{
    scanOutBefore(kNoScanOut);
    const DramStats dstats = schedule_.finish();

    FrameTiming t = bounds_;
    t.dramCycles = static_cast<double>(dstats.finishCycle) / gpuToDram_;
    t.rowHitRate = dstats.requests == 0
        ? 0.0
        : static_cast<double>(dstats.rowHits)
            / static_cast<double>(dstats.requests);

    const double overhang = std::max(0.0, t.dramCycles - base_);

    // Exposed latency: each miss stalls one thread context for the
    // LLC round trip plus an unloaded DRAM access (queueing is
    // already captured by the schedule); T contexts overlap stalls.
    const double llc_latency_core_cycles =
        config_.llcLatencyLlcCycles
        * (config_.coreClockGhz / config_.llcClockGhz);
    const double unloaded_dram =
        (config_.dram.tRcd + config_.dram.tCas
         + config_.dram.burstCycles())
        / gpuToDram_;
    const double misses =
        static_cast<double>(llc_stats.totalMisses());
    t.exposedCycles = misses * (llc_latency_core_cycles + unloaded_dram)
        / config_.totalThreads();

    // Thread switching hides part of the memory overhang (Section
    // 5.3); the rest is exposed frame time.
    t.frameCycles =
        base_ + config_.hidingBeta * overhang + t.exposedCycles;
    t.fps = config_.coreClockGhz * 1e9 / std::max(1.0, t.frameCycles);
    return t;
}

FrameTiming
timeFrame(const FrameWork &work, const LlcStats &llc_stats,
          const std::vector<MemAccess> &dram_trace,
          const GpuConfig &config)
{
    FrameTimer timer(work, llc_stats.totalAccesses(), config);
    if (config.scanoutEnabled() && !dram_trace.empty()) {
        timer.scanOutUntil(
            std::max_element(dram_trace.begin(), dram_trace.end(),
                             [](const MemAccess &x, const MemAccess &y) {
                                 return x.cycle < y.cycle;
                             })
                ->cycle);
    }
    for (const MemAccess &a : dram_trace)
        timer.request(a.addr, a.isWrite, a.cycle);
    return timer.finish(llc_stats);
}

} // namespace gllc
