#include "gpu/timing_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "dram/dram_model.hh"

namespace gllc
{

FrameTiming
timeFrame(const FrameWork &work, const LlcStats &llc_stats,
          const std::vector<MemAccess> &dram_trace,
          const GpuConfig &config)
{
    FrameTiming t;

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
    const double llc_accesses =
        static_cast<double>(llc_stats.totalAccesses());
    t.llcCycles = llc_accesses / config.llcBanks
        * (config.coreClockGhz / config.llcClockGhz);

    // The execution-bound portion of the frame: the shader engine
    // issues memory traffic over this window.
    const double issue_span = std::max<double>(
        1.0, static_cast<double>(work.issueCycles));
    const double base =
        std::max({t.computeCycles, t.samplerCycles, t.llcCycles});

    // DRAM schedule: arrivals spread over the execution window; the
    // schedule length beyond the window is the memory overhang.  The
    // trace is fed to the model as it is read, with no request copy.
    DramModel dram(config.dram);
    const double gpu_to_dram =
        (config.dram.clockMhz / 1000.0) / config.coreClockGhz;
    const double stretch = std::max(1.0, base / issue_span);
    const auto arrival_of = [&](std::uint32_t cycle) {
        return static_cast<std::uint64_t>(
            static_cast<double>(cycle) * stretch * gpu_to_dram);
    };

    // Optional display engine: scan-out reads the front buffer at
    // the refresh rate, a constant background load on the memory
    // system, interleaved by arrival time over the window up to the
    // last trace arrival.  The arrival map is monotone in the cycle,
    // so that arrival is the one of the largest cycle stamp.
    std::uint64_t scan_blocks = 0;
    double window_dram = 0.0;
    if (config.scanoutHz > 0.0 && config.scanoutBytes > 0
        && !dram_trace.empty()) {
        const std::uint32_t last_cycle =
            std::max_element(dram_trace.begin(), dram_trace.end(),
                             [](const MemAccess &x, const MemAccess &y) {
                                 return x.cycle < y.cycle;
                             })
                ->cycle;
        window_dram = static_cast<double>(arrival_of(last_cycle)) + 1.0;
        const double window_s = window_dram
            / (config.dram.clockMhz * 1e6);
        scan_blocks = static_cast<std::uint64_t>(
            window_s * config.scanoutHz
            * static_cast<double>(config.scanoutBytes) / kBlockBytes);
    }
    // Front buffer placed beyond the render surfaces.
    const Addr scan_base = 1ull << 40;
    const std::uint64_t scan_span =
        std::max<std::uint64_t>(config.scanoutBytes, kBlockBytes);
    const auto scan_arrival = [&](std::uint64_t b) {
        return static_cast<std::uint64_t>(
            static_cast<double>(b) * window_dram
            / static_cast<double>(scan_blocks));
    };

    const DramStats dstats = dram.simulate(
        dram_trace.size() + scan_blocks,
        [&](DramModel::Schedule &schedule) {
            constexpr std::uint64_t kNone = ~0ull;
            std::uint64_t b = 0;
            std::uint64_t scan_at =
                scan_blocks > 0 ? scan_arrival(0) : kNone;
            // Scan-out reads arriving strictly before @p limit; a
            // trace request goes ahead of a scan-out read with the
            // same arrival.
            const auto scan_before = [&](std::uint64_t limit) {
                while (scan_at < limit) {
                    schedule.service(
                        scan_base + (b * kBlockBytes) % scan_span,
                        scan_at, false);
                    scan_at = ++b < scan_blocks ? scan_arrival(b)
                                                : kNone;
                }
            };
            std::uint64_t last = 0;
            for (const MemAccess &a : dram_trace) {
                // Trace order is service order; keep arrivals
                // monotone even if cycle stamps repeat.
                const std::uint64_t arrival =
                    std::max(arrival_of(a.cycle), last);
                last = arrival;
                scan_before(arrival);
                schedule.service(a.addr, arrival, a.isWrite);
            }
            scan_before(kNone);
        });
    t.dramCycles =
        static_cast<double>(dstats.finishCycle) / gpu_to_dram;
    t.rowHitRate = dstats.requests == 0
        ? 0.0
        : static_cast<double>(dstats.rowHits)
            / static_cast<double>(dstats.requests);

    const double overhang = std::max(0.0, t.dramCycles - base);

    // Exposed latency: each miss stalls one thread context for the
    // LLC round trip plus an unloaded DRAM access (queueing is
    // already captured by the schedule); T contexts overlap stalls.
    const double llc_latency_core_cycles =
        config.llcLatencyLlcCycles
        * (config.coreClockGhz / config.llcClockGhz);
    const double unloaded_dram =
        (config.dram.tRcd + config.dram.tCas
         + config.dram.burstCycles())
        / gpu_to_dram;
    const double misses =
        static_cast<double>(llc_stats.totalMisses());
    t.exposedCycles = misses * (llc_latency_core_cycles + unloaded_dram)
        / config.totalThreads();

    // Thread switching hides part of the memory overhang (Section
    // 5.3); the rest is exposed frame time.
    t.frameCycles =
        base + config.hidingBeta * overhang + t.exposedCycles;
    t.fps = config.coreClockGhz * 1e9 / std::max(1.0, t.frameCycles);
    return t;
}

} // namespace gllc
