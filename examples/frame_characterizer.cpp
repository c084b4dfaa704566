/**
 * @file
 * Example: reuse-profile characterization of a rendered frame.
 *
 * Renders one frame of each requested application, replays it under
 * Belady's optimal, DRRIP and NRU, and prints the Section 2 style
 * characterization: stream mix, per-stream hit rates, inter- vs
 * intra-stream texture reuse, epoch death ratios.
 *
 * Usage: frame_characterizer [app ...]
 *   GLLC_SCALE=N to change the machine scale (default 4).
 */

#include <iostream>

#include "analysis/offline_sim.hh"
#include "common/stats.hh"
#include "workload/frame_set.hh"

using namespace gllc;

namespace
{

void
characterizeApp(const AppProfile &app, const RenderScale &scale,
                const LlcConfig &llc)
{
    const FrameTrace trace = renderFrame(app, 0, scale);

    std::cout << "== " << app.name << " (" << app.width << "x"
              << app.height << " / scale " << scale.linear << ") ==\n";
    std::cout << "LLC accesses: " << trace.accesses.size()
              << ", distinct blocks: " << trace.distinctBlocks()
              << ", LLC blocks: "
              << llc.capacityBytes / kBlockBytes << "\n";

    // Stream mix (Figure 4).
    const auto counts = trace.streamCounts();
    std::cout << "stream mix:";
    for (std::size_t s = 0; s < kNumStreams; ++s) {
        const double pct = 100.0 * static_cast<double>(counts[s])
            / static_cast<double>(trace.accesses.size());
        std::cout << "  " << streamName(static_cast<StreamType>(s))
                  << " " << fmt(pct, 1) << "%";
    }
    std::cout << "\n";

    RunOptions options;
    options.characterize = true;
    for (const std::string policy : {"Belady", "DRRIP", "NRU"}) {
        const RunResult r =
            runTrace(trace, policySpec(policy), llc, options);
        const Characterization &ch = r.characterization.value();
        std::cout << policy << ": misses "
                  << r.stats.totalMisses() << "  hitrates TEX "
                  << fmtPct(r.stats.hitRate(StreamType::Texture))
                  << " RT "
                  << fmtPct(r.stats.hitRate(StreamType::RenderTarget))
                  << " Z " << fmtPct(r.stats.hitRate(StreamType::Z))
                  << "\n";
        std::cout << "   tex hits inter/intra: " << ch.interTexHits
                  << "/" << ch.intraTexHits
                  << "  RT cons rate: "
                  << fmtPct(ch.rtConsumptionRate())
                  << "  epoch hits E0/E1/E2/E3+: "
                  << ch.texEpochHits[0] << "/" << ch.texEpochHits[1]
                  << "/" << ch.texEpochHits[2] << "/"
                  << ch.texEpochHits[3] << "\n";
        std::cout << "   tex death E0/E1/E2: "
                  << fmt(ch.texDeathRatio(0), 2) << "/"
                  << fmt(ch.texDeathRatio(1), 2) << "/"
                  << fmt(ch.texDeathRatio(2), 2)
                  << "  z death E0/E1/E2: "
                  << fmt(ch.zDeathRatio(0), 2) << "/"
                  << fmt(ch.zDeathRatio(1), 2) << "/"
                  << fmt(ch.zDeathRatio(2), 2) << "\n";
    }
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const RenderScale scale = scaleFromEnv();
    const LlcConfig llc =
        scaledLlcConfig(8ull << 20, scale.pixelScale());

    if (argc > 1) {
        for (int i = 1; i < argc; ++i)
            characterizeApp(findApp(argv[i]), scale, llc);
    } else {
        for (const AppProfile &app : paperApps())
            characterizeApp(app, scale, llc);
    }
    return 0;
}
