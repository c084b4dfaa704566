/**
 * @file
 * End-to-end integration tests: the paper's headline results must
 * hold in aggregate on (a reduced version of) the workload set.
 *
 * These use a coarse machine scale (GLLC-independent, fixed here) to
 * stay fast; the full 52-frame runs live in bench/.
 */

#include <gtest/gtest.h>

#include <map>

#include "analysis/offline_sim.hh"
#include "gpu/gpu_simulator.hh"
#include "workload/frame_set.hh"

using namespace gllc;

namespace
{

RenderScale
testScale()
{
    RenderScale s;
    s.linear = 8;
    return s;
}

/** One frame of each of the first @p napps applications. */
std::vector<FrameTrace> &
frames(std::size_t napps = 6)
{
    static std::vector<FrameTrace> traces = [napps] {
        std::vector<FrameTrace> t;
        for (std::size_t i = 0; i < napps; ++i)
            t.push_back(renderFrame(paperApps()[i], 0, testScale()));
        return t;
    }();
    return traces;
}

LlcConfig
testLlc()
{
    return scaledLlcConfig(8ull << 20, testScale().pixelScale());
}

std::map<std::string, std::uint64_t>
missTotals(const std::vector<std::string> &policies)
{
    std::map<std::string, std::uint64_t> misses;
    for (const FrameTrace &t : frames()) {
        for (const std::string &p : policies)
            misses[p] +=
                runTrace(t, policySpec(p), testLlc()).stats
                    .totalMisses();
    }
    return misses;
}

} // namespace

TEST(Integration, PolicyOrderingMatchesPaper)
{
    // Figure 12's ordering in aggregate: Belady < GSPC+UCD <= GSPC <
    // GSPZTC < DRRIP, and NRU no better than DRRIP except for noise
    // (the paper's Figure 1; at this reduced scale the NRU/DRRIP gap
    // can shrink, so allow a small tolerance).
    const auto m = missTotals({"NRU", "DRRIP", "GSPZTC", "GSPC",
                               "GSPC+UCD", "Belady"});
    EXPECT_LT(m.at("Belady"), m.at("GSPC+UCD"));
    EXPECT_LE(m.at("GSPC+UCD"), m.at("GSPC"));
    EXPECT_LT(m.at("GSPC"), m.at("GSPZTC"));
    EXPECT_LT(m.at("GSPZTC"), m.at("DRRIP"));
    EXPECT_LT(static_cast<double>(m.at("DRRIP")),
              static_cast<double>(m.at("NRU")) * 1.08);
}

TEST(Integration, BeladyLeavesLargeGap)
{
    // Figure 1: Belady saves a very large fraction of DRRIP misses.
    const auto m = missTotals({"DRRIP", "Belady"});
    const double ratio = static_cast<double>(m.at("Belady"))
        / static_cast<double>(m.at("DRRIP"));
    EXPECT_LT(ratio, 0.85);
}

TEST(Integration, GspcSavesVisibleMisses)
{
    const auto m = missTotals({"DRRIP", "GSPC+UCD"});
    const double ratio = static_cast<double>(m.at("GSPC+UCD"))
        / static_cast<double>(m.at("DRRIP"));
    EXPECT_LT(ratio, 0.97);
}

TEST(Integration, ConsumptionRateOrdering)
{
    // Figure 6 / 13: OPT consumes far more RT blocks than DRRIP,
    // which consumes more than NRU; the statically protecting
    // GSPZTC+TSE recovers much of the OPT gap.  The render-to-
    // texture distances only fit the LLC at the default scale, so
    // this test runs at scale 4 on a 3-app subset.
    RenderScale scale;
    scale.linear = 4;
    const LlcConfig llc =
        scaledLlcConfig(8ull << 20, scale.pixelScale());
    std::map<std::string, double> cons, prod;
    for (std::size_t i = 0; i < 3; ++i) {
        const FrameTrace t = renderFrame(paperApps()[i], 0, scale);
        for (const char *p :
             {"NRU", "DRRIP", "GSPZTC+TSE", "Belady"}) {
            const Characterization ch =
                runTrace(t, policySpec(p), llc, {.characterize = true})
                    .characterization.value();
            cons[p] += static_cast<double>(ch.rtConsumptions);
            prod[p] += static_cast<double>(ch.rtProductions);
        }
    }
    const auto rate = [&](const char *p) {
        return cons.at(p) / prod.at(p);
    };
    EXPECT_GT(rate("Belady"), rate("GSPZTC+TSE"));
    EXPECT_GT(rate("GSPZTC+TSE"), rate("DRRIP"));
    EXPECT_GT(rate("DRRIP"), rate("NRU"));
}

TEST(Integration, TextureEpochShape)
{
    // Figure 7 under Belady: E0 dominates the intra-stream hits and
    // has a high death ratio.
    Characterization ch;
    for (const FrameTrace &t : frames())
        ch.merge(runTrace(t, policySpec("Belady"), testLlc(),
                          {.characterize = true})
                     .characterization.value());
    EXPECT_GT(ch.texEpochHits[0], ch.texEpochHits[1]);
    EXPECT_GT(ch.texEpochHits[1], ch.texEpochHits[2]);
    EXPECT_GT(ch.texDeathRatio(0), 0.6);
}

TEST(Integration, ZEpochDeathDecreases)
{
    // Figure 9: the Z stream's death ratio falls with the epoch,
    // justifying a single collective Z reuse probability.
    Characterization ch;
    for (const FrameTrace &t : frames())
        ch.merge(runTrace(t, policySpec("Belady"), testLlc(),
                          {.characterize = true})
                     .characterization.value());
    EXPECT_GT(ch.zDeathRatio(0), ch.zDeathRatio(2));
}

TEST(Integration, GspcImprovesTextureHitRate)
{
    LlcStats drrip, gspc;
    for (const FrameTrace &t : frames()) {
        drrip.merge(runTrace(t, policySpec("DRRIP"), testLlc()).stats);
        gspc.merge(
            runTrace(t, policySpec("GSPC+UCD"), testLlc()).stats);
    }
    EXPECT_GT(gspc.hitRate(StreamType::Texture),
              drrip.hitRate(StreamType::Texture));
}

TEST(Integration, EndToEndGpuSimulationSpeedsUp)
{
    // Figure 15's direction: GSPC+UCD renders frames faster than
    // DRRIP+UCD in aggregate.  Run at the default (scale 4) machine
    // where GSPC's learning has its intended sample population.
    RenderScale scale;
    scale.linear = 4;
    const GpuConfig gpu = GpuConfig::baseline();
    double drrip_cycles = 0, gspc_cycles = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        const FrameTrace t = renderFrame(paperApps()[i], 0, scale);
        drrip_cycles += simulateFrame(t, policySpec("DRRIP+UCD"), gpu,
                                      scale)
                            .timing.frameCycles;
        gspc_cycles +=
            simulateFrame(t, policySpec("GSPC+UCD"), gpu, scale)
                .timing.frameCycles;
    }
    EXPECT_LT(gspc_cycles, drrip_cycles);
}

TEST(Integration, OfflineAndGpuSimulatorsAgreeOnLlcStats)
{
    // The paper validated its offline cache simulator against the
    // detailed simulator's LLC; our analog: runTrace and
    // simulateFrame must produce identical LLC statistics for the
    // same trace/policy/geometry.
    const FrameTrace &t = frames(1).front();
    const GpuConfig gpu = GpuConfig::baseline();
    const FrameSimResult full =
        simulateFrame(t, policySpec("GSPC+UCD"), gpu, testScale());
    const RunResult offline =
        runTrace(t, policySpec("GSPC+UCD"), testLlc());
    EXPECT_EQ(full.llcStats.totalMisses(),
              offline.stats.totalMisses());
    EXPECT_EQ(full.llcStats.totalHits(), offline.stats.totalHits());
    EXPECT_EQ(full.llcStats.writebacks, offline.stats.writebacks);
    for (std::size_t s = 0; s < kNumStreams; ++s) {
        EXPECT_EQ(full.llcStats.stream[s].hits,
                  offline.stats.stream[s].hits);
        EXPECT_EQ(full.llcStats.stream[s].bypasses,
                  offline.stats.stream[s].bypasses);
    }
}

TEST(Integration, BiggerLlcHelpsEveryPolicy)
{
    for (const char *policy : {"DRRIP", "GSPC"}) {
        std::uint64_t small = 0, big = 0;
        for (const FrameTrace &t : frames(4)) {
            small += runTrace(t, policySpec(policy),
                              scaledLlcConfig(8ull << 20, 64))
                         .stats.totalMisses();
            big += runTrace(t, policySpec(policy),
                            scaledLlcConfig(16ull << 20, 64))
                       .stats.totalMisses();
        }
        EXPECT_LT(big, small) << policy;
    }
}
