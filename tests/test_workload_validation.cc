/**
 * @file
 * Workload validation: per-application shape checks against the
 * paper's characterization (Section 2).  These guard the calibrated
 * application profiles — if a generator change breaks the stream
 * mix, the consumption topology or a profile's distinguishing
 * feature, these tests fail before the benches drift.
 *
 * One frame per application at the default scale; results are
 * computed once and shared across tests.
 */

#include <gtest/gtest.h>

#include <map>

#include "analysis/offline_sim.hh"
#include "workload/frame_set.hh"

using namespace gllc;

namespace
{

struct AppData
{
    FrameTrace trace;
    RunResult belady;
    RunResult drrip;
};

const std::map<std::string, AppData> &
data()
{
    static const std::map<std::string, AppData> d = [] {
        RenderScale scale;
        scale.linear = 4;
        const LlcConfig llc =
            scaledLlcConfig(8ull << 20, scale.pixelScale());
        std::map<std::string, AppData> m;
        for (const AppProfile &app : paperApps()) {
            AppData entry;
            entry.trace = renderFrame(app, 0, scale);
            entry.belady = runTrace(entry.trace, policySpec("Belady"),
                                    llc, {.characterize = true});
            entry.drrip = runTrace(entry.trace, policySpec("DRRIP"),
                                   llc, {.characterize = true});
            m.emplace(app.name, std::move(entry));
        }
        return m;
    }();
    return d;
}

double
streamShare(const FrameTrace &t, StreamType s)
{
    const auto counts = t.streamCounts();
    return static_cast<double>(counts[static_cast<std::size_t>(s)])
        / static_cast<double>(t.accesses.size());
}

double
consumption(const RunResult &r)
{
    return r.characterization.value().rtConsumptionRate();
}

} // namespace

TEST(WorkloadValidation, RtAndTexDominateEveryApp)
{
    for (const auto &[name, d] : data()) {
        const double rt_tex =
            streamShare(d.trace, StreamType::RenderTarget)
            + streamShare(d.trace, StreamType::Texture);
        EXPECT_GT(rt_tex, 0.55) << name;
        EXPECT_LT(rt_tex, 0.90) << name;
    }
}

TEST(WorkloadValidation, ZStreamShareInPaperRange)
{
    for (const auto &[name, d] : data()) {
        const double z = streamShare(d.trace, StreamType::Z);
        EXPECT_GT(z, 0.04) << name;
        EXPECT_LT(z, 0.20) << name;
    }
}

TEST(WorkloadValidation, DisplayShareSmall)
{
    for (const auto &[name, d] : data()) {
        const double disp = streamShare(d.trace, StreamType::Display);
        EXPECT_GT(disp, 0.01) << name;
        EXPECT_LT(disp, 0.12) << name;
    }
}

TEST(WorkloadValidation, StencilAppsMatchTable)
{
    for (const auto &[name, d] : data()) {
        const double stc = streamShare(d.trace, StreamType::Stencil);
        if (findApp(name).usesStencil)
            EXPECT_GT(stc, 0.01) << name;
        else
            EXPECT_EQ(stc, 0.0) << name;
    }
}

TEST(WorkloadValidation, HeavenHasTheLargestTrace)
{
    // 2560x1600: the paper's largest resolution by far.
    const std::size_t heaven = data().at("Heaven").trace.accesses
                                   .size();
    for (const auto &[name, d] : data()) {
        if (name != "Heaven") {
            EXPECT_GT(heaven, d.trace.accesses.size()) << name;
        }
    }
}

TEST(WorkloadValidation, AssassinsCreedIsTopConsumer)
{
    // Figure 6: Assassin's Creed has the highest RT->TEX consumption
    // potential of the game titles (DMC close).
    const double ac = consumption(data().at("AssnCreed").belady);
    EXPECT_GT(ac, 0.55);
    int higher = 0;
    for (const auto &[name, d] : data())
        higher += (consumption(d.belady) > ac);
    EXPECT_LE(higher, 1);
}

TEST(WorkloadValidation, DirtConsumesLeastAmongDx11Games)
{
    // Dirt's profile produces offscreen targets it barely samples
    // back (the GSPC-vs-GSPZTC differentiator).
    const double dirt = consumption(data().at("Dirt").belady);
    EXPECT_LT(dirt, consumption(data().at("AssnCreed").belady));
    EXPECT_LT(dirt, consumption(data().at("DMC").belady));
}

TEST(WorkloadValidation, HeavenIsCapacityStarved)
{
    // Heaven's working set is the largest relative to the LLC, so
    // even Belady's hit rate is the lowest of the twelve.
    const auto rate = [](const RunResult &r) {
        return static_cast<double>(r.stats.totalHits())
            / static_cast<double>(r.stats.totalAccesses());
    };
    const double heaven = rate(data().at("Heaven").belady);
    for (const auto &[name, d] : data()) {
        if (name != "Heaven") {
            EXPECT_LT(heaven, rate(d.belady)) << name;
        }
    }
}

TEST(WorkloadValidation, BeladyConsumptionBeatsDrripEverywhere)
{
    for (const auto &[name, d] : data()) {
        EXPECT_GT(consumption(d.belady), 3 * consumption(d.drrip))
            << name;
    }
}

TEST(WorkloadValidation, TextureEpochShapeHoldsPerApp)
{
    for (const auto &[name, d] : data()) {
        const Characterization &ch = d.belady.characterization.value();
        // E0 dominates intra-stream hits in every title (Figure 7).
        EXPECT_GT(ch.texEpochHits[0], ch.texEpochHits[1]) << name;
        EXPECT_GT(ch.texDeathRatio(0), 0.7) << name;
    }
}

TEST(WorkloadValidation, BeladyGapExistsEverywhere)
{
    for (const auto &[name, d] : data()) {
        EXPECT_LT(d.belady.stats.totalMisses(),
                  d.drrip.stats.totalMisses())
            << name;
    }
}

TEST(WorkloadValidation, TraceSizesAreSimulable)
{
    for (const auto &[name, d] : data()) {
        EXPECT_GT(d.trace.accesses.size(), 50'000u) << name;
        EXPECT_LT(d.trace.accesses.size(), 2'000'000u) << name;
    }
}
