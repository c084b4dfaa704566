/**
 * @file
 * Tests for the multi-frame animation renderer extension.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/offline_sim.hh"
#include "workload/frame_set.hh"

using namespace gllc;

namespace
{

RenderScale
tinyScale()
{
    RenderScale s;
    s.linear = 8;
    return s;
}

} // namespace

TEST(Animation, LongerThanSingleFrame)
{
    const AppProfile &app = paperApps().front();
    const FrameTrace one = renderFrame(app, 0, tinyScale());
    const FrameTrace anim = renderAnimation(app, 3, tinyScale());
    EXPECT_GT(anim.accesses.size(), 2 * one.accesses.size());
    EXPECT_GT(anim.work.pixelsShaded, 2 * one.work.pixelsShaded);
    EXPECT_EQ(anim.name, app.name + "/anim3");
}

TEST(Animation, SingleFrameAnimationMatchesFrame)
{
    const AppProfile &app = paperApps().front();
    const FrameTrace one = renderFrame(app, 0, tinyScale());
    const FrameTrace anim = renderAnimation(app, 1, tinyScale());
    ASSERT_EQ(anim.accesses.size(), one.accesses.size());
    for (std::size_t i = 0; i < one.accesses.size(); ++i)
        EXPECT_EQ(anim.accesses[i].addr, one.accesses[i].addr);
}

TEST(Animation, SurfacesPersistAcrossFrames)
{
    // Cross-frame reuse: blocks touched in frame 1 are touched again
    // later (static textures / back buffer reused), so the distinct
    // block count grows sublinearly with the frame count.
    const AppProfile &app = paperApps().front();
    const FrameTrace one = renderFrame(app, 0, tinyScale());
    const FrameTrace anim = renderAnimation(app, 3, tinyScale());
    EXPECT_LT(anim.distinctBlocks(), 3 * one.distinctBlocks());
}

TEST(Animation, Deterministic)
{
    const AppProfile &app = paperApps()[1];
    const FrameTrace a = renderAnimation(app, 2, tinyScale());
    const FrameTrace b = renderAnimation(app, 2, tinyScale());
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    EXPECT_EQ(a.accesses.back().addr, b.accesses.back().addr);
}

TEST(Animation, ReplaysThroughTheLlc)
{
    const AppProfile &app = paperApps().front();
    const FrameTrace anim = renderAnimation(app, 2, tinyScale());
    const LlcConfig llc = scaledLlcConfig(8ull << 20, 64);
    const RunResult r = runTrace(anim, policySpec("GSPC+UCD"), llc,
                                 {.characterize = true});
    EXPECT_EQ(r.stats.totalAccesses(), anim.accesses.size());
    EXPECT_GT(r.characterization.value().rtConsumptions, 0u);
}
