/**
 * @file
 * Unit tests for the reuse characterization layer (Section 2.3's
 * RT-bit protocol and epoch bookkeeping).
 */

#include <gtest/gtest.h>

#include "analysis/characterizer.hh"
#include "cache/policy/lru.hh"

using namespace gllc;

namespace
{

MemAccess
acc(Addr block, StreamType s, bool write = false)
{
    return MemAccess(block * kBlockBytes, s, write);
}

/**
 * LLC whose accesses feed a characterizer, through the same
 * frame-indexed observer hooks every trace replay uses.
 */
struct Harness
{
    Harness()
        : llc(LlcConfig{8 * 1024, 4, 1}, LruPolicy::factory()),
          ch(llc.geometry().totalBlocks())
    {
    }

    void access(const MemAccess &a) { llc.access(a, 0, kNever, ch); }

    BankedLlc llc;
    Characterizer ch;
};

} // namespace

TEST(Characterizer, RtConsumptionIsInterStreamHit)
{
    Harness h;
    h.access(acc(1, StreamType::RenderTarget, true));  // produce
    h.access(acc(1, StreamType::Texture));             // consume
    const Characterization &c = h.ch.result();
    EXPECT_EQ(c.rtProductions, 1u);
    EXPECT_EQ(c.rtConsumptions, 1u);
    EXPECT_EQ(c.interTexHits, 1u);
    EXPECT_EQ(c.intraTexHits, 0u);
}

TEST(Characterizer, ConsumptionClearsRtBit)
{
    Harness h;
    h.access(acc(1, StreamType::RenderTarget, true));
    h.access(acc(1, StreamType::Texture));
    // Second texture hit: the block is now a texture block in E0.
    h.access(acc(1, StreamType::Texture));
    const Characterization &c = h.ch.result();
    EXPECT_EQ(c.rtConsumptions, 1u);
    EXPECT_EQ(c.interTexHits, 1u);
    EXPECT_EQ(c.intraTexHits, 1u);
    EXPECT_EQ(c.texEpochHits[0], 1u);
}

TEST(Characterizer, TextureEpochHitHistogram)
{
    Harness h;
    h.access(acc(2, StreamType::Texture));  // fill: lifetime E0
    for (int k = 0; k < 5; ++k)
        h.access(acc(2, StreamType::Texture));
    const Characterization &c = h.ch.result();
    EXPECT_EQ(c.intraTexHits, 5u);
    EXPECT_EQ(c.texEpochHits[0], 1u);
    EXPECT_EQ(c.texEpochHits[1], 1u);
    EXPECT_EQ(c.texEpochHits[2], 1u);
    EXPECT_EQ(c.texEpochHits[3], 2u);  // E>=3 bucket
}

TEST(Characterizer, TexReachAndDeathRatio)
{
    Harness h;
    // Three texture lifetimes: blocks 1, 2, 3.  Block 1 gets two
    // hits, block 2 one, block 3 none.
    h.access(acc(1, StreamType::Texture));
    h.access(acc(2, StreamType::Texture));
    h.access(acc(3, StreamType::Texture));
    h.access(acc(1, StreamType::Texture));
    h.access(acc(1, StreamType::Texture));
    h.access(acc(2, StreamType::Texture));

    const Characterization &c = h.ch.result();
    EXPECT_EQ(c.texReach[0], 3u);
    EXPECT_EQ(c.texReach[1], 2u);
    EXPECT_EQ(c.texReach[2], 1u);
    EXPECT_NEAR(c.texDeathRatio(0), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(c.texDeathRatio(1), 0.5, 1e-12);
}

TEST(Characterizer, ZEpochsTrackedSeparately)
{
    Harness h;
    h.access(acc(5, StreamType::Z, true));
    h.access(acc(5, StreamType::Z));
    h.access(acc(6, StreamType::Z, true));
    const Characterization &c = h.ch.result();
    EXPECT_EQ(c.zReach[0], 2u);
    EXPECT_EQ(c.zReach[1], 1u);
    EXPECT_NEAR(c.zDeathRatio(0), 0.5, 1e-12);
    // Z activity must not contaminate texture epochs.
    EXPECT_EQ(c.texReach[0], 0u);
}

TEST(Characterizer, RtRewriteCountsOneProduction)
{
    Harness h;
    h.access(acc(1, StreamType::RenderTarget, true));
    h.access(acc(1, StreamType::RenderTarget, true));  // blend hit
    EXPECT_EQ(h.ch.result().rtProductions, 1u);
}

TEST(Characterizer, RtReacquisitionAfterConsumptionIsNewProduction)
{
    Harness h;
    h.access(acc(1, StreamType::RenderTarget, true));
    h.access(acc(1, StreamType::Texture));             // consume
    h.access(acc(1, StreamType::RenderTarget, true));  // reuse
    EXPECT_EQ(h.ch.result().rtProductions, 2u);
    EXPECT_EQ(h.ch.result().rtConsumptions, 1u);
}

TEST(Characterizer, DisplayCountsAsRenderTarget)
{
    Harness h;
    h.access(acc(4, StreamType::Display, true));
    EXPECT_EQ(h.ch.result().rtProductions, 1u);
}

TEST(Characterizer, EvictionEndsLifetimes)
{
    Harness h;
    // 4-way single... small cache: force eviction of a texture block
    // and confirm a later refill starts a fresh E0 lifetime.
    const std::uint32_t sets = h.llc.geometry().setsPerBank();
    h.access(acc(0, StreamType::Texture));
    for (Addr i = 1; i <= 4; ++i)
        h.access(acc(i * sets, StreamType::Other));
    EXPECT_FALSE(h.llc.isResident(0));
    h.access(acc(0, StreamType::Texture));
    const Characterization &c = h.ch.result();
    EXPECT_EQ(c.texReach[0], 2u);  // two lifetimes
    EXPECT_EQ(c.texReach[1], 0u);  // neither ever hit
    EXPECT_NEAR(c.texDeathRatio(0), 1.0, 1e-12);
}

TEST(Characterizer, DeathRatioZeroWhenNoLifetimes)
{
    Characterization c;
    EXPECT_EQ(c.texDeathRatio(0), 0.0);
    EXPECT_EQ(c.zDeathRatio(2), 0.0);
    EXPECT_EQ(c.rtConsumptionRate(), 0.0);
}

TEST(Characterizer, MergeAddsFields)
{
    Characterization a, b;
    a.interTexHits = 1;
    a.texReach[0] = 4;
    b.interTexHits = 2;
    b.texReach[0] = 6;
    b.zReach[1] = 3;
    a.merge(b);
    EXPECT_EQ(a.interTexHits, 3u);
    EXPECT_EQ(a.texReach[0], 10u);
    EXPECT_EQ(a.zReach[1], 3u);
}

TEST(Characterizer, BlendHitEndsTextureLifetime)
{
    Harness h;
    h.access(acc(1, StreamType::Texture));
    h.access(acc(1, StreamType::RenderTarget, true));
    h.access(acc(1, StreamType::Texture));  // consumption again
    const Characterization &c = h.ch.result();
    // First lifetime died hitless; the RT write produced; the second
    // texture access consumed.
    EXPECT_EQ(c.rtProductions, 1u);
    EXPECT_EQ(c.rtConsumptions, 1u);
    EXPECT_EQ(c.texReach[0], 2u);
}
