/**
 * @file
 * Unit tests for the banked LLC model: stats accounting, dirty
 * eviction, bypass (UCD), observers and bank isolation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/banked_llc.hh"
#include "cache/policy/lru.hh"

using namespace gllc;

namespace
{

MemAccess
acc(Addr block, StreamType s = StreamType::Other, bool write = false)
{
    return MemAccess(block * kBlockBytes, s, write);
}

LlcConfig
smallConfig(std::uint32_t banks = 1)
{
    LlcConfig config;
    config.capacityBytes = 8 * 1024;  // 128 blocks
    config.ways = 4;
    config.banks = banks;
    return config;
}

} // namespace

TEST(BankedLlc, ColdMissThenHit)
{
    BankedLlc llc(smallConfig(), LruPolicy::factory());
    const auto r1 = llc.access(acc(1));
    EXPECT_FALSE(r1.hit);
    const auto r2 = llc.access(acc(1));
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(llc.stats().totalAccesses(), 2u);
    EXPECT_EQ(llc.stats().totalHits(), 1u);
    EXPECT_EQ(llc.stats().totalMisses(), 1u);
}

TEST(BankedLlc, PerStreamAccounting)
{
    BankedLlc llc(smallConfig(), LruPolicy::factory());
    llc.access(acc(1, StreamType::Z));
    llc.access(acc(1, StreamType::Z));
    llc.access(acc(2, StreamType::Texture));
    const LlcStats &s = llc.stats();
    EXPECT_EQ(s.of(StreamType::Z).accesses, 2u);
    EXPECT_EQ(s.of(StreamType::Z).hits, 1u);
    EXPECT_EQ(s.of(StreamType::Z).misses, 1u);
    EXPECT_EQ(s.of(StreamType::Texture).misses, 1u);
    EXPECT_DOUBLE_EQ(s.hitRate(StreamType::Z), 0.5);
    EXPECT_DOUBLE_EQ(s.hitRate(StreamType::Display), 0.0);
}

TEST(BankedLlc, InvalidWaysFillBeforeEviction)
{
    BankedLlc llc(smallConfig(), LruPolicy::factory());
    // 4 ways: the first 4 distinct blocks of one set evict nothing.
    const std::uint32_t sets = llc.geometry().setsPerBank();
    for (Addr i = 0; i < 4; ++i)
        llc.access(acc(i * sets));  // same set, different tags
    EXPECT_EQ(llc.stats().evictions, 0u);
    llc.access(acc(4 * sets));
    EXPECT_EQ(llc.stats().evictions, 1u);
}

TEST(BankedLlc, DirtyEvictionProducesWriteback)
{
    BankedLlc llc(smallConfig(), LruPolicy::factory());
    const std::uint32_t sets = llc.geometry().setsPerBank();
    llc.access(acc(0, StreamType::RenderTarget, true));  // dirty
    for (Addr i = 1; i <= 4; ++i) {
        const auto r = llc.access(acc(i * sets));
        if (i == 4) {
            EXPECT_TRUE(r.writeback);
            EXPECT_EQ(r.writebackAddr, 0u);
        } else {
            EXPECT_FALSE(r.writeback);
        }
    }
    EXPECT_EQ(llc.stats().writebacks, 1u);
}

TEST(BankedLlc, CleanEvictionNoWriteback)
{
    BankedLlc llc(smallConfig(), LruPolicy::factory());
    const std::uint32_t sets = llc.geometry().setsPerBank();
    for (Addr i = 0; i <= 4; ++i)
        llc.access(acc(i * sets));
    EXPECT_EQ(llc.stats().evictions, 1u);
    EXPECT_EQ(llc.stats().writebacks, 0u);
}

TEST(BankedLlc, WriteHitMarksDirty)
{
    BankedLlc llc(smallConfig(), LruPolicy::factory());
    const std::uint32_t sets = llc.geometry().setsPerBank();
    llc.access(acc(0));                             // clean fill
    llc.access(acc(0, StreamType::Other, true));    // dirty via hit
    for (Addr i = 1; i <= 4; ++i)
        llc.access(acc(i * sets));
    EXPECT_EQ(llc.stats().writebacks, 1u);
}

TEST(BankedLlc, BypassPreventsAllocation)
{
    LlcConfig config = smallConfig();
    config.uncachedDisplay = true;
    BankedLlc llc(config, LruPolicy::factory());

    const auto r1 = llc.access(acc(7, StreamType::Display, true));
    EXPECT_FALSE(r1.hit);
    EXPECT_TRUE(r1.bypassed);
    EXPECT_FALSE(llc.isResident(7 * kBlockBytes));

    const auto r2 = llc.access(acc(7, StreamType::Display, true));
    EXPECT_TRUE(r2.bypassed);  // still not cached

    const LlcStats &s = llc.stats();
    EXPECT_EQ(s.of(StreamType::Display).bypasses, 2u);
    EXPECT_EQ(s.of(StreamType::Display).misses, 0u);
    EXPECT_EQ(s.totalMisses(), 2u);  // bypasses still go to DRAM
}

TEST(BankedLlc, BypassedStreamCanHitResidentBlock)
{
    LlcConfig config = smallConfig();
    config.uncachedDisplay = true;
    BankedLlc llc(config, LruPolicy::factory());
    // Another stream cached the block; a display access finds it.
    llc.access(acc(9, StreamType::RenderTarget, true));
    const auto r = llc.access(acc(9, StreamType::Display, false));
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.bypassed);
}

TEST(BankedLlc, NonDisplayStreamsUnaffectedByUcd)
{
    LlcConfig config = smallConfig();
    config.uncachedDisplay = true;
    BankedLlc llc(config, LruPolicy::factory());
    llc.access(acc(3, StreamType::Texture));
    EXPECT_TRUE(llc.isResident(3 * kBlockBytes));
}

TEST(BankedLlc, BanksAreDisjoint)
{
    BankedLlc llc(smallConfig(4), LruPolicy::factory());
    // Blocks 0..3 land in banks 0..3; filling one bank's set never
    // evicts another bank's blocks.
    for (Addr i = 0; i < 4; ++i)
        llc.access(acc(i));
    for (Addr i = 0; i < 4; ++i)
        EXPECT_TRUE(llc.isResident(i * kBlockBytes));
    EXPECT_EQ(llc.geometry().banks(), 4u);
}

TEST(BankedLlc, IsResidentProbeHasNoSideEffects)
{
    BankedLlc llc(smallConfig(), LruPolicy::factory());
    EXPECT_FALSE(llc.isResident(0));
    EXPECT_EQ(llc.stats().totalAccesses(), 0u);
    llc.access(acc(0));
    EXPECT_TRUE(llc.isResident(0));
    EXPECT_TRUE(llc.isResident(32));  // same block, other offset
    EXPECT_EQ(llc.stats().totalAccesses(), 1u);
}

namespace
{

/** Observer that counts its callbacks. */
struct CountingObserver
{
    void onHitAt(const MemAccess &, std::size_t) { ++hits; }
    void onMissAt(const MemAccess &, std::size_t) { ++misses; }
    void onBypass(const MemAccess &) { ++bypasses; }
    void
    onEvictAt(Addr addr, std::size_t)
    {
        ++evictions;
        lastEvicted = addr;
    }

    int hits = 0, misses = 0, bypasses = 0, evictions = 0;
    Addr lastEvicted = ~0ull;
};

} // namespace

TEST(BankedLlc, ObserverSeesAllEvents)
{
    LlcConfig config = smallConfig();
    config.uncachedDisplay = true;
    BankedLlc llc(config, LruPolicy::factory());
    CountingObserver obs;
    const auto access = [&](const MemAccess &a) {
        llc.access(a, 0, kNever, obs);
    };

    const std::uint32_t sets = llc.geometry().setsPerBank();
    access(acc(0));                              // miss
    access(acc(0));                              // hit
    access(acc(1, StreamType::Display, false));  // bypass
    for (Addr i = 1; i <= 4; ++i)
        access(acc(i * sets));                   // 4 misses, 1 evict

    EXPECT_EQ(obs.hits, 1);
    EXPECT_EQ(obs.misses, 5);
    EXPECT_EQ(obs.bypasses, 1);
    EXPECT_EQ(obs.evictions, 1);
    EXPECT_EQ(obs.lastEvicted, 0u);
}

TEST(BankedLlc, StatsMerge)
{
    LlcStats a, b;
    a.stream[0].accesses = 2;
    a.stream[0].hits = 1;
    b.stream[0].accesses = 3;
    b.stream[0].misses = 3;
    b.writebacks = 4;
    a.merge(b);
    EXPECT_EQ(a.stream[0].accesses, 5u);
    EXPECT_EQ(a.stream[0].hits, 1u);
    EXPECT_EQ(a.stream[0].misses, 3u);
    EXPECT_EQ(a.writebacks, 4u);
}

TEST(BankedLlc, GeometryExposed)
{
    BankedLlc llc(smallConfig(), LruPolicy::factory());
    EXPECT_EQ(llc.geometry().capacityBytes(), 8u * 1024);
    EXPECT_EQ(llc.geometry().ways(), 4u);
}
