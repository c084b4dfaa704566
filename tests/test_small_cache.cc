/**
 * @file
 * Unit tests for the render-cache building block.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "rcache/render_caches.hh"
#include "rcache/small_cache.hh"

using namespace gllc;

namespace
{

Addr
block(Addr n)
{
    return n * kBlockBytes;
}

/**
 * Reference model: the straightforward stamp-LRU cache (one record
 * per way, a 64-bit use stamp, a hit scan and a victim scan).
 * SmallCache must match it access for access.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint32_t sets, std::uint32_t ways,
                   bool write_allocate)
        : sets_(sets), ways_(ways), writeAllocate_(write_allocate),
          entries_(static_cast<std::size_t>(sets) * ways)
    {
    }

    bool
    access(Addr addr, bool is_write, StreamType stream,
           std::uint32_t cycle, std::vector<MemAccess> &out)
    {
        ++stats_.accesses;
        const Addr tag = blockNumber(addr);
        const std::size_t base =
            static_cast<std::size_t>(tag & (sets_ - 1)) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Entry &e = entries_[base + w];
            if (e.valid && e.tag == tag) {
                ++stats_.hits;
                e.stamp = ++clock_;
                e.dirty = e.dirty || is_write;
                return true;
            }
        }
        if (is_write && !writeAllocate_) {
            out.emplace_back(blockAlign(addr), stream, true, cycle);
            return false;
        }
        std::uint32_t victim = 0;
        bool found_invalid = false;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!entries_[base + w].valid) {
                victim = w;
                found_invalid = true;
                break;
            }
            if (entries_[base + w].stamp < entries_[base + victim].stamp)
                victim = w;
        }
        Entry &e = entries_[base + victim];
        if (!found_invalid && e.dirty) {
            ++stats_.writebacks;
            out.emplace_back(e.tag << kBlockShift, e.stream, true, cycle);
        }
        if (!is_write)
            out.emplace_back(blockAlign(addr), stream, false, cycle);
        e = Entry{tag, ++clock_, stream, true, is_write};
        return false;
    }

    void
    flush(std::uint32_t cycle, std::vector<MemAccess> &out)
    {
        std::uint32_t drained = 0;
        for (Entry &e : entries_) {
            if (e.valid && e.dirty) {
                ++stats_.writebacks;
                out.emplace_back(e.tag << kBlockShift, e.stream, true,
                                 cycle + drained / 2);
                ++drained;
            }
            e.valid = false;
        }
    }

    const SmallCacheStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        Addr tag = 0;
        std::uint64_t stamp = 0;
        StreamType stream = StreamType::Other;
        bool valid = false;
        bool dirty = false;
    };

    std::uint32_t sets_;
    std::uint32_t ways_;
    bool writeAllocate_;
    std::uint64_t clock_ = 0;
    std::vector<Entry> entries_;
    SmallCacheStats stats_;
};

/** (blocks, ways) of every cache RenderCacheConfig::scaled(s) builds. */
std::vector<std::pair<std::uint32_t, std::uint32_t>>
scaledGeometries(std::uint32_t pixel_scale)
{
    const RenderCacheConfig c = RenderCacheConfig{}.scaled(pixel_scale);
    return {{c.vtxIndexBlocks, c.vtxIndexWays},
            {c.vertexBlocks, c.vertexWays},
            {c.hizBlocks, c.hizWays},
            {c.stencilBlocks, c.stencilWays},
            {c.rtBlocks, c.rtWays},
            {c.zBlocks, c.zWays},
            {c.texture.l1Blocks, c.texture.l1Ways},
            {c.texture.l2Blocks, c.texture.l2Ways},
            {c.texture.l3Blocks, c.texture.l3Ways}};
}

bool
sameAccess(const MemAccess &a, const MemAccess &b)
{
    return a.addr == b.addr && a.stream == b.stream
        && a.isWrite == b.isWrite && a.cycle == b.cycle;
}

/** A SmallCache and its reference model, driven in lockstep. */
class Lockstep
{
  public:
    Lockstep(std::uint32_t blocks, std::uint32_t ways,
             bool write_allocate = true)
        : cache("t", blocks, ways, write_allocate),
          ref(cache.sets(), cache.ways(), write_allocate)
    {
    }

    /** Both sides' hit/miss verdict on one access; they must agree. */
    ::testing::AssertionResult
    access(Addr addr, bool is_write,
           StreamType stream = StreamType::RenderTarget,
           std::uint32_t cycle = 0)
    {
        const bool hit = cache.access(addr, is_write, stream, cycle, got);
        if (hit != ref.access(addr, is_write, stream, cycle, want))
            return ::testing::AssertionFailure()
                << "block " << blockNumber(addr) << ": SmallCache says "
                << (hit ? "hit" : "miss");
        return ::testing::AssertionSuccess() << (hit ? "hit" : "miss");
    }

    void
    flush(std::uint32_t cycle)
    {
        cache.flush(cycle, got);
        ref.flush(cycle, want);
    }

    /** Flush both and compare every emitted access and statistic. */
    void
    expectSameTraffic()
    {
        flush(7);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < got.size(); ++k)
            ASSERT_TRUE(sameAccess(got[k], want[k]))
                << "emitted access " << k;
        EXPECT_EQ(cache.stats().accesses, ref.stats().accesses);
        EXPECT_EQ(cache.stats().hits, ref.stats().hits);
        EXPECT_EQ(cache.stats().writebacks, ref.stats().writebacks);
    }

    SmallCache cache;
    ReferenceCache ref;
    std::vector<MemAccess> got;
    std::vector<MemAccess> want;
};

} // namespace

TEST(SmallCache, HitAfterFill)
{
    SmallCache c("t", 16, 4);
    std::vector<MemAccess> out;
    EXPECT_FALSE(c.access(block(1), false, StreamType::Z, 0, out));
    EXPECT_TRUE(c.access(block(1), false, StreamType::Z, 0, out));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses(), 1u);
}

TEST(SmallCache, ReadMissEmitsFillRequest)
{
    SmallCache c("t", 16, 4);
    std::vector<MemAccess> out;
    c.access(block(3) + 17, false, StreamType::Texture, 42, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].addr, block(3));  // block aligned
    EXPECT_EQ(out[0].stream, StreamType::Texture);
    EXPECT_FALSE(out[0].isWrite);
    EXPECT_EQ(out[0].cycle, 42u);
}

TEST(SmallCache, StoreMissAllocatesSilently)
{
    // Whole-tile writes allocate without fetching (fast clear /
    // full-line write); the LLC sees the data at writeback time.
    SmallCache c("t", 16, 4);
    std::vector<MemAccess> out;
    c.access(block(5), true, StreamType::RenderTarget, 0, out);
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(c.access(block(5), false, StreamType::RenderTarget, 0,
                         out));
}

TEST(SmallCache, DirtyEvictionEmitsWriteback)
{
    SmallCache c("t", 4, 4);  // one set of 4 ways
    std::vector<MemAccess> out;
    c.access(block(0), true, StreamType::RenderTarget, 0, out);
    for (Addr i = 1; i <= 4; ++i)
        c.access(block(i), false, StreamType::Z, 7, out);
    // Evicting dirty block 0 produced a writeback with the RT tag it
    // was filled under.
    bool found_wb = false;
    for (const MemAccess &a : out) {
        if (a.isWrite) {
            found_wb = true;
            EXPECT_EQ(a.addr, block(0));
            EXPECT_EQ(a.stream, StreamType::RenderTarget);
        }
    }
    EXPECT_TRUE(found_wb);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(SmallCache, LruVictimOrder)
{
    SmallCache c("t", 4, 4);
    std::vector<MemAccess> out;
    for (Addr i = 0; i < 4; ++i)
        c.access(block(i), false, StreamType::Z, 0, out);
    c.access(block(0), false, StreamType::Z, 0, out);  // 0 -> MRU
    c.access(block(9), false, StreamType::Z, 0, out);  // evicts 1
    EXPECT_TRUE(c.access(block(0), false, StreamType::Z, 0, out));
    EXPECT_FALSE(c.access(block(1), false, StreamType::Z, 0, out));
}

TEST(SmallCache, ReadOnlyCacheForwardsWrites)
{
    SmallCache c("t", 16, 4, /*write_allocate=*/false);
    std::vector<MemAccess> out;
    c.access(block(2), true, StreamType::Texture, 5, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].isWrite);
    // And the write did not allocate.
    EXPECT_FALSE(c.access(block(2), false, StreamType::Texture, 5,
                          out));
}

TEST(SmallCache, FlushWritesBackAllDirtyAndInvalidates)
{
    SmallCache c("t", 8, 4);
    std::vector<MemAccess> out;
    c.access(block(1), true, StreamType::RenderTarget, 0, out);
    c.access(block(2), true, StreamType::Display, 0, out);
    c.access(block(3), false, StreamType::Z, 0, out);
    out.clear();
    c.flush(100, out);
    EXPECT_EQ(out.size(), 2u);  // only the dirty blocks
    for (const MemAccess &a : out)
        EXPECT_TRUE(a.isWrite);
    // Everything is invalid afterwards.
    EXPECT_FALSE(c.access(block(1), false, StreamType::Z, 0, out));
    EXPECT_FALSE(c.access(block(3), false, StreamType::Z, 0, out));
}

TEST(SmallCache, FlushPreservesStreamTags)
{
    SmallCache c("t", 8, 4);
    std::vector<MemAccess> out;
    c.access(block(1), true, StreamType::Display, 0, out);
    out.clear();
    c.flush(0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].stream, StreamType::Display);
}

TEST(SmallCache, GeometryClampsWaysToBlocks)
{
    // 1 KB / 16-way vertex index cache: 16 blocks, fully assoc.
    SmallCache c("vtxidx", 16, 16);
    EXPECT_EQ(c.sets(), 1u);
    EXPECT_EQ(c.ways(), 16u);

    // Asking for 128 ways with 16 blocks clamps.
    SmallCache c2("vtx", 16, 128);
    EXPECT_EQ(c2.ways(), 16u);
}

TEST(SmallCache, NonPow2BlocksRoundedDown)
{
    SmallCache c("t", 24, 24);
    EXPECT_EQ(c.sets() * c.ways(), 16u);
}

TEST(SmallCache, RepeatedMruHitsMatchReference)
{
    // Runs of hits on the MRU way (reads and writes, which dirty it
    // without aging anything), broken by a hit deeper in the set or a
    // fill, then more MRU hits.
    Lockstep s(64, 16);  // 4 sets
    for (Addr round = 0; round < 40; ++round) {
        const Addr b = block((round * 5) % 24);
        for (int i = 0; i < 6; ++i)
            ASSERT_TRUE(s.access(b, i % 3 == 1)) << "round " << round;
        ASSERT_TRUE(s.access(block(round % 7), false));
        ASSERT_TRUE(s.access(block(round % 7), true));
    }
    s.expectSameTraffic();
    EXPECT_GT(s.cache.stats().hits, 200u);
}

TEST(SmallCache, StaleMruWayMissesAfterFlush)
{
    SmallCache c("t", 8, 4);  // 2 sets
    std::vector<MemAccess> out;
    c.access(block(2), true, StreamType::Z, 0, out);
    EXPECT_TRUE(c.access(block(2), false, StreamType::Z, 0, out));
    c.flush(10, out);
    ASSERT_EQ(out.size(), 1u);  // the dirty block, written back once
    out.clear();
    // Block 2 still names its old way as the set's MRU way; after the
    // flush it must miss, fetch, and come back clean.
    EXPECT_FALSE(c.access(block(2), false, StreamType::Z, 20, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].isWrite);
    EXPECT_EQ(out[0].cycle, 20u);
    out.clear();
    EXPECT_TRUE(c.access(block(2), false, StreamType::Z, 0, out));
    c.flush(30, out);
    EXPECT_TRUE(out.empty());

    // The same against the reference, with the stale MRU way's block
    // and its set-mates hit straight after each flush.
    Lockstep s(16, 4);
    for (Addr round = 0; round < 20; ++round) {
        for (Addr i = 0; i < 6; ++i)
            ASSERT_TRUE(s.access(block(i * 4), (i + round) % 2 == 0));
        ASSERT_TRUE(s.access(block(round % 6 * 4), true));
        s.flush(static_cast<std::uint32_t>(100 * round));
        ASSERT_TRUE(s.access(block(round % 6 * 4), false));
        ASSERT_TRUE(s.access(block(round % 6 * 4), true));
        ASSERT_TRUE(s.access(block((round + 1) % 6 * 4), false));
    }
    s.expectSameTraffic();
}

TEST(SmallCache, TwoHundredFiftySixWaysMatchReference)
{
    // The widest geometry the constructor accepts: the LRU way of a
    // full set is aged 255, the value that marks invalid ways in a
    // set that is not full.
    for (std::uint32_t blocks : {256u, 512u}) {
        Lockstep s(blocks, 256);
        ASSERT_EQ(s.cache.ways(), 256u);
        std::mt19937_64 rng(blocks);
        // Fill partly, touch the oldest, fill past capacity, flush,
        // refill: ages cross 254/255 in both states.
        for (int phase = 0; phase < 3; ++phase) {
            for (Addr i = 0; i < 300; ++i)
                ASSERT_TRUE(s.access(block(i * (blocks / 256)),
                                     (i & 3) == 0));
            for (int i = 0; i < 3000; ++i) {
                const Addr b = rng() % (blocks * 3 / 2);
                ASSERT_TRUE(s.access(block(b), (rng() & 1) != 0))
                    << "phase " << phase << " access " << i;
            }
            s.flush(static_cast<std::uint32_t>(phase));
            for (Addr i = 0; i < 200; ++i)
                ASSERT_TRUE(s.access(block(i), false));
        }
        s.expectSameTraffic();
        EXPECT_GT(s.cache.stats().writebacks, 0u);
    }
}

TEST(SmallCache, LowTagAliasesAreToldApart)
{
    // Block numbers that share their low 32 bits land in one set and
    // all match in the vector probe; only the full tag tells them
    // apart, on misses and on hits below the MRU way alike.
    const Addr alias = Addr{1} << 32;
    Lockstep s(64, 16);  // 4 sets
    for (Addr round = 0; round < 40; ++round) {
        const Addr base = (round % 5) * 4;  // 5 groups of 5: > 16 ways
        for (Addr k = 0; k < 5; ++k)
            ASSERT_TRUE(s.access(block(base + k * alias),
                                 (k + round) % 3 == 0))
                << "round " << round << " alias " << k;
        for (Addr k = 5; k-- > 0;)
            ASSERT_TRUE(s.access(block(base + k * alias), false))
                << "round " << round << " alias " << k;
    }
    s.expectSameTraffic();
    EXPECT_GT(s.cache.stats().hits, 0u);
    EXPECT_GT(s.cache.stats().misses(), 0u);
    EXPECT_GT(s.cache.stats().writebacks, 0u);
}

TEST(SmallCacheDeath, MoreThan256WaysIsFatal)
{
#ifdef GLLC_DISABLE_ASSERTS
    GTEST_SKIP() << "GLLC_ASSERT compiled out (-DGLLC_ASSERTS=OFF)";
#else
    EXPECT_DEATH(SmallCache("wide", 512, 512), "age byte");
#endif
}

TEST(SmallCache, MatchesStampLruReferenceOnEveryScaledGeometry)
{
    std::size_t checked = 0;
    bool saw_128_ways = false;
    for (std::uint32_t scale : {1u, 4u, 16u, 64u}) {
        for (const auto &[blocks, ways] : scaledGeometries(scale)) {
            for (bool write_allocate : {true, false}) {
                SmallCache cache("t", blocks, ways, write_allocate);
                saw_128_ways = saw_128_ways || cache.ways() == 128;
                ReferenceCache ref(cache.sets(), cache.ways(),
                                   write_allocate);
                const std::uint32_t capacity =
                    cache.sets() * cache.ways();
                std::mt19937_64 rng(
                    (std::uint64_t{scale} << 40)
                    ^ (std::uint64_t{blocks} << 20) ^ (ways << 1)
                    ^ write_allocate);
                // Tags drawn from three times the capacity, half of
                // them from a hot eighth, so hits land at every
                // recency depth and sets fill, evict and flush.
                std::uniform_int_distribution<Addr> cold(
                    0, 3 * Addr{capacity} - 1);
                std::uniform_int_distribution<Addr> hot(
                    0, std::max<Addr>(1, capacity / 8));
                std::vector<MemAccess> got;
                std::vector<MemAccess> want;
                for (std::uint32_t i = 0; i < 40000; ++i) {
                    const std::uint64_t r = rng();
                    const std::uint32_t cycle =
                        static_cast<std::uint32_t>(r >> 40);
                    if (r % 1000 == 0) {
                        cache.flush(cycle, got);
                        ref.flush(cycle, want);
                        continue;
                    }
                    const Addr addr =
                        ((r & 2) != 0 ? hot(rng) : cold(rng))
                            * kBlockBytes
                        + (r >> 8) % kBlockBytes;
                    const bool is_write = (r & 4) != 0;
                    const auto stream =
                        static_cast<StreamType>((r >> 4) % kNumStreams);
                    ASSERT_EQ(
                        cache.access(addr, is_write, stream, cycle, got),
                        ref.access(addr, is_write, stream, cycle, want))
                        << "access " << i << " of " << blocks << "x"
                        << ways << " scale " << scale;
                }
                cache.flush(7, got);
                ref.flush(7, want);

                ASSERT_EQ(got.size(), want.size());
                for (std::size_t k = 0; k < got.size(); ++k) {
                    ASSERT_TRUE(sameAccess(got[k], want[k]))
                        << "emitted access " << k << " of " << blocks
                        << "x" << ways << " scale " << scale;
                }
                EXPECT_EQ(cache.stats().accesses, ref.stats().accesses);
                EXPECT_EQ(cache.stats().hits, ref.stats().hits);
                EXPECT_EQ(cache.stats().writebacks,
                          ref.stats().writebacks);
                EXPECT_GT(cache.stats().hits, 0u);
                EXPECT_GT(cache.stats().writebacks, 0u);
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 4u * 9u * 2u);
    EXPECT_TRUE(saw_128_ways);  // the scale-1 vertex cache
}
