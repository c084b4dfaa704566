/**
 * @file
 * Unit tests for the banked LLC model: stats accounting, dirty
 * eviction, bypass (UCD), observers, bank isolation, and the vector
 * tag probe against a plain scalar model of the same cache.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
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

namespace
{

/**
 * The LLC as plain loops: per set, a row of ways probed one full tag
 * at a time, the lowest invalid way filled first, and the least
 * recently touched way evicted (LruPolicy's rule).  Reports what
 * BankedLlc<LruPolicy> must report, including the observer's frame
 * index of every hit, fill and eviction.
 */
class ScalarLlc
{
  public:
    explicit ScalarLlc(const LlcConfig &config)
        : geom_(config.capacityBytes, config.ways, config.banks),
          ucd_(config.uncachedDisplay),
          ways_(static_cast<std::size_t>(geom_.totalSets())
                * geom_.ways())
    {
    }

    struct Outcome
    {
        LlcAccessResult result;
        std::size_t frame = 0;  ///< frame hit or filled
        bool evicted = false;
        Addr evictedAddr = 0;
    };

    Outcome
    access(const MemAccess &a)
    {
        Outcome out;
        const CacheGeometry::Placement where = geom_.placementOf(a.addr);
        const std::size_t base =
            (static_cast<std::size_t>(where.bank) * geom_.setsPerBank()
             + where.set)
            * geom_.ways();
        for (std::size_t f = base; f < base + geom_.ways(); ++f) {
            if (ways_[f].valid && ways_[f].tag == where.tag) {
                ways_[f].dirty = ways_[f].dirty || a.isWrite;
                ways_[f].stamp = ++clock_;
                out.result.hit = true;
                out.frame = f;
                return out;
            }
        }
        if (ucd_ && a.stream == StreamType::Display) {
            out.result.bypassed = true;
            return out;
        }
        std::size_t fill = base + geom_.ways();
        for (std::size_t f = base; f < base + geom_.ways(); ++f) {
            if (!ways_[f].valid) {
                fill = f;
                break;
            }
        }
        if (fill == base + geom_.ways()) {
            fill = base;
            for (std::size_t f = base + 1; f < base + geom_.ways(); ++f) {
                if (ways_[f].stamp < ways_[fill].stamp)
                    fill = f;
            }
            out.evicted = true;
            out.evictedAddr = ways_[fill].tag << kBlockShift;
            if (ways_[fill].dirty) {
                out.result.writeback = true;
                out.result.writebackAddr = out.evictedAddr;
            }
        }
        ways_[fill] = {where.tag, true, a.isWrite, ++clock_};
        out.frame = fill;
        return out;
    }

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0;
    };

    CacheGeometry geom_;
    bool ucd_;
    std::vector<Way> ways_;
    std::uint64_t clock_ = 0;
};

/** Observer that records the last event's frame indices. */
struct FrameObserver
{
    void
    onHitAt(const MemAccess &, std::size_t f)
    {
        frame = f;
    }
    void
    onMissAt(const MemAccess &, std::size_t f)
    {
        frame = f;
    }
    void onBypass(const MemAccess &) {}
    void
    onEvictAt(Addr addr, std::size_t f)
    {
        evicted = true;
        evictedAddr = addr;
        evictedFrame = f;
    }

    std::size_t frame = 0;
    bool evicted = false;
    Addr evictedAddr = 0;
    std::size_t evictedFrame = 0;
};

/**
 * Replay @p trace through BankedLlc<LruPolicy> and ScalarLlc in
 * lockstep; every access must agree, and so must the totals.
 */
void
expectLockstep(const LlcConfig &config, const std::vector<MemAccess> &trace)
{
    BankedLlc llc(config, LruPolicy::factory());
    ASSERT_TRUE(llc.policiesAre<LruPolicy>());
    ScalarLlc ref(config);
    std::uint64_t hits = 0, bypasses = 0, writebacks = 0, evictions = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        FrameObserver obs;
        const LlcAccessResult got =
            llc.access<LruPolicy>(trace[i], i, kNever, obs);
        const ScalarLlc::Outcome want = ref.access(trace[i]);
        ASSERT_EQ(got.hit, want.result.hit) << "access " << i;
        ASSERT_EQ(got.bypassed, want.result.bypassed) << "access " << i;
        ASSERT_EQ(got.writeback, want.result.writeback) << "access " << i;
        ASSERT_EQ(got.writebackAddr, want.result.writebackAddr)
            << "access " << i;
        ASSERT_EQ(obs.evicted, want.evicted) << "access " << i;
        if (!got.bypassed) {
            ASSERT_EQ(obs.frame, want.frame) << "access " << i;
            ASSERT_TRUE(llc.isResident(trace[i].addr)) << "access " << i;
        }
        if (want.evicted) {
            ASSERT_EQ(obs.evictedAddr, want.evictedAddr) << "access " << i;
            ASSERT_EQ(obs.evictedFrame, want.frame) << "access " << i;
            ASSERT_FALSE(llc.isResident(want.evictedAddr))
                << "access " << i;
        }
        hits += want.result.hit;
        bypasses += want.result.bypassed;
        writebacks += want.result.writeback;
        evictions += want.evicted;
    }
    const LlcStats s = llc.stats();
    EXPECT_EQ(s.totalAccesses(), trace.size());
    EXPECT_EQ(s.totalHits(), hits);
    EXPECT_EQ(s.totalMisses(), trace.size() - hits);
    EXPECT_EQ(s.of(StreamType::Display).bypasses, bypasses);
    EXPECT_EQ(s.writebacks, writebacks);
    EXPECT_EQ(s.evictions, evictions);
    llc.auditAll();
}

} // namespace

TEST(BankedLlc, LowTagAliasesAreToldApart)
{
    // Block numbers that agree in their low 32 bits share a set and a
    // low tag; set 31's also share the invalid marker's low tag.
    const LlcConfig config = smallConfig();  // 32 sets x 4 ways
    const Addr hi = Addr{1} << 32;
    std::vector<MemAccess> trace;
    for (Addr low : {Addr{5}, Addr{0xffffffff}}) {
        for (int round = 0; round < 3; ++round) {
            for (Addr k = 0; k < 6; ++k) {
                const bool write = (k + round) % 3 == 0;
                trace.push_back(acc(low + k * hi, StreamType::Z, write));
                trace.push_back(acc(low + (k / 2) * hi));
            }
        }
    }
    expectLockstep(config, trace);

    BankedLlc llc(config, LruPolicy::factory());
    llc.access(acc(5));
    EXPECT_TRUE(llc.isResident(5 * kBlockBytes));
    EXPECT_FALSE(llc.isResident((5 + hi) * kBlockBytes));
    EXPECT_FALSE(llc.access(acc(5 + hi)).hit);
    EXPECT_TRUE(llc.access(acc(5)).hit);
    EXPECT_TRUE(llc.access(acc(5 + hi)).hit);
    // A resident block whose low tag is the invalid marker's is not
    // an invalid way: the next fill takes way 1, not way 0.
    llc.access(acc(0xffffffff));
    EXPECT_TRUE(llc.isResident(0xffffffffull * kBlockBytes));
    llc.access(acc(0xffffffff + hi));
    EXPECT_TRUE(llc.isResident(0xffffffffull * kBlockBytes));
    EXPECT_TRUE(llc.isResident((0xffffffff + hi) * kBlockBytes));
    EXPECT_EQ(llc.stats().evictions, 0u);
}

TEST(BankedLlc, ProbeMatchesScalarModelAtEveryAssociativity)
{
    // 20 and 32 ways span two 16-way probe steps; 20 leaves 12
    // padding lanes.  A small pool of tags per set keeps sets full
    // and hot, UCD makes display misses bypass, and writes leave
    // dirty blocks to write back.
    for (std::uint32_t ways : {1u, 2u, 4u, 8u, 16u, 20u, 32u}) {
        LlcConfig config;
        config.ways = ways;
        config.banks = 2;
        config.capacityBytes = std::uint64_t{ways} * 8 * 2 * kBlockBytes;
        config.uncachedDisplay = true;
        std::mt19937_64 rng(ways);
        std::vector<MemAccess> trace;
        for (int i = 0; i < 20000; ++i) {
            // 16 blocks per set of each bank: 4 low-tag-alias groups
            // of 4, one group aliasing the invalid marker's low tag.
            const Addr set_bits = rng() % 16;
            const Addr group = rng() % 4;
            const Addr low = group == 3
                ? Addr{0xffffffff}
                : set_bits + (group * 16 + rng() % 4) * 16;
            const Addr block = low + (rng() % 4 << 32);
            const auto stream = static_cast<StreamType>(rng() % kNumStreams);
            trace.push_back(acc(block, stream, rng() % 3 == 0));
        }
        SCOPED_TRACE(ways);
        expectLockstep(config, trace);
    }
}
