/**
 * @file
 * Tests for the offline LLC replay harness.
 */

#include <gtest/gtest.h>

#include <typeinfo>

#include "analysis/offline_sim.hh"
#include "analysis/policy_types.hh"

using namespace gllc;

namespace
{

FrameTrace
syntheticTrace()
{
    FrameTrace t;
    t.name = "synthetic";
    // RT production, consumption, a Z pair, display writes.
    for (Addr b = 0; b < 64; ++b)
        t.accesses.emplace_back(b * kBlockBytes,
                                StreamType::RenderTarget, true);
    for (Addr b = 0; b < 64; ++b)
        t.accesses.emplace_back(b * kBlockBytes, StreamType::Texture,
                                false);
    for (Addr b = 100; b < 132; ++b)
        t.accesses.emplace_back(b * kBlockBytes, StreamType::Z, true);
    for (Addr b = 200; b < 232; ++b)
        t.accesses.emplace_back(b * kBlockBytes, StreamType::Display,
                                true);
    return t;
}

LlcConfig
tinyLlc()
{
    LlcConfig c;
    c.capacityBytes = 64 * 1024;
    c.ways = 16;
    c.banks = 4;
    return c;
}

/** The access-path instantiation withPolicyClass() picks for @p llc. */
const std::type_info &
replayClassOf(const BankedLlc &llc)
{
    const std::type_info *chosen = nullptr;
    withPolicyClass(llc, [&](auto policy_class) {
        EXPECT_EQ(chosen, nullptr) << "dispatched twice";
        chosen = &typeid(typename decltype(policy_class)::type);
    });
    return *chosen;
}

/** A policy class outside ConcretePolicies: evicts way 0. */
class WayZeroPolicy : public ReplacementPolicy
{
  public:
    void configure(std::uint32_t, std::uint32_t) override {}
    std::uint32_t selectVictim(std::uint32_t) override { return 0; }
    void onFill(std::uint32_t, std::uint32_t, const AccessInfo &) override
    {
    }
    void onHit(std::uint32_t, std::uint32_t, const AccessInfo &) override
    {
    }
    std::string name() const override { return "WayZero"; }
};

} // namespace

TEST(OfflineSim, EveryRegistryPolicyReplaysThroughItsOwnClass)
{
    const std::vector<PolicySpec> specs = allPolicySpecs();
    ASSERT_EQ(specs.size(), 42u);
    for (const PolicySpec &spec : specs) {
        BankedLlc llc(tinyLlc(), spec.factory);
        const std::type_info &chosen = replayClassOf(llc);
        EXPECT_NE(chosen, typeid(ReplacementPolicy)) << spec.name;
        EXPECT_EQ(chosen, typeid(llc.bankPolicy(0))) << spec.name;
    }
}

TEST(OfflineSim, UnlistedPolicyReplaysThroughTheVirtualHooks)
{
    PolicySpec spec;
    spec.name = "WayZero";
    spec.factory = [] { return std::make_unique<WayZeroPolicy>(); };
    EXPECT_EQ(replayClassOf(BankedLlc(tinyLlc(), spec.factory)),
              typeid(ReplacementPolicy));

    // Banks of different listed classes share no concrete class.
    bool lru = false;
    const PolicyFactory mixed = [&lru] {
        lru = !lru;
        return lru ? std::unique_ptr<ReplacementPolicy>(new LruPolicy)
                   : std::unique_ptr<ReplacementPolicy>(new NruPolicy);
    };
    EXPECT_EQ(replayClassOf(BankedLlc(tinyLlc(), mixed)),
              typeid(ReplacementPolicy));

    const FrameTrace t = syntheticTrace();
    const RunResult r = runTrace(t, spec, tinyLlc());
    EXPECT_EQ(r.stats.totalAccesses(), t.accesses.size());
    EXPECT_EQ(r.stats.of(StreamType::Texture).hits, 64u);
}

TEST(OfflineSim, StatsCoverWholeTrace)
{
    const FrameTrace t = syntheticTrace();
    const RunResult r = runTrace(t, policySpec("DRRIP"), tinyLlc());
    EXPECT_EQ(r.stats.totalAccesses(), t.accesses.size());
    // Everything fits in 1024 blocks: texture reads all hit.
    EXPECT_EQ(r.stats.of(StreamType::Texture).hits, 64u);
    EXPECT_EQ(r.characterization.rtConsumptions, 64u);
}

TEST(OfflineSim, BeladyOracleBuiltOnDemand)
{
    const FrameTrace t = syntheticTrace();
    const RunResult r = runTrace(t, policySpec("Belady"), tinyLlc());
    EXPECT_EQ(r.stats.of(StreamType::Texture).hits, 64u);
}

TEST(OfflineSim, UcdBypassesDisplayOnly)
{
    const FrameTrace t = syntheticTrace();
    const RunResult r =
        runTrace(t, policySpec("DRRIP+UCD"), tinyLlc());
    EXPECT_EQ(r.stats.of(StreamType::Display).bypasses, 32u);
    EXPECT_EQ(r.stats.of(StreamType::Display).misses, 0u);
    EXPECT_EQ(r.stats.of(StreamType::Z).misses, 32u);
}

TEST(OfflineSim, DramTraceOnRequest)
{
    const FrameTrace t = syntheticTrace();
    RunOptions options;
    options.collectDramTrace = true;
    const RunResult r =
        runTrace(t, policySpec("DRRIP"), tinyLlc(), options);
    // Misses: 64 RT + 32 Z + 32 display = 128 (textures hit); no
    // capacity evictions, so no writebacks.
    EXPECT_EQ(r.dramTrace.size(), 128u);
    const RunResult no_collect =
        runTrace(t, policySpec("DRRIP"), tinyLlc());
    EXPECT_TRUE(no_collect.dramTrace.empty());
}

TEST(OfflineSim, DramTraceIncludesWritebacks)
{
    // Overflow a tiny LLC with dirty blocks: writebacks appear.
    FrameTrace t;
    for (Addr b = 0; b < 1024; ++b)
        t.accesses.emplace_back(b * kBlockBytes,
                                StreamType::RenderTarget, true);
    LlcConfig config;
    config.capacityBytes = 16 * 1024;  // 256 blocks
    config.ways = 4;
    config.banks = 1;
    RunOptions options;
    options.collectDramTrace = true;
    const RunResult r =
        runTrace(t, policySpec("LRU"), config, options);
    EXPECT_GT(r.dramTrace.size(), 1024u);
    EXPECT_EQ(r.stats.writebacks, r.dramTrace.size() - 1024u);
}

TEST(OfflineSim, CharacterizeOffKeepsReplayIdentical)
{
    // The observer only watches: without the Characterizer the
    // replay's stats and DRAM traffic are the same, and the
    // characterization stays empty.
    const FrameTrace t = syntheticTrace();
    RunOptions options;
    options.collectDramTrace = true;
    const RunResult with =
        runTrace(t, policySpec("GSPC+UCD"), tinyLlc(), options);
    options.characterize = false;
    const RunResult without =
        runTrace(t, policySpec("GSPC+UCD"), tinyLlc(), options);
    EXPECT_GT(with.characterization.rtConsumptions, 0u);
    EXPECT_EQ(without.characterization.rtProductions, 0u);
    EXPECT_EQ(without.characterization.rtConsumptions, 0u);
    EXPECT_EQ(with.stats.totalMisses(), without.stats.totalMisses());
    EXPECT_EQ(with.stats.writebacks, without.stats.writebacks);
    ASSERT_EQ(with.dramTrace.size(), without.dramTrace.size());
    for (std::size_t i = 0; i < with.dramTrace.size(); ++i) {
        EXPECT_EQ(with.dramTrace[i].addr, without.dramTrace[i].addr);
        EXPECT_EQ(with.dramTrace[i].isWrite,
                  without.dramTrace[i].isWrite);
    }
}

TEST(OfflineSim, DramTraceIsOneAllocation)
{
    // Every access adds at most two DRAM entries, so the reservation
    // made up front is never outgrown.  (1000 accesses: growth by
    // doubling would end at a power of two.)
    FrameTrace t;
    for (Addr b = 0; b < 1000; ++b)
        t.accesses.emplace_back(b * kBlockBytes,
                                StreamType::RenderTarget, true);
    LlcConfig config;
    config.capacityBytes = 16 * 1024;
    config.ways = 4;
    config.banks = 1;
    RunOptions options;
    options.collectDramTrace = true;
    const RunResult r =
        runTrace(t, policySpec("LRU"), config, options);
    EXPECT_GT(r.dramTrace.size(), t.accesses.size());
    EXPECT_EQ(r.dramTrace.capacity(), 2 * t.accesses.size());
}

TEST(OfflineSim, FillHistogramReturned)
{
    const FrameTrace t = syntheticTrace();
    const RunResult r = runTrace(t, policySpec("DRRIP"), tinyLlc());
    EXPECT_EQ(r.fills.fills(PolicyStream::RenderTarget), 64u + 32u);
    EXPECT_EQ(r.fills.fills(PolicyStream::Z), 32u);
    EXPECT_EQ(r.fills.fills(PolicyStream::Texture), 0u);  // all hits
}

TEST(OfflineSim, ScaledLlcConfig)
{
    const LlcConfig full = scaledLlcConfig(8ull << 20, 1);
    EXPECT_EQ(full.capacityBytes, 8ull << 20);
    const LlcConfig quarter = scaledLlcConfig(8ull << 20, 16);
    EXPECT_EQ(quarter.capacityBytes, 512u * 1024);
    // Floor guards tiny scales.
    const LlcConfig tiny = scaledLlcConfig(1 << 20, 256);
    EXPECT_EQ(tiny.capacityBytes, 64u * 1024);
}

TEST(OfflineSim, PoliciesAreIndependentAcrossRuns)
{
    const FrameTrace t = syntheticTrace();
    const RunResult a = runTrace(t, policySpec("GSPC"), tinyLlc());
    const RunResult b = runTrace(t, policySpec("GSPC"), tinyLlc());
    EXPECT_EQ(a.stats.totalMisses(), b.stats.totalMisses());
    EXPECT_EQ(a.characterization.rtConsumptions,
              b.characterization.rtConsumptions);
}
