/**
 * @file
 * Tests for the invariant-audit layer (src/common/audit.hh).
 *
 * Two halves: positive tests show the auditors are silent on correct
 * state and that an audited replay is bit-identical to an unaudited
 * one; death tests corrupt policy/cache state through the debug
 * hooks and assert the audit aborts with the right check name in the
 * structured report.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "cache/banked_llc.hh"
#include "cache/policy/belady.hh"
#include "cache/policy/drrip.hh"
#include "cache/policy/gs_drrip.hh"
#include "cache/policy/ship_mem.hh"
#include "cache/rrip.hh"
#include "common/audit.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "core/gspc_family.hh"
#include "core/stream_counters.hh"

using namespace gllc;

namespace
{

/** Every test here runs with the audit layer forced on. */
class AuditTest : public ::testing::Test
{
  protected:
    void SetUp() override { setAuditActive(true); }
    void TearDown() override { setAuditActive(false); }
};

/** gtest runs suites named *DeathTest first; same fixture. */
using AuditDeathTest = AuditTest;

/** A small LLC (1 bank x 256 sets x 4 ways) for occupancy tests. */
LlcConfig
smallConfig()
{
    LlcConfig config;
    config.capacityBytes = 64 * 1024;
    config.ways = 4;
    config.banks = 1;
    return config;
}

/** Deterministic mixed-stream trace over a 1 MB footprint. */
std::vector<MemAccess>
makeTrace(std::size_t n, std::uint64_t seed)
{
    static const StreamType kStreams[] = {
        StreamType::Z, StreamType::Texture, StreamType::RenderTarget,
        StreamType::Other};
    Rng rng(seed);
    std::vector<MemAccess> trace;
    trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Addr addr = rng.below(1u << 20) & ~static_cast<Addr>(63);
        const StreamType s = kStreams[rng.below(4)];
        trace.emplace_back(addr, s, s == StreamType::RenderTarget);
    }
    return trace;
}

/** Replay a trace and return the final statistics. */
LlcStats
replay(const std::vector<MemAccess> &trace, const PolicyFactory &factory)
{
    BankedLlc llc(smallConfig(), factory);
    for (std::size_t i = 0; i < trace.size(); ++i)
        llc.access(trace[i], i);
    return llc.stats();
}

// ---------------------------------------------------------------
// Activation and context plumbing
// ---------------------------------------------------------------

TEST_F(AuditTest, SetAuditActiveToggles)
{
    EXPECT_TRUE(auditActive());
    setAuditActive(false);
    EXPECT_FALSE(auditActive());
    setAuditActive(true);
    EXPECT_TRUE(auditActive());
}

TEST(AuditActivation, UndecidedStateResolvesFromTheEnvironment)
{
#ifdef GLLC_AUDIT_BUILD
    constexpr bool kBuildAudits = true;
#else
    constexpr bool kBuildAudits = false;
#endif
    const std::string kUnset = "<unset>";
    const std::string saved = envString("GLLC_AUDIT", kUnset);

    ::setenv("GLLC_AUDIT", "1", 1);
    resetAuditActive();
    EXPECT_TRUE(auditActive());
    // Decided: the fast path no longer reads the environment.
    ::setenv("GLLC_AUDIT", "0", 1);
    EXPECT_TRUE(auditActive());

    // Undecided again: the first query reads it afresh.
    resetAuditActive();
    EXPECT_EQ(auditActive(), kBuildAudits);
    ::setenv("GLLC_AUDIT", "1", 1);
    EXPECT_EQ(auditActive(), kBuildAudits);

    // An override beats both the environment and the build flag.
    setAuditActive(false);
    EXPECT_FALSE(auditActive());

    if (saved != kUnset)
        ::setenv("GLLC_AUDIT", saved.c_str(), 1);
    else
        ::unsetenv("GLLC_AUDIT");
    resetAuditActive();
}

TEST_F(AuditTest, AuditScopeRestoresContext)
{
    auditContext() = AuditContext{};
    auditContext().policy = "outer";
    auditContext().frame = 7;
    {
        AuditScope scope;
        auditContext().policy = "inner";
        auditContext().frame = 99;
        auditContext().set = 12;
    }
    EXPECT_EQ(auditContext().policy, "outer");
    EXPECT_EQ(auditContext().frame, 7);
    EXPECT_EQ(auditContext().set, -1);
    auditContext() = AuditContext{};
}

TEST_F(AuditTest, AccessPopulatesContext)
{
    AuditScope scope;
    BankedLlc llc(smallConfig(), DrripPolicy::factory());
    const MemAccess a(0x1040, StreamType::Texture, false);
    llc.access(a, 17);
    EXPECT_EQ(auditContext().accessIndex, 17);
    EXPECT_EQ(auditContext().stream, streamName(StreamType::Texture));
    EXPECT_EQ(auditContext().bank, 0);
    EXPECT_GE(auditContext().set, 0);
}

TEST_F(AuditDeathTest, ReportNamesCellAndAccess)
{
    AuditScope scope;
    auditContext().app = "unittest";
    auditContext().frame = 3;
    auditContext().policy = "GSPC";
    auditContext().accessIndex = 41;
    EXPECT_DEATH(auditFail("TestComp", "test-check", "detail %d", 42),
                 "component: TestComp  check: test-check");
    EXPECT_DEATH(auditFail("TestComp", "test-check", "detail %d", 42),
                 "app=unittest frame=3 policy=GSPC");
    EXPECT_DEATH(auditFail("TestComp", "test-check", "detail %d", 42),
                 "detail 42");
}

// ---------------------------------------------------------------
// RRPV range
// ---------------------------------------------------------------

TEST_F(AuditTest, CleanRripStatePassesAudit)
{
    RripState rrip(2);
    rrip.configure(4, 4);
    rrip.set(0, 0, 3);
    rrip.set(0, 1, 0);
    rrip.auditAll("TestPolicy");  // must not die
}

TEST_F(AuditDeathTest, CorruptRrpvFailsRangeCheck)
{
    RripState rrip(2);
    rrip.configure(4, 4);
    rrip.set(0, 1, 7);  // 7 > max 3 for a 2-bit policy
    EXPECT_DEATH(rrip.auditSet(0, "TestPolicy"), "rrpv-range");
    EXPECT_DEATH(rrip.auditSet(0, "TestPolicy"),
                 "holds rrpv 7 > max 3");
}

TEST_F(AuditDeathTest, VictimSelectionAuditsItsSetFirst)
{
    // A wrapped RRPV would make the aging loop spin; the audit must
    // catch it before victim selection walks the set.
    RripState rrip(2);
    rrip.configure(4, 4);
    rrip.set(0, 2, 200);
    EXPECT_DEATH(rrip.selectVictim(0), "rrpv-range");
}

// ---------------------------------------------------------------
// Figure-10 epoch FSM
// ---------------------------------------------------------------

TEST_F(AuditTest, LegalBlockTransitionTable)
{
    const auto tex = PolicyStream::Texture;
    const auto rt = PolicyStream::RenderTarget;
    const auto z = PolicyStream::Z;

    // Fills reset the state regardless of the previous occupant.
    EXPECT_TRUE(legalBlockTransition(BlockState::RenderTarget,
                                     BlockState::TexE0, tex, true));
    EXPECT_TRUE(legalBlockTransition(BlockState::TexE2Plus,
                                     BlockState::RenderTarget, rt, true));
    EXPECT_FALSE(legalBlockTransition(BlockState::TexE0,
                                      BlockState::TexE1, tex, true));

    // Texture hits walk RT->E0->E1->E>=2 with E>=2 absorbing.
    EXPECT_TRUE(legalBlockTransition(BlockState::RenderTarget,
                                     BlockState::TexE0, tex, false));
    EXPECT_TRUE(legalBlockTransition(BlockState::TexE0,
                                     BlockState::TexE1, tex, false));
    EXPECT_TRUE(legalBlockTransition(BlockState::TexE1,
                                     BlockState::TexE2Plus, tex, false));
    EXPECT_TRUE(legalBlockTransition(BlockState::TexE2Plus,
                                     BlockState::TexE2Plus, tex, false));
    EXPECT_FALSE(legalBlockTransition(BlockState::TexE1,
                                      BlockState::TexE0, tex, false));
    EXPECT_FALSE(legalBlockTransition(BlockState::TexE0,
                                      BlockState::TexE2Plus, tex, false));

    // RT hits mark the block a render target; Z hits change nothing.
    EXPECT_TRUE(legalBlockTransition(BlockState::TexE1,
                                     BlockState::RenderTarget, rt, false));
    EXPECT_TRUE(legalBlockTransition(BlockState::TexE1,
                                     BlockState::TexE1, z, false));
    EXPECT_FALSE(legalBlockTransition(BlockState::TexE1,
                                      BlockState::TexE0, z, false));
}

TEST_F(AuditDeathTest, IllegalEpochTransitionFailsAudit)
{
    EXPECT_DEATH(auditBlockTransition(BlockState::TexE1,
                                      BlockState::TexE0,
                                      PolicyStream::Texture, false),
                 "epoch-fsm");
    EXPECT_DEATH(auditBlockTransition(BlockState::TexE1,
                                      BlockState::TexE0,
                                      PolicyStream::Texture, false),
                 "E1 -> E0");
}

TEST_F(AuditDeathTest, CorruptBlockStateEncodingFailsAudit)
{
    GspcFamilyPolicy policy(GspcVariant::Gspc);
    policy.configure(256, 4);
    policy.debugSetBlockStateRaw(3, 2, 0x7);
    EXPECT_DEATH(policy.auditInvariants(3), "block-state");
}

// ---------------------------------------------------------------
// Learning counters
// ---------------------------------------------------------------

TEST_F(AuditTest, CleanCountersPassAudit)
{
    StreamReuseCounters counters;
    for (int i = 0; i < 1000; ++i) {
        counters.recordZFill();
        counters.recordTexHitEpoch(0);
        counters.recordRtProduce();
        counters.recordAccess();
    }
    counters.auditInvariants("GspcFamily");  // must not die
}

TEST_F(AuditDeathTest, CorruptCounterFailsRangeCheck)
{
    StreamReuseCounters counters;  // 8-bit counters, max 255
    counters.debugForceCounter("PROD", 300);
    EXPECT_DEATH(counters.auditInvariants("GspcFamily"),
                 "counter PROD holds 300 > max 255");
}

TEST_F(AuditDeathTest, CorruptCounterInsidePolicyFailsAudit)
{
    GspcFamilyPolicy policy(GspcVariant::Gspc);
    policy.configure(256, 4);
    policy.debugCounters().debugForceCounter("HIT_TEX_E1", 999);
    EXPECT_DEATH(policy.auditInvariants(0), "counter-range");
}

// ---------------------------------------------------------------
// Set-dueling state
// ---------------------------------------------------------------

TEST_F(AuditTest, DuelFamiliesAreDisjointForAllGroupCounts)
{
    auditDuelFamilies(1, "DrripPolicy");  // must not die
    auditDuelFamilies(static_cast<unsigned>(kNumPolicyStreams),
                      "GsDrripPolicy");
}

TEST_F(AuditDeathTest, CorruptDrripPselFailsAudit)
{
    DrripPolicy policy;
    policy.configure(256, 4);
    policy.debugPsel().debugForceValue(100000);  // 10-bit max 1023
    EXPECT_DEATH(policy.auditInvariants(0), "psel-range");
}

TEST_F(AuditDeathTest, CorruptGsDrripStreamPselFailsAudit)
{
    GsDrripPolicy policy;
    policy.configure(256, 4);
    policy.debugPsel(PolicyStream::Texture).debugForceValue(4096);
    EXPECT_DEATH(policy.auditInvariants(0), "psel-range");
}

// ---------------------------------------------------------------
// SHiP signatures and Belady future knowledge
// ---------------------------------------------------------------

TEST_F(AuditDeathTest, CorruptShipSignatureFailsAudit)
{
    ShipMemPolicy policy;
    policy.configure(256, 4);
    policy.debugForceSignature(0, 0, 0x7fff);  // 14-bit max 0x3fff
    EXPECT_DEATH(policy.auditInvariants(0), "signature-range");
}

TEST_F(AuditTest, BeladyAcceptsMonotonicFutureIndices)
{
    BeladyPolicy policy;
    policy.configure(256, 4);
    const MemAccess a(0x0, StreamType::Texture, false);
    policy.onFill(0, 0, AccessInfo{&a, 10, 20});
    policy.onHit(0, 0, AccessInfo{&a, 20, kNever});  // must not die
}

TEST_F(AuditDeathTest, BeladyRejectsPastFutureIndex)
{
    BeladyPolicy policy;
    policy.configure(256, 4);
    const MemAccess a(0x0, StreamType::Texture, false);
    // Claims the next use of this block happened 50 accesses ago.
    EXPECT_DEATH(policy.onFill(0, 0, AccessInfo{&a, 100, 50}),
                 "future-monotonic");
}

// ---------------------------------------------------------------
// LLC occupancy
// ---------------------------------------------------------------

TEST_F(AuditDeathTest, DuplicateTagFailsAudit)
{
    BankedLlc llc(smallConfig(), DrripPolicy::factory());
    const MemAccess a(0x0, StreamType::Other, false);
    llc.access(a, 0);  // tag 0 now resident in set 0 way 0
    llc.debugCorruptEntry(0, 0, 1, 0, true);
    EXPECT_DEATH(llc.auditAll(), "duplicate-tag");
}

TEST_F(AuditDeathTest, MisplacedTagFailsGeometryCheck)
{
    BankedLlc llc(smallConfig(), DrripPolicy::factory());
    // Tag 1 belongs to set 1; plant it in set 0.
    llc.debugCorruptEntry(0, 0, 0, 1, true);
    EXPECT_DEATH(llc.auditAll(), "tag-geometry");
}

TEST_F(AuditDeathTest, AccessPathCatchesCorruption)
{
    // Corruption must be caught by the per-access audit hook, not
    // only by an explicit auditAll() call.
    BankedLlc llc(smallConfig(), DrripPolicy::factory());
    const MemAccess first(0x0, StreamType::Other, false);
    llc.access(first, 0);
    llc.debugCorruptEntry(0, 0, 1, 0, true);
    const MemAccess again(0x0, StreamType::Other, false);
    EXPECT_DEATH(llc.access(again, 1), "duplicate-tag");
}

TEST_F(AuditDeathTest, LowTagDisagreementFailsAudit)
{
    // The probe reads the low-tag row; a low tag that is not its full
    // tag's low 32 bits would hide a resident block.
    BankedLlc llc(smallConfig(), DrripPolicy::factory());
    const MemAccess a(0x0, StreamType::Other, false);
    llc.access(a, 0);  // tag 0 in set 0 way 0
    llc.debugCorruptLowTag(0, 0, 0, 1);
    EXPECT_DEATH(llc.auditAll(), "low-tag");

    // A padding lane past the 4 ways must hold the invalid marker.
    BankedLlc padded(smallConfig(), DrripPolicy::factory());
    padded.debugCorruptLowTag(0, 0, 4, 0);
    EXPECT_DEATH(padded.auditAll(), "low-tag");
}

// ---------------------------------------------------------------
// Read-only guarantee: audited replay is bit-identical
// ---------------------------------------------------------------

TEST_F(AuditTest, AuditedReplayIsBitIdentical)
{
    const std::vector<MemAccess> trace = makeTrace(20000, 0x5eed);
    const PolicyFactory factory =
        GspcFamilyPolicy::factory(GspcVariant::Gspc);

    setAuditActive(false);
    const LlcStats plain = replay(trace, factory);
    setAuditActive(true);
    const LlcStats audited = replay(trace, factory);

    for (std::size_t s = 0; s < kNumStreams; ++s) {
        EXPECT_EQ(plain.stream[s].accesses, audited.stream[s].accesses);
        EXPECT_EQ(plain.stream[s].hits, audited.stream[s].hits);
        EXPECT_EQ(plain.stream[s].misses, audited.stream[s].misses);
        EXPECT_EQ(plain.stream[s].bypasses, audited.stream[s].bypasses);
    }
    EXPECT_EQ(plain.writebacks, audited.writebacks);
    EXPECT_EQ(plain.evictions, audited.evictions);
}

TEST_F(AuditTest, AuditedReplayIsCleanForEveryPolicyFamily)
{
    const std::vector<MemAccess> trace = makeTrace(5000, 0xcafe);
    const PolicyFactory factories[] = {
        DrripPolicy::factory(),
        GsDrripPolicy::factory(),
        ShipMemPolicy::factory(),
        GspcFamilyPolicy::factory(GspcVariant::Gspztc),
        GspcFamilyPolicy::factory(GspcVariant::GspztcTse),
        GspcFamilyPolicy::factory(GspcVariant::Gspc),
    };
    for (const auto &factory : factories) {
        BankedLlc llc(smallConfig(), factory);
        for (std::size_t i = 0; i < trace.size(); ++i)
            llc.access(trace[i], i);
        llc.auditAll();  // must not die
    }
}

} // namespace
