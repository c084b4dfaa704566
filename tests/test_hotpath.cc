/**
 * @file
 * Replay hot-path guarantees (DESIGN.md section 9): every registered
 * policy reproduces pinned digests of its statistics,
 * characterization and fill histogram on a pinned synthetic trace,
 * so a change to the access path cannot shift a result unnoticed;
 * and the hotpath benchmark emits its stable "gllc-hotpath-v1"
 * schema.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "analysis/offline_sim.hh"
#include "analysis/policy_table.hh"
#include "bench/hotpath.hh"
#include "common/decision_log.hh"
#include "common/hash.hh"

using namespace gllc;

namespace
{

/** Small but multi-bank LLC the pinned trace thrashes properly. */
LlcConfig
smallConfig()
{
    LlcConfig config;
    config.capacityBytes = 256 * 1024;
    config.ways = 16;
    config.banks = 4;
    return config;
}

void
expectStatsEqual(const LlcStats &a, const LlcStats &b,
                 const std::string &what)
{
    for (std::size_t i = 0; i < kNumStreams; ++i) {
        SCOPED_TRACE(what + " stream " + std::to_string(i));
        EXPECT_EQ(a.stream[i].accesses, b.stream[i].accesses);
        EXPECT_EQ(a.stream[i].hits, b.stream[i].hits);
        EXPECT_EQ(a.stream[i].misses, b.stream[i].misses);
        EXPECT_EQ(a.stream[i].bypasses, b.stream[i].bypasses);
    }
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
}

void
expectCharacterizationEqual(const Characterization &a,
                            const Characterization &b,
                            const std::string &what)
{
    EXPECT_EQ(a.interTexHits, b.interTexHits) << what;
    EXPECT_EQ(a.intraTexHits, b.intraTexHits) << what;
    EXPECT_EQ(a.rtProductions, b.rtProductions) << what;
    EXPECT_EQ(a.rtConsumptions, b.rtConsumptions) << what;
    for (unsigned k = 0; k < Characterization::kEpochs; ++k) {
        EXPECT_EQ(a.texEpochHits[k], b.texEpochHits[k]) << what;
        EXPECT_EQ(a.texReach[k], b.texReach[k]) << what;
        EXPECT_EQ(a.zReach[k], b.zReach[k]) << what;
    }
}

/** FNV-1a fold of one 64-bit value into @p h. */
void
fold(std::uint64_t &h, std::uint64_t v)
{
    h = fnv1a64(&v, sizeof(v), h);
}

/** Digest of a replay's statistics, characterization and fills. */
std::uint64_t
resultDigest(const RunResult &r)
{
    std::uint64_t h = kFnvOffset;
    for (const LlcStats::PerStream &s : r.stats.stream) {
        fold(h, s.accesses);
        fold(h, s.hits);
        fold(h, s.misses);
        fold(h, s.bypasses);
    }
    fold(h, r.stats.writebacks);
    fold(h, r.stats.evictions);

    const Characterization &c = r.characterization.value();
    fold(h, c.interTexHits);
    fold(h, c.intraTexHits);
    fold(h, c.rtProductions);
    fold(h, c.rtConsumptions);
    for (unsigned k = 0; k < Characterization::kEpochs; ++k) {
        fold(h, c.texEpochHits[k]);
        fold(h, c.texReach[k]);
        fold(h, c.zReach[k]);
    }

    for (const auto &stream : r.fills.counts)
        for (const std::uint64_t n : stream)
            fold(h, n);
    return h;
}

/** Digest of a DRAM-bound access trace, in order. */
std::uint64_t
dramDigest(const std::vector<MemAccess> &trace)
{
    std::uint64_t h = kFnvOffset;
    fold(h, trace.size());
    for (const MemAccess &a : trace) {
        fold(h, a.addr);
        fold(h, static_cast<std::uint64_t>(a.stream));
        fold(h, a.isWrite ? 1 : 0);
        fold(h, a.cycle);
    }
    return h;
}

/**
 * resultDigest() of every allPolicySpecs() entry replaying
 * syntheticHotpathTrace(20000, 42) through smallConfig().  A failure
 * prints the entry's new line for this table; update it only for a
 * change meant to alter simulated results.
 */
const std::map<std::string, std::uint64_t> kPolicyDigests = {
    {"NRU", 0x1fe38de482888cdaull},
    {"NRU+UCD", 0xa53cbaba4e2a93efull},
    {"LRU", 0x0eb6e823b4545e0bull},
    {"LRU+UCD", 0xe8de382815654997ull},
    {"Random", 0xfed56274c4451b12ull},
    {"Random+UCD", 0x647edb728171199dull},
    {"SRRIP", 0x5f0406c415c4e0cfull},
    {"SRRIP+UCD", 0xb38540d00c219b10ull},
    {"DRRIP", 0x949e33619b19ee75ull},
    {"DRRIP+UCD", 0x3447c75e62b8fb2eull},
    {"DRRIP-4", 0x97818f09641bf994ull},
    {"DRRIP-4+UCD", 0x367d9c20e0ad75f9ull},
    {"GS-DRRIP", 0x2d8033e154a02102ull},
    {"GS-DRRIP+UCD", 0xa56fd9bffa331325ull},
    {"GS-DRRIP-4", 0xb47763d2f3346747ull},
    {"GS-DRRIP-4+UCD", 0x8235b8efa01c1257ull},
    {"SHiP-mem", 0x0212f003d2085c0aull},
    {"SHiP-mem+UCD", 0xfd927e7ba0d67417ull},
    {"DIP", 0xc69a17829589c555ull},
    {"DIP+UCD", 0x3609811e0c276256ull},
    {"UCP-stream", 0xb359dd7e28e15c03ull},
    {"UCP-stream+UCD", 0xb383274156dbd5a5ull},
    {"peLIFO", 0xfbfca1481c10e4c2ull},
    {"peLIFO+UCD", 0xf50be38759da8ab2ull},
    {"Belady", 0x786bef966d5c17aaull},
    {"Belady+UCD", 0x7277e89aca4b32f1ull},
    {"GSPZTC", 0x31ffac6027d3eb0aull},
    {"GSPZTC+UCD", 0x54aeae8f66f4d2ebull},
    {"GSPZTC+TSE", 0x04bb83e92d156a75ull},
    {"GSPZTC+TSE+UCD", 0xfc0b800acaa36efbull},
    {"GSPC", 0x6044401882cdbbf9ull},
    {"GSPC+UCD", 0x46afa204b9888cc3ull},
    {"GSPC+B", 0x9495d382a1423a17ull},
    {"GSPC+B+UCD", 0x976ab09963cbbf79ull},
    {"GSPZTC(t=2)", 0xa82ee6b100a54515ull},
    {"GSPZTC(t=2)+UCD", 0x07492375c6ebdebcull},
    {"GSPZTC(t=4)", 0x50ca357f4ea15891ull},
    {"GSPZTC(t=4)+UCD", 0x24a90b4fefdf2118ull},
    {"GSPZTC(t=8)", 0x31ffac6027d3eb0aull},
    {"GSPZTC(t=8)+UCD", 0x54aeae8f66f4d2ebull},
    {"GSPZTC(t=16)", 0xaf07a46a1620f3c6ull},
    {"GSPZTC(t=16)+UCD", 0x54aeae8f66f4d2ebull},
};

/** dramDigest() of DRRIP+UCD on syntheticHotpathTrace(20000, 7). */
constexpr std::uint64_t kDramDigest = 0x999be6e8659e8c2aull;

} // namespace

/**
 * Every registered policy variant (base, +UCD, threshold sweeps)
 * reproduces its pinned digest.
 */
TEST(HotpathGolden, AllPolicyVariantsMatchPinnedDigests)
{
    const FrameTrace trace = syntheticHotpathTrace(20000, 42);
    const LlcConfig config = smallConfig();

    const std::vector<PolicySpec> specs = allPolicySpecs();
    EXPECT_EQ(specs.size(), kPolicyDigests.size());
    for (const PolicySpec &spec : specs) {
        const std::uint64_t digest = resultDigest(
            runTrace(trace, spec, config, {.characterize = true}));
        const auto pinned = kPolicyDigests.find(spec.name);
        ASSERT_NE(pinned, kPolicyDigests.end()) << spec.name;
        EXPECT_EQ(digest, pinned->second)
            << "    {\"" << spec.name << "\", 0x" << std::hex
            << digest << "ull},";
    }
}

/** The DRAM-bound traffic stream reproduces its pinned digest. */
TEST(HotpathGolden, DramTraceMatchesPinnedDigest)
{
    const FrameTrace trace = syntheticHotpathTrace(20000, 7);
    RunOptions options;
    options.collectDramTrace = true;
    const RunResult r = runTrace(trace, policySpec("DRRIP+UCD"),
                                 smallConfig(), options);
    EXPECT_FALSE(r.dramTrace.empty());
    const std::uint64_t digest = dramDigest(r.dramTrace);
    EXPECT_EQ(digest, kDramDigest) << "0x" << std::hex << digest;
}

/**
 * Decision logging must not perturb results; the run actually
 * records decisions.
 */
TEST(HotpathBitIdentity, DecisionLoggingUnperturbed)
{
    const FrameTrace trace = syntheticHotpathTrace(10000, 3);
    const LlcConfig config = smallConfig();
    const PolicySpec spec = policySpec("GSPC");

    const RunResult base =
        runTrace(trace, spec, config, {.characterize = true});

    DecisionLog::setDepth(128);
    DecisionLog::local().clear();
    const RunResult logged =
        runTrace(trace, spec, config, {.characterize = true});
    const std::size_t recorded = DecisionLog::local().size();
    DecisionLog::setDepth(0);

    EXPECT_EQ(recorded, 128u);
    expectStatsEqual(base.stats, logged.stats, "logged");
    expectCharacterizationEqual(base.characterization.value(),
                                logged.characterization.value(),
                                "logged");
}

/** Same (length, seed) reproduces the synthetic trace exactly. */
TEST(HotpathSynthetic, TraceIsPinnedBySeed)
{
    const FrameTrace a = syntheticHotpathTrace(5000, 42);
    const FrameTrace b = syntheticHotpathTrace(5000, 42);
    const FrameTrace c = syntheticHotpathTrace(5000, 43);
    ASSERT_EQ(a.accesses.size(), 5000u);
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    bool differs = false;
    for (std::size_t i = 0; i < a.accesses.size(); ++i) {
        ASSERT_EQ(a.accesses[i].addr, b.accesses[i].addr) << i;
        ASSERT_EQ(a.accesses[i].stream, b.accesses[i].stream) << i;
        ASSERT_EQ(a.accesses[i].isWrite, b.accesses[i].isWrite) << i;
        ASSERT_EQ(a.accesses[i].cycle, b.accesses[i].cycle) << i;
        differs = differs || a.accesses[i].addr != c.accesses[i].addr;
    }
    EXPECT_TRUE(differs);
}

/** The benchmark JSON carries the stable v1 schema fields. */
TEST(HotpathSchema, JsonHasStableFields)
{
    HotpathOptions options;
    options.syntheticAccesses = 4000;
    options.realFrames = 0;
    options.repeats = 2;
    options.policies = {"NRU", "DRRIP"};

    const HotpathReport report = runHotpathBench(options);
    ASSERT_EQ(report.policies.size(), 2u);
    for (const HotpathPolicyResult &p : report.policies) {
        EXPECT_EQ(p.totalAccesses, 2u * 4000u) << p.policy;
        EXPECT_GT(p.accessesPerSec, 0.0) << p.policy;
        EXPECT_GT(p.misses, 0u) << p.policy;
        EXPECT_LE(p.p50CellMs, p.p95CellMs) << p.policy;
    }

    std::ostringstream os;
    writeHotpathJson(os, report);
    const std::string json = os.str();
    for (const char *needle :
         {"\"schema\": \"gllc-hotpath-v1\"", "\"config\"",
          "\"scale\"", "\"synthetic_accesses\"", "\"real_frames\"",
          "\"repeats\"", "\"generic_path\"", "\"policies\"",
          "\"policy\": \"NRU\"", "\"policy\": \"DRRIP\"",
          "\"total_accesses\"", "\"total_seconds\"",
          "\"accesses_per_sec\"", "\"p50_cell_ms\"",
          "\"p95_cell_ms\"", "\"misses\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
}

/** The misses fingerprint is deterministic and pinned. */
TEST(HotpathSchema, MissFingerprintIsPinned)
{
    HotpathOptions options;
    options.syntheticAccesses = 4000;
    options.realFrames = 0;
    options.repeats = 1;
    options.policies = {"SRRIP", "GSPC+B"};

    const HotpathReport report = runHotpathBench(options);
    ASSERT_EQ(report.policies.size(), 2u);
    EXPECT_EQ(report.policies[0].misses, 3177u);
    EXPECT_EQ(report.policies[1].misses, 3230u);
}
