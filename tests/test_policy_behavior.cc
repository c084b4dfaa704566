/**
 * @file
 * Deeper behavioural tests: dueling leader mechanics, GSPC counter
 * decay through the policy interface, insertion-RRPV distributions
 * per GSPC variant, and UCD interplay with the learning counters.
 */

#include <gtest/gtest.h>

#include "analysis/offline_sim.hh"
#include "cache/banked_llc.hh"
#include "cache/policy/drrip.hh"
#include "cache/policy/gs_drrip.hh"
#include "core/gspc_family.hh"

using namespace gllc;

namespace
{

MemAccess
acc(Addr block, StreamType s, bool write = false)
{
    return MemAccess(block * kBlockBytes, s, write);
}

AccessInfo
info(const MemAccess &a)
{
    return AccessInfo{&a, 0, kNever};
}

} // namespace

TEST(DuelMechanics, SrripLeaderAlwaysInsertsDistant)
{
    // Set 0 is DRRIP's SRRIP leader (offset 0 in its constituency);
    // its fills must be at RRPV 2 regardless of the PSEL state.
    DrripPolicy drrip(2);
    drrip.configure(64, 4);
    const MemAccess a = acc(1, StreamType::Texture);
    // Push the duel hard toward BRRIP by missing in set 0 a lot.
    for (int i = 0; i < 2000; ++i)
        drrip.onFill(0, 0, info(a));
    const FillHistogram *h = drrip.fillHistogram();
    // All of those fills happened in the SRRIP leader: RRPV 2 only.
    EXPECT_EQ(h->fillsAt(PolicyStream::Texture, 2), 2000u);
    EXPECT_EQ(h->fillsAt(PolicyStream::Texture, 3), 0u);
}

TEST(DuelMechanics, BrripLeaderMostlyInsertsAtMax)
{
    DrripPolicy drrip(2);
    drrip.configure(64, 4);
    const MemAccess a = acc(1, StreamType::Texture);
    // Set 33 is the BRRIP leader of the first constituency.
    for (int i = 0; i < 320; ++i)
        drrip.onFill(33, 0, info(a));
    const FillHistogram *h = drrip.fillHistogram();
    EXPECT_EQ(h->fillsAt(PolicyStream::Texture, 3), 310u);
    EXPECT_EQ(h->fillsAt(PolicyStream::Texture, 2), 10u);
}

TEST(DuelMechanics, GsDrripLeadersAreStreamLocal)
{
    // A Z access in TEXTURE's leader set must not vote in texture's
    // duel: it follows Z's PSEL.  We verify leader isolation by
    // checking that stream k's leader offsets differ per stream.
    std::set<std::uint32_t> offsets;
    for (unsigned g = 0; g < 4; ++g) {
        for (std::uint32_t s = 0; s < 64; ++s) {
            if (duelRole(s, g) == DuelRole::SrripLeader)
                offsets.insert(s);
        }
    }
    EXPECT_EQ(offsets.size(), 4u);
}

TEST(GspcDecay, HalvingKeepsDecisionsFresh)
{
    // Drive a phase change through the policy: a long dead-texture
    // phase followed by an alive phase.  The ACC-driven halving must
    // let the insertion decision flip within a bounded number of
    // sample events.
    GspcFamilyPolicy p(GspcVariant::Gspc, 8);
    p.configure(128, 4);
    const MemAccess tex = acc(0, StreamType::Texture);

    for (int i = 0; i < 500; ++i)
        p.onFill(0, 0, info(tex));  // dead phase in the sample set
    p.onFill(1, 0, info(tex));
    EXPECT_EQ(p.rrpvOf(1, 0), 3);  // condemned

    // Alive phase: hits only.  Counters halve roughly every 127
    // sample accesses; the fills decay while the hits grow.
    for (int i = 0; i < 2000; ++i) {
        p.onFill(0, 0, info(tex));
        p.onHit(0, 0, info(tex));
        p.onHit(0, 1, info(tex));
        p.onHit(0, 2, info(tex));
        p.onEvict(0, 0);
    }
    p.onFill(1, 1, info(tex));
    EXPECT_EQ(p.rrpvOf(1, 1), 0);  // rehabilitated
}

TEST(GspcVariants, RtFillHistogramsDiffer)
{
    // GSPZTC fills every RT at 0; GSPC spreads RT fills across the
    // protection bands once PROD >> CONS.
    const LlcConfig config{64 * 1024, 16, 1};

    BankedLlc gspztc(config,
                     GspcFamilyPolicy::factory(GspcVariant::Gspztc));
    BankedLlc gspc(config,
                   GspcFamilyPolicy::factory(GspcVariant::Gspc));
    for (Addr b = 0; b < 20000; ++b) {
        gspztc.access(acc(b, StreamType::RenderTarget, true));
        gspc.access(acc(b, StreamType::RenderTarget, true));
    }

    const FillHistogram hz = gspztc.mergedFillHistogram();
    const FillHistogram hc = gspc.mergedFillHistogram();
    // GSPZTC: every non-sample RT fill at 0, sample fills at 2.
    EXPECT_EQ(hz.fillsAt(PolicyStream::RenderTarget, 3), 0u);
    EXPECT_GT(hz.fillsAt(PolicyStream::RenderTarget, 0),
              15000u);
    // GSPC with zero consumption: non-sample RT fills at 3.
    EXPECT_GT(hc.fillsAt(PolicyStream::RenderTarget, 3), 15000u);
}

TEST(GspcUcd, DisplayBypassKeepsProdClean)
{
    // Under +UCD, display fills never reach the policy, so PROD only
    // counts genuine render targets — the mechanism behind
    // GSPC+UCD's Figure 12/13 gains.
    FrameTrace t;
    for (Addr b = 0; b < 4096; ++b)
        t.accesses.emplace_back(b * kBlockBytes, StreamType::Display,
                                true);
    for (Addr b = 10000; b < 10128; ++b)
        t.accesses.emplace_back(b * kBlockBytes,
                                StreamType::RenderTarget, true);
    for (Addr b = 10000; b < 10128; ++b)
        t.accesses.emplace_back(b * kBlockBytes, StreamType::Texture,
                                false);

    const LlcConfig llc{64 * 1024, 16, 4};
    const Characterization plain =
        runTrace(t, policySpec("GSPC"), llc, {.characterize = true})
            .characterization.value();
    const Characterization ucd =
        runTrace(t, policySpec("GSPC+UCD"), llc, {.characterize = true})
            .characterization.value();

    // With UCD, all RT productions are consumable and consumed.
    EXPECT_EQ(ucd.rtProductions, 128u);
    EXPECT_EQ(ucd.rtConsumptions, 128u);
    // Without UCD, the display fills pollute the production count.
    EXPECT_GT(plain.rtProductions, 4000u);
}

TEST(GspcSamples, SampleSetsNeverConsultCounters)
{
    // Even with counters screaming "dead", sample-set texture fills
    // stay at SRRIP's RRPV 2 (Table 2).
    GspcFamilyPolicy p(GspcVariant::GspztcTse, 8);
    p.configure(128, 4);
    const MemAccess tex = acc(0, StreamType::Texture);
    for (int i = 0; i < 100; ++i)
        p.onFill(0, 0, info(tex));
    EXPECT_EQ(p.rrpvOf(0, 0), 2);
    p.onFill(65, 0, info(tex));  // the other sample set
    EXPECT_EQ(p.rrpvOf(65, 0), 2);
    p.onFill(2, 0, info(tex));   // non-sample: condemned
    EXPECT_EQ(p.rrpvOf(2, 0), 3);
}

TEST(GspcThreshold, LowerTCondemnsMore)
{
    // With FILL = 3, HIT = 1: t=2 condemns (3 > 2), t=8 does not
    // (3 > 8 is false).
    for (const std::uint32_t t : {2u, 8u}) {
        GspcFamilyPolicy p(GspcVariant::Gspztc, t);
        p.configure(128, 4);
        const MemAccess tex = acc(0, StreamType::Texture);
        for (int i = 0; i < 3; ++i)
            p.onFill(0, 0, info(tex));
        p.onHit(0, 0, info(tex));
        p.onFill(1, 0, info(tex));
        EXPECT_EQ(p.rrpvOf(1, 0), t == 2 ? 3 : 0) << "t=" << t;
    }
}
