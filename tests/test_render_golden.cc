/**
 * @file
 * Golden hashes of rendered frames.
 *
 * Pins the render-cache front end below the LLC: for a few (app,
 * frame) pairs at scale 8, where most render caches sit at their
 * block floors, and at the default scale 4, an FNV-1a hash over
 * every emitted MemAccess (addr, stream, isWrite, cycle) and over
 * every render cache's name and statistics.  Any change to what the render caches
 * hit, miss, write back or flush, or to when, moves a hash.  A
 * deliberate change to the workload model re-records them.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "common/hash.hh"
#include "workload/frame_set.hh"

using namespace gllc;

namespace
{

template <typename T>
std::uint64_t
hashValue(const T &value, std::uint64_t seed)
{
    return fnv1a64(&value, sizeof(value), seed);
}

struct Golden
{
    const char *app;
    std::uint32_t frame;
    std::uint32_t linearScale;
    std::uint64_t traceHash;
    std::uint64_t statsHash;
};

void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.app << " f" << g.frame;
    if (g.linearScale != 8)
        *os << " s" << g.linearScale;
}

// The scale-8 frames were recorded on the stamp-LRU SmallCache and
// the scale-4 frames on the recency-ordered one; every layout since
// must produce these bytes.
const Golden kGolden[] = {
    {"3DMarkVAGT1", 0, 8, 0xb94978e9222dea52ULL, 0x7e73849025cc0e16ULL},
    {"BioShock", 2, 8, 0x2beb697bdbb4f0d7ULL, 0xf041b04ae4691b9dULL},
    {"Civilization", 1, 8, 0xc7e9049d67c010caULL, 0xa970b6fee6814281ULL},
    {"Heaven", 3, 8, 0x58252f7da31045ffULL, 0xbdf9f096faf356b1ULL},
    {"Heaven", 1, 4, 0x69191c7c8c56dab0ULL, 0xa7718bd40403c60eULL},
    {"StalkerCOP", 0, 4, 0x275645067590309cULL, 0x18d09607dafe7f8cULL},
};

class RenderGolden : public ::testing::TestWithParam<Golden>
{
};

} // namespace

TEST_P(RenderGolden, TraceAndCacheStatsMatchRecordedHashes)
{
    const Golden &g = GetParam();
    RenderScale scale;
    scale.linear = g.linearScale;
    std::uint64_t stats_hash = kFnvOffset;
    std::size_t caches = 0;
    const FrameTrace trace = renderFrame(
        findApp(g.app), g.frame, scale,
        RenderCacheConfig{}.scaled(scale.pixelScale()),
        [&](const RenderCacheComplex &rcc) {
            for (const SmallCache *c : rcc.caches()) {
                ++caches;
                stats_hash = fnv1a64(c->name(), stats_hash);
                stats_hash = hashValue(c->stats().accesses, stats_hash);
                stats_hash = hashValue(c->stats().hits, stats_hash);
                stats_hash =
                    hashValue(c->stats().writebacks, stats_hash);
            }
        });
    // 6 pipeline caches + 12 texture L1s, 3 L2s and the L3.
    EXPECT_EQ(caches, 22u);

    std::uint64_t trace_hash = kFnvOffset;
    for (const MemAccess &a : trace.accesses) {
        trace_hash = hashValue(a.addr, trace_hash);
        trace_hash = hashValue(a.stream, trace_hash);
        trace_hash = hashValue(a.isWrite, trace_hash);
        trace_hash = hashValue(a.cycle, trace_hash);
    }
    ASSERT_FALSE(trace.accesses.empty());
    EXPECT_EQ(trace_hash, g.traceHash)
        << g.app << " f" << g.frame << " s" << g.linearScale
        << ": trace hash 0x" << std::hex
        << trace_hash << " over " << std::dec << trace.accesses.size()
        << " accesses";
    EXPECT_EQ(stats_hash, g.statsHash)
        << g.app << " f" << g.frame << " s" << g.linearScale
        << ": stats hash 0x" << std::hex
        << stats_hash;
}

INSTANTIATE_TEST_SUITE_P(
    Frames, RenderGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.app) + "_f"
            + std::to_string(info.param.frame)
            + (info.param.linearScale == 8
                   ? std::string()
                   : "_s" + std::to_string(info.param.linearScale));
    });
