/**
 * @file
 * Unit tests for the shared RRIP machinery (victim selection, aging,
 * insertion histogram).
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "cache/rrip.hh"

using namespace gllc;

namespace
{

MemAccess
texAccess(Addr addr = 0)
{
    return MemAccess(addr, StreamType::Texture, false);
}

/** RRIP victim selection by literal unit-step aging (Section 1). */
std::uint32_t
unitStepVictim(std::vector<std::uint8_t> &row, std::uint8_t max)
{
    for (;;) {
        for (std::uint32_t w = 0; w < row.size(); ++w) {
            if (row[w] == max)
                return w;
        }
        for (std::uint8_t &v : row)
            ++v;
    }
}

} // namespace

TEST(Rrip, WidthsDefineMaxAndDistant)
{
    RripState two(2);
    EXPECT_EQ(two.maxRrpv(), 3);
    EXPECT_EQ(two.distantRrpv(), 2);

    RripState four(4);
    EXPECT_EQ(four.maxRrpv(), 15);
    EXPECT_EQ(four.distantRrpv(), 14);
}

TEST(Rrip, BlocksStartAtMax)
{
    RripState r(2);
    r.configure(4, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        EXPECT_EQ(r.get(0, w), 3);
}

TEST(Rrip, VictimPrefersMaxRrpv)
{
    RripState r(2);
    r.configure(1, 4);
    r.set(0, 0, 2);
    r.set(0, 1, 3);
    r.set(0, 2, 1);
    r.set(0, 3, 0);
    EXPECT_EQ(r.selectVictim(0), 1u);
}

TEST(Rrip, VictimTieBreaksToMinWay)
{
    RripState r(2);
    r.configure(1, 4);
    r.set(0, 0, 2);
    r.set(0, 1, 3);
    r.set(0, 2, 3);
    r.set(0, 3, 3);
    EXPECT_EQ(r.selectVictim(0), 1u);
}

TEST(Rrip, AgingRaisesAllUntilMax)
{
    RripState r(2);
    r.configure(1, 4);
    r.set(0, 0, 0);
    r.set(0, 1, 1);
    r.set(0, 2, 2);
    r.set(0, 3, 2);
    // No way at 3: ages all by +1 until way 2 (first at 3) wins.
    EXPECT_EQ(r.selectVictim(0), 2u);
    EXPECT_EQ(r.get(0, 0), 1);
    EXPECT_EQ(r.get(0, 1), 2);
    EXPECT_EQ(r.get(0, 2), 3);
    EXPECT_EQ(r.get(0, 3), 3);
}

TEST(Rrip, AgingMultipleSteps)
{
    RripState r(2);
    r.configure(1, 2);
    r.set(0, 0, 0);
    r.set(0, 1, 0);
    EXPECT_EQ(r.selectVictim(0), 0u);
    EXPECT_EQ(r.get(0, 0), 3);
    EXPECT_EQ(r.get(0, 1), 3);
}

TEST(Rrip, OnePassAgingMatchesUnitStepsForWidthsOneToFour)
{
    std::mt19937 rng(20130907);
    for (unsigned bits = 1; bits <= 4; ++bits) {
        RripState r(bits);
        const std::uint8_t max = r.maxRrpv();
        for (std::uint32_t ways : {1u, 2u, 3u, 4u, 16u, 32u}) {
            r.configure(2, ways);
            for (int trial = 0; trial < 500; ++trial) {
                // Values drawn up to max; most rows below it, so the
                // aging path runs, some with max present.
                const std::uint8_t hi = static_cast<std::uint8_t>(
                    trial % 4 == 0 ? max : max - 1);
                std::uniform_int_distribution<int> value(0, hi);
                std::vector<std::uint8_t> row(ways);
                for (std::uint32_t w = 0; w < ways; ++w) {
                    row[w] = static_cast<std::uint8_t>(value(rng));
                    r.set(1, w, row[w]);
                    r.set(0, w, 0);
                }
                const std::uint32_t want = unitStepVictim(row, max);
                ASSERT_EQ(r.selectVictim(1), want)
                    << bits << "-bit, " << ways << " ways, trial "
                    << trial;
                for (std::uint32_t w = 0; w < ways; ++w) {
                    ASSERT_EQ(r.get(1, w), row[w])
                        << bits << "-bit, " << ways << " ways, trial "
                        << trial << ", way " << w;
                    ASSERT_EQ(r.get(0, w), 0);  // other set untouched
                }
            }
        }
    }
}

TEST(Rrip, SetsAreIndependent)
{
    RripState r(2);
    r.configure(2, 2);
    r.set(0, 0, 0);
    r.set(0, 1, 0);
    r.set(1, 0, 3);
    EXPECT_EQ(r.selectVictim(1), 0u);
    // Set 0 was not aged by set 1's victim scan.
    EXPECT_EQ(r.get(0, 0), 0);
}

TEST(Rrip, FillRecordsHistogram)
{
    RripState r(2);
    r.configure(1, 4);
    r.fill(0, 0, 3, PolicyStream::Texture);
    r.fill(0, 1, 0, PolicyStream::Texture);
    r.fill(0, 2, 3, PolicyStream::RenderTarget);
    const FillHistogram &h = r.histogram();
    EXPECT_EQ(h.fills(PolicyStream::Texture), 2u);
    EXPECT_EQ(h.fillsAt(PolicyStream::Texture, 3), 1u);
    EXPECT_EQ(h.fillsAt(PolicyStream::Texture, 0), 1u);
    EXPECT_EQ(h.fillsAt(PolicyStream::RenderTarget, 3), 1u);
    EXPECT_EQ(h.fills(PolicyStream::Z), 0u);
}

TEST(Rrip, HistogramMerge)
{
    FillHistogram a, b;
    a.record(PolicyStream::Z, 2);
    b.record(PolicyStream::Z, 2);
    b.record(PolicyStream::Z, 3);
    a.merge(b);
    EXPECT_EQ(a.fillsAt(PolicyStream::Z, 2), 2u);
    EXPECT_EQ(a.fillsAt(PolicyStream::Z, 3), 1u);
    EXPECT_EQ(a.fills(PolicyStream::Z), 3u);
}

TEST(Rrip, PolicyStreamMapping)
{
    EXPECT_EQ(policyStream(StreamType::Z), PolicyStream::Z);
    EXPECT_EQ(policyStream(StreamType::Texture), PolicyStream::Texture);
    EXPECT_EQ(policyStream(StreamType::RenderTarget),
              PolicyStream::RenderTarget);
    // Displayable color is a render target (Section 5.1).
    EXPECT_EQ(policyStream(StreamType::Display),
              PolicyStream::RenderTarget);
    EXPECT_EQ(policyStream(StreamType::Vertex), PolicyStream::Rest);
    EXPECT_EQ(policyStream(StreamType::HiZ), PolicyStream::Rest);
    EXPECT_EQ(policyStream(StreamType::Stencil), PolicyStream::Rest);
    EXPECT_EQ(policyStream(StreamType::Other), PolicyStream::Rest);
}

TEST(Rrip, AccessInfoStreamHelpers)
{
    const MemAccess a = texAccess(128);
    const AccessInfo info{&a, 0, kNever};
    EXPECT_EQ(info.stream(), StreamType::Texture);
    EXPECT_EQ(info.pstream(), PolicyStream::Texture);
}
