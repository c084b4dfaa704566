/**
 * @file
 * Unit tests for the shared RRIP machinery (victim selection, aging,
 * insertion histogram).
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "cache/policy/nru.hh"
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

/** NRU victim selection as Figure 1 states it. */
std::uint32_t
referenceNruVictim(std::vector<std::uint8_t> &referenced)
{
    for (std::uint32_t w = 0; w < referenced.size(); ++w) {
        if (referenced[w] == 0)
            return w;
    }
    for (std::uint8_t &bit : referenced)
        bit = 0;
    return 0;
}

/** Row shapes the victim-scan differential tests draw. */
enum class RowKind
{
    Random,   ///< every way drawn independently
    OneHit,   ///< exactly one way holds the victim value
    AllHit,   ///< every way holds it
    NoneHit,  ///< no way holds it (RRIP ages; NRU clears)
};

constexpr RowKind kRowKinds[] = {RowKind::Random, RowKind::OneHit,
                                 RowKind::AllHit, RowKind::NoneHit};

/** Way counts of the tests' LLCs, 16 ways and a large set. */
constexpr std::uint32_t kScanWays[] = {2, 4, 8, 16, 32, 1024};

/**
 * One row of @p ways values in [0, @p max]; @p hit is the value the
 * victim rule looks for (RRIP: max; NRU: 0, with max 1).
 */
std::vector<std::uint8_t>
drawRow(std::mt19937 &rng, RowKind kind, std::uint32_t ways,
        std::uint8_t max, std::uint8_t hit)
{
    std::uniform_int_distribution<int> any(0, max);
    std::vector<std::uint8_t> row(ways);
    for (std::uint8_t &v : row) {
        do {
            v = static_cast<std::uint8_t>(any(rng));
        } while (kind != RowKind::Random && v == hit);
    }
    if (kind == RowKind::AllHit)
        row.assign(ways, hit);
    if (kind == RowKind::OneHit) {
        std::uniform_int_distribution<std::uint32_t> way(0, ways - 1);
        row[way(rng)] = hit;
    }
    return row;
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

TEST(Rrip, VectorVictimScanMatchesUnitStepReference)
{
    // The victim set is the middle or the last of three, so the
    // scan's 16-byte chunks run into the next set's bytes or into
    // the array's slack; neither may change the result or be
    // written.
    std::mt19937 rng(20131207);
    for (const unsigned bits : {2u, 4u}) {
        RripState r(bits);
        const std::uint8_t max = r.maxRrpv();
        for (const std::uint32_t ways : kScanWays) {
            r.configure(3, ways);
            for (const RowKind kind : kRowKinds) {
                for (int trial = 0; trial < 24; ++trial) {
                    std::vector<std::vector<std::uint8_t>> sets;
                    for (std::uint32_t s = 0; s < 3; ++s) {
                        sets.push_back(
                            drawRow(rng, RowKind::Random, ways, max,
                                    max));
                    }
                    const std::uint32_t victim_set = 1 + trial % 2;
                    sets[victim_set] =
                        drawRow(rng, kind, ways, max, max);
                    for (std::uint32_t s = 0; s < 3; ++s)
                        for (std::uint32_t w = 0; w < ways; ++w)
                            r.set(s, w, sets[s][w]);

                    const std::uint32_t want =
                        unitStepVictim(sets[victim_set], max);
                    ASSERT_EQ(r.selectVictim(victim_set), want)
                        << bits << "-bit, " << ways << " ways, kind "
                        << static_cast<int>(kind) << ", trial "
                        << trial;
                    for (std::uint32_t s = 0; s < 3; ++s) {
                        for (std::uint32_t w = 0; w < ways; ++w) {
                            ASSERT_EQ(r.get(s, w), sets[s][w])
                                << bits << "-bit, " << ways
                                << " ways, kind "
                                << static_cast<int>(kind)
                                << ", trial " << trial << ", set "
                                << s << ", way " << w;
                        }
                    }
                }
            }
        }
    }
}

TEST(Nru, VectorVictimScanMatchesReference)
{
    std::mt19937 rng(20131208);
    for (const std::uint32_t ways : kScanWays) {
        for (const RowKind kind : kRowKinds) {
            for (int trial = 0; trial < 24; ++trial) {
                NruPolicy nru;
                nru.configure(3, ways);
                std::vector<std::vector<std::uint8_t>> sets;
                for (std::uint32_t s = 0; s < 3; ++s)
                    sets.push_back(
                        drawRow(rng, RowKind::Random, ways, 1, 0));
                const std::uint32_t victim_set = 1 + trial % 2;
                sets[victim_set] = drawRow(rng, kind, ways, 1, 0);
                // configure() clears every bit; hits set them.
                const MemAccess a(0, StreamType::Texture, false);
                const AccessInfo info{&a, 0, kNever};
                for (std::uint32_t s = 0; s < 3; ++s)
                    for (std::uint32_t w = 0; w < ways; ++w)
                        if (sets[s][w] != 0)
                            nru.onHit(s, w, info);

                const std::uint32_t want =
                    referenceNruVictim(sets[victim_set]);
                ASSERT_EQ(nru.selectVictim(victim_set), want)
                    << ways << " ways, kind " << static_cast<int>(kind)
                    << ", trial " << trial;
                for (std::uint32_t s = 0; s < 3; ++s) {
                    for (std::uint32_t w = 0; w < ways; ++w) {
                        ASSERT_EQ(nru.referenced(s, w), sets[s][w] != 0)
                            << ways << " ways, kind "
                            << static_cast<int>(kind) << ", trial "
                            << trial << ", set " << s << ", way " << w;
                    }
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
