/**
 * @file
 * Every vector helper of common/byte_scan.hh against a plain loop.
 *
 * Byte rows of 1 to 256 lanes sit at the front of a buffer whose
 * slack (and one more chunk) holds values that would change a result
 * if a lane past the row leaked in; the interesting values sit at
 * lane and chunk boundaries.  The byte helpers also take every one
 * of the 256 needle values, the sign-bit ones (>= 0x80) included.
 * The word compare is checked on every 16-word window of a 256-word
 * row.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "common/byte_scan.hh"

using namespace gllc;

namespace
{

constexpr std::uint32_t kMaxRow = 256;

/** Lanes where a chunk starts or ends, plus the row's last lane. */
std::vector<std::uint32_t>
boundaryLanes(std::uint32_t n)
{
    std::vector<std::uint32_t> lanes;
    for (std::uint32_t lane :
         {0u, 1u, 3u, 4u, 7u, 8u, 14u, 15u, 16u, 17u, 31u, 32u, 47u, 48u,
          63u, 64u, 127u, 128u, 254u, 255u}) {
        if (lane < n)
            lanes.push_back(lane);
    }
    lanes.push_back(n - 1);
    return lanes;
}

std::uint32_t
plainFirstByteEqual(const std::vector<std::uint8_t> &buf, std::uint32_t n,
                    std::uint8_t value)
{
    for (std::uint32_t w = 0; w < n; ++w) {
        if (buf[w] == value)
            return w;
    }
    return n;
}

/** Row of @p n bytes, none equal to @p avoid, then slack of @p fill. */
std::vector<std::uint8_t>
byteRow(std::uint32_t n, std::mt19937 &rng, std::uint8_t avoid,
        std::uint8_t fill)
{
    std::vector<std::uint8_t> buf(n + kByteScanSlack + 16, fill);
    for (std::uint32_t w = 0; w < n; ++w) {
        std::uint8_t v;
        do {
            v = static_cast<std::uint8_t>(rng());
        } while (v == avoid);
        buf[w] = v;
    }
    return buf;
}

} // namespace

TEST(ByteScan, FirstByteEqualMatchesPlainLoop)
{
    std::mt19937 rng(1);
    for (std::uint32_t n = 1; n <= kMaxRow; ++n) {
        for (std::uint8_t value : {std::uint8_t{0}, std::uint8_t{3},
                                   std::uint8_t{0x7f}, std::uint8_t{0x80},
                                   std::uint8_t{0xff}}) {
            // Absent from the row, present in every lane past it.
            std::vector<std::uint8_t> buf = byteRow(n, rng, value, value);
            ASSERT_EQ(firstByteEqual(buf.data(), n, value), n)
                << "n " << n << " value " << int(value);
            for (std::uint32_t lane : boundaryLanes(n)) {
                buf = byteRow(n, rng, value, value);
                buf[lane] = value;
                if (lane + 1 < n)
                    buf[n - 1] = value;  // a later match must not win
                ASSERT_EQ(firstByteEqual(buf.data(), n, value),
                          plainFirstByteEqual(buf, n, value))
                    << "n " << n << " lane " << lane;
                ASSERT_EQ(firstByteEqual(buf.data(), n, value), lane);
            }
        }
    }
}

TEST(ByteScan, MaxByteMatchesPlainLoop)
{
    std::mt19937 rng(2);
    for (std::uint32_t n = 1; n <= kMaxRow; ++n) {
        // Small values in the row, 0xff in every lane past it.
        std::vector<std::uint8_t> buf(n + kByteScanSlack + 16, 0xff);
        for (std::uint32_t w = 0; w < n; ++w)
            buf[w] = static_cast<std::uint8_t>(rng() % 100);
        const std::uint8_t plain = *std::max_element(buf.begin(),
                                                     buf.begin() + n);
        ASSERT_EQ(maxByte(buf.data(), n), plain) << "n " << n;
        for (std::uint32_t lane : boundaryLanes(n)) {
            std::vector<std::uint8_t> peak = buf;
            peak[lane] = static_cast<std::uint8_t>(0x80 + lane % 0x7f);
            ASSERT_EQ(maxByte(peak.data(), n), peak[lane])
                << "n " << n << " lane " << lane;
        }
    }
}

TEST(ByteScan, AddToBytesMatchesPlainLoopAndSparesTheSlack)
{
    std::mt19937 rng(3);
    for (std::uint32_t n = 1; n <= kMaxRow; ++n) {
        for (std::uint8_t delta : {std::uint8_t{1}, std::uint8_t{7},
                                   std::uint8_t{0x80}, std::uint8_t{0xff}}) {
            std::vector<std::uint8_t> buf(n + kByteScanSlack + 16);
            for (std::uint8_t &b : buf)
                b = static_cast<std::uint8_t>(rng());
            std::vector<std::uint8_t> want = buf;
            for (std::uint32_t w = 0; w < n; ++w)
                want[w] = static_cast<std::uint8_t>(want[w] + delta);
            addToBytes(buf.data(), n, delta);
            ASSERT_EQ(buf, want) << "n " << n << " delta " << int(delta);
        }
    }
}

TEST(ByteScan, IncrementBytesBelowMatchesPlainLoopAndSparesTheSlack)
{
    std::mt19937 rng(4);
    for (std::uint32_t n = 1; n <= kMaxRow; ++n) {
        for (int limit : {0, 1, 2, 15, 16, 17, 127, 128, 129, 254, 255}) {
            // Values around the limit and at both byte extremes, at
            // the boundary lanes and in the slack.
            const std::uint8_t picks[] = {
                0, 1, 0x7f, 0x80, 0xfe, 0xff,
                static_cast<std::uint8_t>(limit),
                static_cast<std::uint8_t>(limit - 1),
                static_cast<std::uint8_t>(limit + 1)};
            std::vector<std::uint8_t> buf(n + kByteScanSlack + 16);
            for (std::uint8_t &b : buf)
                b = (rng() & 1) != 0 ? picks[rng() % std::size(picks)]
                                     : static_cast<std::uint8_t>(rng());
            for (std::uint32_t lane : boundaryLanes(n))
                buf[lane] = picks[lane % std::size(picks)];
            std::vector<std::uint8_t> want = buf;
            for (std::uint32_t w = 0; w < n; ++w) {
                if (want[w] < limit)
                    ++want[w];
            }
            incrementBytesBelow(buf.data(), n,
                                static_cast<std::uint8_t>(limit));
            ASSERT_EQ(buf, want) << "n " << n << " limit " << limit;
        }
    }
}

TEST(ByteScan, IncrementBytesBelowAgesAnLruPermutation)
{
    // The render caches' use: ages 0..n-1 stay a permutation when the
    // way aged a is touched, and 0xff (invalid) lanes never age.
    for (std::uint32_t n : {1u, 15u, 16u, 17u, 48u, 255u, 256u}) {
        std::vector<std::uint8_t> ages(n + kByteScanSlack, 0xff);
        for (std::uint32_t w = 0; w < n; ++w)
            ages[w] = static_cast<std::uint8_t>(n - 1 - w);
        std::mt19937 rng(n);
        for (int step = 0; step < 200; ++step) {
            const std::uint32_t way = rng() % n;
            const std::uint8_t age = ages[way];
            incrementBytesBelow(ages.data(), n, age);
            ages[way] = 0;
            std::vector<std::uint8_t> sorted(ages.begin(),
                                             ages.begin() + n);
            std::sort(sorted.begin(), sorted.end());
            for (std::uint32_t w = 0; w < n; ++w)
                ASSERT_EQ(sorted[w], w) << "n " << n << " step " << step;
        }
        for (std::size_t w = n; w < ages.size(); ++w)
            ASSERT_EQ(ages[w], 0xff);
    }
}

TEST(ByteScan, EqualWordMaskMatchesPlainLoop)
{
    std::mt19937 rng(5);
    // Needles whose compare lanes stress both saturating packs.
    for (std::uint32_t value : {0u, 1u, 0x7fffu, 0x8000u, 0xffffu,
                                0x7fffffffu, 0x80000000u, 0xffffffffu,
                                0x12345678u}) {
        // Near misses (one bit off in either half) and random words,
        // with the needle at every lane boundary of a 256-word row;
        // every 16-word window of the row is checked.
        std::vector<std::uint32_t> row(kMaxRow + 16);
        for (std::uint32_t &w : row) {
            w = (rng() % 4 == 0) ? static_cast<std::uint32_t>(rng())
                                 : value ^ (1u << (rng() % 32));
            if (w == value)
                w = ~value;
        }
        for (std::uint32_t lane : boundaryLanes(kMaxRow))
            row[lane] = value;
        for (std::uint32_t start = 0; start < kMaxRow; ++start) {
            unsigned plain = 0;
            for (unsigned w = 0; w < 16; ++w)
                plain |= unsigned{row[start + w] == value} << w;
            ASSERT_EQ(equalWordMask(row.data() + start, value), plain)
                << "value " << value << " window " << start;
        }
    }
}

#ifdef __SSE2__  // gllc-lint: allow(simd-one-header)
TEST(ByteScan, SplatByteFillsEveryLane)
{
    for (unsigned b = 0; b < 256; ++b) {
        std::uint8_t lanes[16];
        _mm_storeu_si128(reinterpret_cast<__m128i *>(lanes),
                         detail::splatByte(static_cast<std::uint8_t>(b)));
        for (std::uint8_t lane : lanes)
            ASSERT_EQ(lane, b);
    }
}
#endif

TEST(ByteScan, EveryNeedleValueMatchesPlainLoop)
{
    // Rows shorter than, equal to and longer than one chunk; the
    // needle sits at one lane, its neighbours differ only in the sign
    // bit, and the slack holds the needle.
    std::mt19937 rng(6);
    for (std::uint32_t n : {1u, 15u, 16u, 17u, 33u}) {
        for (unsigned v = 0; v < 256; ++v) {
            const auto value = static_cast<std::uint8_t>(v);
            std::vector<std::uint8_t> buf =
                byteRow(n, rng, value, value);
            for (std::uint32_t w = 0; w < n; w += 2)
                buf[w] = static_cast<std::uint8_t>(value ^ 0x80);
            const std::uint32_t lane = rng() % n;
            buf[lane] = value;
            ASSERT_EQ(firstByteEqual(buf.data(), n, value),
                      plainFirstByteEqual(buf, n, value))
                << "n " << n << " value " << v;

            std::vector<std::uint8_t> added = buf;
            std::vector<std::uint8_t> want = buf;
            for (std::uint32_t w = 0; w < n; ++w)
                want[w] = static_cast<std::uint8_t>(want[w] + value);
            addToBytes(added.data(), n, value);
            ASSERT_EQ(added, want) << "n " << n << " delta " << v;

            std::vector<std::uint8_t> aged = buf;
            want = buf;
            for (std::uint32_t w = 0; w < n; ++w) {
                if (want[w] < value)
                    ++want[w];
            }
            incrementBytesBelow(aged.data(), n, value);
            ASSERT_EQ(aged, want) << "n " << n << " limit " << v;
        }
    }
}
