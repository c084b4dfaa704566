/**
 * @file
 * Vector scans over one set's per-way state.
 *
 * The RRIP and NRU victim rules read one state byte per way and pick
 * the lowest-numbered way holding some value (Section 1); the render
 * caches probe a row of 32-bit tag words and age a row of LRU age
 * bytes.  These helpers handle 16 ways at a time with SSE2, which
 * every x86-64 target has; each has its scalar loop beside it for
 * other targets.  This is the only header that may use vector
 * intrinsics, so every kernel sits next to its fallback and its test
 * (tests/test_byte_scan.cc).
 *
 * A byte row is @p n consecutive bytes.  Its last 16-byte chunk may
 * run past the row, so the array holding the rows must extend
 * kByteScanSlack bytes past its last row.  Lanes past the row are
 * masked out of every result, and the helpers that write a row write
 * those lanes back unchanged.  Word rows are compared one 16-word
 * chunk at a time.
 */

#ifndef GLLC_COMMON_BYTE_SCAN_HH
#define GLLC_COMMON_BYTE_SCAN_HH

#include <bit>
#include <cstddef>
#include <cstdint>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace gllc
{

/** Readable bytes a row array needs past its last row. */
constexpr std::size_t kByteScanSlack = 15;

#ifdef __SSE2__
namespace detail
{

/**
 * @p b in all 16 lanes.  _mm_set1_epi8 of a runtime byte can compile
 * (GCC 12, -O3, inlined) to a byte store to the stack and a 4-byte
 * movd load from that slot, a store-to-load forward that fails on
 * every call; the multiply and 32-bit shuffle stay in registers.
 */
inline __m128i
splatByte(std::uint8_t b)
{
    return _mm_shuffle_epi32(
        _mm_cvtsi32_si128(static_cast<int>(b * 0x01010101u)), 0);
}

/** Movemask bits of the row's lanes in a chunk with @p left bytes. */
inline unsigned
chunkBits(std::uint32_t left)
{
    return left >= 16 ? 0xffffu : (1u << left) - 1;
}

/** 0xff in the row's lanes of a chunk with @p left < 16 bytes. */
inline __m128i
chunkLanes(std::uint32_t left)
{
    const __m128i lane = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                       10, 11, 12, 13, 14, 15);
    return _mm_cmplt_epi8(lane,
                          splatByte(static_cast<std::uint8_t>(left)));
}

inline __m128i
loadChunk(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

} // namespace detail
#endif

/** Index of the first of the @p n bytes equal to @p value, or n. */
inline std::uint32_t
firstByteEqual(const std::uint8_t *row, std::uint32_t n,
               std::uint8_t value)
{
#ifdef __SSE2__
    const __m128i needle = detail::splatByte(value);
    for (std::uint32_t base = 0; base < n; base += 16) {
        const __m128i eq =
            _mm_cmpeq_epi8(detail::loadChunk(row + base), needle);
        const unsigned hits =
            static_cast<unsigned>(_mm_movemask_epi8(eq))
            & detail::chunkBits(n - base);
        if (hits != 0)
            return base + static_cast<std::uint32_t>(
                              std::countr_zero(hits));
    }
    return n;
#else
    for (std::uint32_t w = 0; w < n; ++w) {
        if (row[w] == value)
            return w;
    }
    return n;
#endif
}

/** Largest of the @p n bytes. */
inline std::uint8_t
maxByte(const std::uint8_t *row, std::uint32_t n)
{
#ifdef __SSE2__
    __m128i top = _mm_setzero_si128();
    for (std::uint32_t base = 0; base < n; base += 16) {
        __m128i chunk = detail::loadChunk(row + base);
        if (n - base < 16)
            chunk = _mm_and_si128(chunk, detail::chunkLanes(n - base));
        top = _mm_max_epu8(top, chunk);
    }
    top = _mm_max_epu8(top, _mm_srli_si128(top, 8));
    top = _mm_max_epu8(top, _mm_srli_si128(top, 4));
    top = _mm_max_epu8(top, _mm_srli_si128(top, 2));
    top = _mm_max_epu8(top, _mm_srli_si128(top, 1));
    return static_cast<std::uint8_t>(_mm_cvtsi128_si32(top));
#else
    std::uint8_t top = 0;
    for (std::uint32_t w = 0; w < n; ++w)
        top = row[w] > top ? row[w] : top;
    return top;
#endif
}

/** Add @p delta to each of the @p n bytes (modulo 256). */
inline void
addToBytes(std::uint8_t *row, std::uint32_t n, std::uint8_t delta)
{
#ifdef __SSE2__
    const __m128i step = detail::splatByte(delta);
    for (std::uint32_t base = 0; base < n; base += 16) {
        const __m128i add = (n - base < 16)
            ? _mm_and_si128(step, detail::chunkLanes(n - base))
            : step;
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(row + base),
            _mm_add_epi8(detail::loadChunk(row + base), add));
    }
#else
    for (std::uint32_t w = 0; w < n; ++w)
        row[w] = static_cast<std::uint8_t>(row[w] + delta);
#endif
}

/**
 * Add 1 to each of the @p n bytes that is below @p limit, comparing
 * unsigned.  Bytes at or above the limit, 0xff among them, keep
 * their value, so no byte overflows.
 */
inline void
incrementBytesBelow(std::uint8_t *row, std::uint32_t n,
                    std::uint8_t limit)
{
    if (limit == 0)
        return;
#ifdef __SSE2__
    // x < limit  <=>  min(x, limit - 1) == x; the all-ones compare
    // lanes subtract -1.
    const __m128i top = detail::splatByte(
        static_cast<std::uint8_t>(limit - 1));
    for (std::uint32_t base = 0; base < n; base += 16) {
        const __m128i chunk = detail::loadChunk(row + base);
        __m128i below =
            _mm_cmpeq_epi8(_mm_min_epu8(chunk, top), chunk);
        if (n - base < 16)
            below = _mm_and_si128(below, detail::chunkLanes(n - base));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(row + base),
                         _mm_sub_epi8(chunk, below));
    }
#else
    for (std::uint32_t w = 0; w < n; ++w)
        row[w] = static_cast<std::uint8_t>(row[w] + (row[w] < limit));
#endif
}

/**
 * Bit i set where word i of the 16 words at @p chunk equals
 * @p value.  All 16 words must be readable.
 */
inline unsigned
equalWordMask(const std::uint32_t *chunk, std::uint32_t value)
{
#ifdef __SSE2__
    const auto *q = reinterpret_cast<const __m128i *>(chunk);
    const __m128i needle = _mm_set1_epi32(static_cast<int>(value));
    const __m128i e0 = _mm_cmpeq_epi32(_mm_loadu_si128(q), needle);
    const __m128i e1 = _mm_cmpeq_epi32(_mm_loadu_si128(q + 1), needle);
    const __m128i e2 = _mm_cmpeq_epi32(_mm_loadu_si128(q + 2), needle);
    const __m128i e3 = _mm_cmpeq_epi32(_mm_loadu_si128(q + 3), needle);
    // All-ones and zero lanes survive both saturating packs.
    return static_cast<unsigned>(_mm_movemask_epi8(
        _mm_packs_epi16(_mm_packs_epi32(e0, e1),
                        _mm_packs_epi32(e2, e3))));
#else
    unsigned mask = 0;
    for (unsigned w = 0; w < 16; ++w)
        mask |= static_cast<unsigned>(chunk[w] == value) << w;
    return mask;
#endif
}

} // namespace gllc

#endif // GLLC_COMMON_BYTE_SCAN_HH
