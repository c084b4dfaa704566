/**
 * @file
 * Small non-cryptographic hashing helpers.
 *
 * fnv1a64() is the section checksum of the trace file format
 * (trace_io) and the line checksum of sweep checkpoint journals;
 * laneHash64() is the record checksum of version-3 trace files;
 * mix64() (splitmix64 finalizer) turns structured keys into the
 * uniform bits the fault injector draws its Bernoulli trials from.
 * All are fixed forever: serialized artifacts depend on them.
 */

#ifndef GLLC_COMMON_HASH_HH
#define GLLC_COMMON_HASH_HH

#include <cstddef>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace gllc
{

/** FNV-1a offset basis; pass as @p seed to chain sections. */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** 64-bit FNV-1a over @p len bytes, continuing from @p seed. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len,
        std::uint64_t seed = kFnvOffset)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** fnv1a64 over a string's bytes. */
inline std::uint64_t
fnv1a64(std::string_view s, std::uint64_t seed = kFnvOffset)
{
    return fnv1a64(s.data(), s.size(), seed);
}

/**
 * Checksum of @p len bytes at about 8x the speed of fnv1a64(): four
 * independent lanes each take every fourth 8-byte word through an
 * xxHash64-style round (multiply, rotate, multiply), then the lanes,
 * the trailing bytes and the length fold together through fnv1a64().
 * Every round is a bijection of its word, so any change confined to
 * one word always changes the result.
 */
inline std::uint64_t
laneHash64(const void *data, std::size_t len)
{
    constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
    constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t lanes[4] = {kFnvOffset, kFnvOffset + kPrime1,
                              kFnvOffset + kPrime2,
                              kFnvOffset - kPrime1};
    std::size_t i = 0;
    for (; i + sizeof(lanes) <= len; i += sizeof(lanes)) {
        for (std::size_t l = 0; l < 4; ++l) {
            std::uint64_t word;
            std::memcpy(&word, bytes + i + 8 * l, sizeof(word));
            lanes[l] =
                std::rotl(lanes[l] + word * kPrime2, 31) * kPrime1;
        }
    }
    std::uint64_t h = fnv1a64(lanes, sizeof(lanes));
    h = fnv1a64(bytes + i, len - i, h);
    const std::uint64_t total = len;
    return fnv1a64(&total, sizeof(total), h);
}

/** splitmix64 finalizer: avalanche @p x into uniform bits. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace gllc

#endif // GLLC_COMMON_HASH_HH
