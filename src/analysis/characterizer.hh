/**
 * @file
 * Policy-independent reuse characterization (Section 2.3).
 *
 * Passed to BankedLlc::access<>() as its observer, the Characterizer
 * follows block lifetimes to reproduce the paper's analysis figures
 * under any replacement policy.  Block metadata lives in a flat
 * array indexed by the LLC frame the access path names, so no
 * per-access hashing happens, and the per-event bodies are defined
 * in this header so they inline into the access path:
 *
 *  - the RT-bit protocol: every render-target block is tagged; a
 *    texture-sampler hit to a tagged block is an inter-stream reuse
 *    and a "consumption" (Figure 6); the tag drops on consumption
 *    and eviction.
 *  - texture/Z epochs: a block's lifetime is split into epochs E_k
 *    demarcated by its LLC hits; death ratio of E_k is the fraction
 *    of lifetimes that reach E_k but not E_{k+1} (Figures 7 and 9).
 */

#ifndef GLLC_ANALYSIS_CHARACTERIZER_HH
#define GLLC_ANALYSIS_CHARACTERIZER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "cache/banked_llc.hh"

namespace gllc
{

/** Aggregated characterization counters for one simulation run. */
struct Characterization
{
    static constexpr unsigned kEpochs = 4;  ///< E0..E2, E>=3

    /** Texture-sampler LLC hits that consumed a render target. */
    std::uint64_t interTexHits = 0;

    /** Texture-sampler LLC hits within the texture stream. */
    std::uint64_t intraTexHits = 0;

    /** RT-bit set events (distinct productions, Figure 6 lower). */
    std::uint64_t rtProductions = 0;

    /** RT blocks consumed by the sampler from the LLC. */
    std::uint64_t rtConsumptions = 0;

    /** Intra-stream texture hits per epoch (Figure 7 upper). */
    std::array<std::uint64_t, kEpochs> texEpochHits{};

    /** Texture lifetimes that attained epoch k (Figure 7 lower). */
    std::array<std::uint64_t, kEpochs> texReach{};

    /** Z lifetimes that attained epoch k (Figure 9). */
    std::array<std::uint64_t, kEpochs> zReach{};

    /** Death ratio of texture epoch k: 1 - reach[k+1]/reach[k]. */
    double texDeathRatio(unsigned k) const;

    /** Death ratio of Z epoch k. */
    double zDeathRatio(unsigned k) const;

    /** Fraction of produced RT blocks consumed by the sampler. */
    double rtConsumptionRate() const;

    void merge(const Characterization &other);

    bool operator==(const Characterization &other) const = default;
};

/**
 * The observer that produces a Characterization (the frame-indexed
 * hooks of NullAccessObserver).
 */
class Characterizer
{
  public:
    /** @param frames the observed LLC's geometry().totalBlocks() */
    explicit Characterizer(std::size_t frames) : frameMeta_(frames) {}

    void
    onHitAt(const MemAccess &access, std::size_t frame)
    {
        hitBlock(frameMeta_[frame], policyStream(access.stream));
    }

    void
    onMissAt(const MemAccess &access, std::size_t frame)
    {
        installInto(frameMeta_[frame], access);
    }

    void onBypass(const MemAccess &) {}

    void
    onEvictAt(Addr, std::size_t)
    {
        // The frame's metadata is reset by the fill that always
        // follows (onMissAt -> installInto), so eviction itself has
        // nothing to record.
    }

    const Characterization &result() const { return stats_; }

  private:
    enum class Kind : std::uint8_t { None, Texture, Z };

    struct BlockMeta
    {
        Kind kind = Kind::None;
        bool rtBit = false;
        std::uint8_t hits = 0;  ///< epoch index within the lifetime
    };

    /** Begin a texture lifetime for @p meta (enters E0). */
    void startTexLifetime(BlockMeta &meta);

    /** Begin a Z lifetime. */
    void startZLifetime(BlockMeta &meta);

    /** Lifetime bookkeeping for a hit to the block behind @p meta. */
    void hitBlock(BlockMeta &meta, PolicyStream ps);

    /** Reset @p meta for the lifetime the filling @p access starts. */
    void installInto(BlockMeta &meta, const MemAccess &access);

    /** Per-frame metadata of the resident block. */
    std::vector<BlockMeta> frameMeta_;

    Characterization stats_;
};

inline void
Characterizer::startTexLifetime(BlockMeta &meta)
{
    meta.kind = Kind::Texture;
    meta.hits = 0;
    ++stats_.texReach[0];
}

inline void
Characterizer::startZLifetime(BlockMeta &meta)
{
    meta.kind = Kind::Z;
    meta.hits = 0;
    ++stats_.zReach[0];
}

inline void
Characterizer::installInto(BlockMeta &meta, const MemAccess &access)
{
    meta = BlockMeta{};
    switch (policyStream(access.stream)) {
      case PolicyStream::Texture:
        startTexLifetime(meta);
        break;
      case PolicyStream::Z:
        startZLifetime(meta);
        break;
      case PolicyStream::RenderTarget:
        meta.rtBit = true;
        ++stats_.rtProductions;
        break;
      default:
        break;
    }
}

inline void
Characterizer::hitBlock(BlockMeta &meta, PolicyStream ps)
{
    if (ps == PolicyStream::Texture) {
        if (meta.rtBit) {
            // Inter-stream reuse: render target consumed as texture.
            ++stats_.interTexHits;
            ++stats_.rtConsumptions;
            meta.rtBit = false;
            startTexLifetime(meta);
            return;
        }
        if (meta.kind != Kind::Texture) {
            // A texture hit to a block brought in by another stream
            // (rare aliasing): treat as the start of a texture
            // lifetime that immediately enjoys its E0 hit.
            startTexLifetime(meta);
        }
        const unsigned epoch = std::min<unsigned>(
            meta.hits, Characterization::kEpochs - 1);
        ++stats_.texEpochHits[epoch];
        ++stats_.intraTexHits;
        if (meta.hits + 1u < Characterization::kEpochs)
            ++stats_.texReach[meta.hits + 1];
        if (meta.hits < 0xff)
            ++meta.hits;
        return;
    }

    if (ps == PolicyStream::RenderTarget) {
        if (!meta.rtBit) {
            // The application reuses the surface as a render target
            // again: a fresh production.
            meta.rtBit = true;
            ++stats_.rtProductions;
        }
        // Blending hits do not advance texture/Z epochs; the block
        // stops being a texture/Z block.
        meta.kind = Kind::None;
        meta.hits = 0;
        return;
    }

    if (ps == PolicyStream::Z) {
        if (meta.kind != Kind::Z)
            startZLifetime(meta);
        if (meta.hits + 1u < Characterization::kEpochs)
            ++stats_.zReach[meta.hits + 1];
        if (meta.hits < 0xff)
            ++meta.hits;
        return;
    }
}

} // namespace gllc

#endif // GLLC_ANALYSIS_CHARACTERIZER_HH
