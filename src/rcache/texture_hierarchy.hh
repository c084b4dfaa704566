/**
 * @file
 * Three-level texture cache hierarchy (Section 4).
 *
 * Twelve fixed-function samplers each own a small L1; clusters of
 * four samplers share an L2; all samplers share the 384 KB 48-way
 * L3.  The hierarchy is read-only: texture data (and render targets
 * consumed as textures) are never written through the samplers.
 * Only L3 misses reach the LLC, forming the texture sampler stream.
 */

#ifndef GLLC_RCACHE_TEXTURE_HIERARCHY_HH
#define GLLC_RCACHE_TEXTURE_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "rcache/small_cache.hh"

namespace gllc
{

/** Configuration of the texture hierarchy (block counts per level). */
struct TextureHierarchyConfig
{
    std::uint32_t samplers = 12;
    std::uint32_t samplersPerCluster = 4;

    std::uint32_t l1Blocks = 64;    ///< 4 KB per sampler
    std::uint32_t l1Ways = 16;
    std::uint32_t l2Blocks = 512;   ///< 32 KB per cluster
    std::uint32_t l2Ways = 16;
    std::uint32_t l3Blocks = 6144;  ///< 384 KB shared
    std::uint32_t l3Ways = 48;
};

class TextureHierarchy
{
  public:
    explicit TextureHierarchy(const TextureHierarchyConfig &config);

    /**
     * Read one texel block through the given sampler's path.
     * Appends the LLC-bound access to @p out when all levels miss.
     * @return the level that hit (1..3), or 4 for an LLC-bound miss.
     */
    int
    read(Addr addr, std::uint32_t sampler, std::uint32_t cycle,
         std::vector<MemAccess> &out)
    {
        GLLC_ASSERT(sampler < l1_.size());
        // Fills between levels stay inside the hierarchy.
        scratch_.clear();
        if (l1_[sampler].access(addr, false, StreamType::Texture, cycle,
                                scratch_))
            return 1;
        if (l2_[clusterOf_[sampler]].access(addr, false,
                                            StreamType::Texture, cycle,
                                            scratch_))
            return 2;
        if (l3_.access(addr, false, StreamType::Texture, cycle, scratch_))
            return 3;
        out.emplace_back(blockAlign(addr), StreamType::Texture, false,
                         cycle);
        return 4;
    }

    /** Invalidate all levels (frame boundary). */
    void invalidate();

    const SmallCacheStats &l1Stats(std::uint32_t sampler) const;
    const SmallCacheStats &l2Stats(std::uint32_t cluster) const;
    const SmallCacheStats &l3Stats() const { return l3_.stats(); }
    std::uint32_t samplers() const { return config_.samplers; }

    /** Every level's caches: L1 by sampler, L2 by cluster, then L3. */
    std::vector<const SmallCache *> caches() const;

  private:
    TextureHierarchyConfig config_;
    std::vector<SmallCache> l1_;               ///< by sampler
    std::vector<SmallCache> l2_;               ///< by cluster
    SmallCache l3_;
    std::vector<std::uint32_t> clusterOf_;     ///< by sampler
    /** Scratch vector: L1/L2 misses are consumed internally. */
    std::vector<MemAccess> scratch_;
};

} // namespace gllc

#endif // GLLC_RCACHE_TEXTURE_HIERARCHY_HH
