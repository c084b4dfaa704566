/**
 * @file
 * The render-cache complex: every first-level GPU cache in front of
 * the LLC (Section 4's configuration), producing the LLC access
 * streams as its misses and writebacks.
 */

#ifndef GLLC_RCACHE_RENDER_CACHES_HH
#define GLLC_RCACHE_RENDER_CACHES_HH

#include <cstdint>
#include <vector>

#include "rcache/small_cache.hh"
#include "rcache/texture_hierarchy.hh"

namespace gllc
{

/**
 * Block counts / ways of every render cache.  Defaults follow
 * Section 4: 1 KB 16-way vertex index, 16 KB 128-way vertex, 12 KB
 * 24-way HiZ, 16 KB 16-way stencil, 24 KB 24-way render target,
 * 32 KB 32-way Z, and the texture hierarchy.
 */
struct RenderCacheConfig
{
    std::uint32_t vtxIndexBlocks = 16;   ///< 1 KB
    std::uint32_t vtxIndexWays = 16;
    std::uint32_t vertexBlocks = 256;    ///< 16 KB
    std::uint32_t vertexWays = 128;
    std::uint32_t hizBlocks = 192;       ///< 12 KB
    std::uint32_t hizWays = 24;
    std::uint32_t stencilBlocks = 256;   ///< 16 KB
    std::uint32_t stencilWays = 16;
    std::uint32_t rtBlocks = 384;        ///< 24 KB
    std::uint32_t rtWays = 24;
    std::uint32_t zBlocks = 512;         ///< 32 KB
    std::uint32_t zWays = 32;

    TextureHierarchyConfig texture;

    /**
     * Divide every capacity by @p pixel_scale (resolution ratio),
     * with a floor of four blocks per cache, so scaled-down frames
     * see proportionate filtering.
     */
    RenderCacheConfig scaled(std::uint32_t pixel_scale) const;
};

/** All render caches, sharing one output trace vector per frame. */
class RenderCacheComplex
{
  public:
    explicit RenderCacheComplex(const RenderCacheConfig &config);

    /// @name Pipeline-stage access entry points
    /// Each appends any generated LLC traffic to @p out.  They are
    /// inline so each cache's MRU check lands in the render loop.
    /// @{
    void
    vertexIndexRead(Addr addr, std::uint32_t cycle,
                    std::vector<MemAccess> &out)
    {
        vtxIndex_.access(addr, false, StreamType::Vertex, cycle, out);
    }

    void
    vertexRead(Addr addr, std::uint32_t cycle, std::vector<MemAccess> &out)
    {
        vertex_.access(addr, false, StreamType::Vertex, cycle, out);
    }

    void
    hizAccess(Addr addr, bool is_write, std::uint32_t cycle,
              std::vector<MemAccess> &out)
    {
        hiz_.access(addr, is_write, StreamType::HiZ, cycle, out);
    }

    void
    zAccess(Addr addr, bool is_write, std::uint32_t cycle,
            std::vector<MemAccess> &out)
    {
        z_.access(addr, is_write, StreamType::Z, cycle, out);
    }

    void
    stencilAccess(Addr addr, bool is_write, std::uint32_t cycle,
                  std::vector<MemAccess> &out)
    {
        stencil_.access(addr, is_write, StreamType::Stencil, cycle, out);
    }

    /**
     * Color-buffer access through the RT cache.  @p stream selects
     * RenderTarget for ordinary render targets and Display for the
     * final back-buffer resolve.
     */
    void
    colorAccess(Addr addr, bool is_write, StreamType stream,
                std::uint32_t cycle, std::vector<MemAccess> &out)
    {
        rt_.access(addr, is_write, stream, cycle, out);
    }

    /** Texture read through the sampler hierarchy. */
    void
    textureRead(Addr addr, std::uint32_t sampler, std::uint32_t cycle,
                std::vector<MemAccess> &out)
    {
        tex_.read(addr, sampler, cycle, out);
    }

    /** Uncached access (shader code, constants): straight to LLC. */
    void
    otherRead(Addr addr, std::uint32_t cycle, std::vector<MemAccess> &out)
    {
        out.emplace_back(blockAlign(addr), StreamType::Other, false, cycle);
    }
    /// @}

    /**
     * Render-pass boundary: write back and invalidate the color and
     * depth caches so a following pass that samples this pass's
     * output observes it through the LLC (render-to-texture).
     */
    void passBoundary(std::uint32_t cycle, std::vector<MemAccess> &out);

    /** Frame boundary: passBoundary plus texture/vertex invalidate. */
    void frameBoundary(std::uint32_t cycle, std::vector<MemAccess> &out);

    /// @name Statistics
    /// @{
    const SmallCacheStats &vtxIndexStats() const
    {
        return vtxIndex_.stats();
    }
    const SmallCacheStats &vertexStats() const { return vertex_.stats(); }
    const SmallCacheStats &hizStats() const { return hiz_.stats(); }
    const SmallCacheStats &zStats() const { return z_.stats(); }
    const SmallCacheStats &stencilStats() const { return stencil_.stats(); }
    const SmallCacheStats &rtStats() const { return rt_.stats(); }
    const TextureHierarchy &texture() const { return tex_; }

    /** Every cache in the complex, texture levels last, in a fixed order. */
    std::vector<const SmallCache *> caches() const;
    /// @}

  private:
    SmallCache vtxIndex_;
    SmallCache vertex_;
    SmallCache hiz_;
    SmallCache z_;
    SmallCache stencil_;
    SmallCache rt_;
    TextureHierarchy tex_;
};

} // namespace gllc

#endif // GLLC_RCACHE_RENDER_CACHES_HH
