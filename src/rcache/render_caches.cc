#include "rcache/render_caches.hh"

#include <algorithm>

namespace gllc
{

namespace
{

std::uint32_t
scaleBlocks(std::uint32_t blocks, std::uint32_t pixel_scale,
            std::uint32_t floor_blocks)
{
    return std::max(floor_blocks, blocks / pixel_scale);
}

} // namespace

RenderCacheConfig
RenderCacheConfig::scaled(std::uint32_t pixel_scale) const
{
    RenderCacheConfig s = *this;
    if (pixel_scale <= 1)
        return s;
    // Floors keep each cache large enough to capture one draw's
    // working set, which is what the full-size caches achieve at
    // full resolution; without them the scaled caches stop
    // filtering near-term reuse and the LLC stream mix distorts.
    s.vtxIndexBlocks = scaleBlocks(vtxIndexBlocks, pixel_scale, 4);
    s.vertexBlocks = scaleBlocks(vertexBlocks, pixel_scale, 24);
    s.hizBlocks = scaleBlocks(hizBlocks, pixel_scale, 8);
    s.stencilBlocks = scaleBlocks(stencilBlocks, pixel_scale, 8);
    s.rtBlocks = scaleBlocks(rtBlocks, pixel_scale, 24);
    s.zBlocks = scaleBlocks(zBlocks, pixel_scale, 48);
    s.texture.l1Blocks = scaleBlocks(texture.l1Blocks, pixel_scale, 8);
    s.texture.l2Blocks = scaleBlocks(texture.l2Blocks, pixel_scale, 16);
    s.texture.l3Blocks =
        scaleBlocks(texture.l3Blocks, pixel_scale, 96);
    return s;
}

RenderCacheComplex::RenderCacheComplex(const RenderCacheConfig &config)
    : vtxIndex_("VTXIDX", config.vtxIndexBlocks, config.vtxIndexWays,
                /*write_allocate=*/false),
      vertex_("VTX", config.vertexBlocks, config.vertexWays,
              /*write_allocate=*/false),
      hiz_("HiZ", config.hizBlocks, config.hizWays),
      z_("Z", config.zBlocks, config.zWays),
      stencil_("STC", config.stencilBlocks, config.stencilWays),
      rt_("RT", config.rtBlocks, config.rtWays),
      tex_(config.texture)
{
}

void
RenderCacheComplex::passBoundary(std::uint32_t cycle,
                                 std::vector<MemAccess> &out)
{
    rt_.flush(cycle, out);
    z_.flush(cycle, out);
    hiz_.flush(cycle, out);
    stencil_.flush(cycle, out);
}

void
RenderCacheComplex::frameBoundary(std::uint32_t cycle,
                                  std::vector<MemAccess> &out)
{
    passBoundary(cycle, out);
    std::vector<MemAccess> sink;
    vtxIndex_.flush(cycle, sink);
    vertex_.flush(cycle, sink);
    tex_.invalidate();
}

std::vector<const SmallCache *>
RenderCacheComplex::caches() const
{
    std::vector<const SmallCache *> all{&vtxIndex_, &vertex_, &hiz_,
                                        &z_, &stencil_, &rt_};
    const std::vector<const SmallCache *> tex = tex_.caches();
    all.insert(all.end(), tex.begin(), tex.end());
    return all;
}

} // namespace gllc
