#include "workload/frame_renderer.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "workload/memmap.hh"
#include "workload/surfaces.hh"

namespace gllc
{

namespace
{

/** Per-frame rendering state shared by the pass routines. */
class FrameContext
{
  public:
    FrameContext(const AppProfile &app, std::uint32_t frame_index,
                 const RenderScale &scale,
                 const RenderCacheConfig &rc_config)
        : app(app),
          rng(app.seed ^ (0x9e3779b97f4a7c15ULL
                          * (frame_index + 1))),
          mem(rng.fork(0x11).next(), scale.scatterPages),
          rcc(rc_config),
          zipf(app.textureCount, app.zipfTheta)
    {
        const std::uint32_t s = std::max<std::uint32_t>(1, scale.linear);
        width = std::max<std::uint32_t>(64, app.width / s);
        height = std::max<std::uint32_t>(64, app.height / s);
        triangles = std::max<std::uint32_t>(
            256, app.triangles / scale.pixelScale());
        textureEdge = std::max<std::uint32_t>(64, app.textureEdge / s);

        allocateSurfaces();

        trace.name = app.name + "/f" + std::to_string(frame_index);
        trace.app = app.name;
        trace.frameIndex = frame_index;
        trace.accesses.reserve(
            static_cast<std::size_t>(triangles) * 8);
    }

    /// @name Workload profile and derived dimensions
    /// @{
    const AppProfile &app;
    std::uint32_t width;
    std::uint32_t height;
    std::uint32_t triangles;
    std::uint32_t textureEdge;
    /// @}

    Rng rng;
    GpuMemory mem;
    RenderCacheComplex rcc;
    ZipfSampler zipf;

    FrameTrace trace;

    /// @name Surfaces
    /// @{
    Surface backBuffer;
    Surface depth;
    Surface hiz;
    Surface stencil;
    Surface vertexBuffer;
    Surface indexBuffer;
    Surface constants;
    /** Static textures as MIP chains (level 0 = full size). */
    std::vector<std::vector<Surface>> staticTextures;
    std::vector<Surface> offscreenTargets;
    std::vector<Surface> chainTargets;  ///< scene RT + post chain
    /// @}

    /** Abstract GPU-cycle work cursor (stamps LLC accesses). */
    double cycleCursor = 0.0;

    std::uint32_t cycle() const
    {
        return static_cast<std::uint32_t>(cycleCursor);
    }

    /** Advance the cursor by shader work (ops across all cores). */
    void
    advance(double shader_ops)
    {
        // 96 cores x 16 single-precision ops per cycle (Section 4);
        // the cursor only shapes DRAM arrival times, so the scale
        // constant matters less than monotonicity.
        cycleCursor += shader_ops / 1536.0 + 0.01;
    }

    /** Translate a virtual surface address and emit through @p fn. */
    Addr phys(Addr vaddr) const { return mem.translate(vaddr); }

    /** Next sampler of a round robin kept in @p counter. */
    std::uint32_t
    nextSampler(std::uint32_t &counter) const
    {
        const std::uint32_t sampler = counter;
        if (++counter == rcc.texture().samplers())
            counter = 0;
        return sampler;
    }

  private:
    void allocateSurfaces();
};

void
FrameContext::allocateSurfaces()
{
    // Interleave allocations so physical 16 KB regions mix streams
    // (see memmap.hh).
    backBuffer = Surface::make2D(mem, SurfaceKind::BackBuffer, "back",
                                 width, height, 4);
    depth = Surface::make2D(mem, SurfaceKind::Depth, "depth", width,
                            height, 4);
    hiz = Surface::make2D(mem, SurfaceKind::HiZ, "hiz",
                          std::max(1u, width / 4),
                          std::max(1u, height / 4), 4);
    if (app.usesStencil) {
        stencil = Surface::make2D(mem, SurfaceKind::StencilBuffer,
                                  "stencil", width, height, 1);
    }

    const std::uint64_t vertex_count =
        static_cast<std::uint64_t>(triangles * 0.6) + 16;
    vertexBuffer = Surface::makeLinear(
        mem, SurfaceKind::VertexBuffer, "vb", vertex_count * 32);
    indexBuffer = Surface::makeLinear(
        mem, SurfaceKind::IndexBuffer, "ib",
        static_cast<std::uint64_t>(triangles) * 6);
    constants = Surface::makeLinear(mem, SurfaceKind::Constants,
                                    "const", 64 * 1024);

    for (std::uint32_t i = 0; i < app.textureCount; ++i) {
        // MIP chain down to 32 texels (at most 4 levels); samplers
        // pick the level that brings the texel:pixel ratio near one
        // (Williams' pyramidal parametrics, cited in Section 1.1.2).
        std::vector<Surface> chain;
        std::uint32_t edge = textureEdge;
        while (edge >= 32 && chain.size() < 4) {
            chain.push_back(Surface::make2D(
                mem, SurfaceKind::StaticTexture,
                "tex" + std::to_string(i) + ".l"
                    + std::to_string(chain.size()),
                edge, edge, 4));
            edge /= 2;
        }
        staticTextures.push_back(std::move(chain));
    }

    const auto off_edge = [&](std::uint32_t full) {
        return std::max<std::uint32_t>(
            32, static_cast<std::uint32_t>(full * app.offscreenScale));
    };
    for (std::uint32_t i = 0; i < app.offscreenTargets; ++i) {
        offscreenTargets.push_back(Surface::make2D(
            mem, SurfaceKind::RenderTarget, "off" + std::to_string(i),
            off_edge(width), off_edge(height), 4));
    }

    // Scene target plus one target per post pass (ping-pong chain).
    const std::uint32_t chain = 1 + app.postChainLength;
    for (std::uint32_t i = 0; i < chain; ++i) {
        chainTargets.push_back(Surface::make2D(
            mem, SurfaceKind::RenderTarget, "chain" + std::to_string(i),
            width, height, 4));
    }
}

/**
 * Geometry pass: rasterize triangle draws into a color target with
 * HiZ / early-Z, sampling textures per covered tile.
 */
struct GeometryPassParams
{
    Surface *color = nullptr;            ///< color target
    StreamType colorStream = StreamType::RenderTarget;
    std::uint32_t passTriangles = 0;
    std::uint32_t textureLayers = 0;     ///< static layers per draw
    /** Offscreen targets sampled screen-projectively (shadow-style). */
    std::vector<Surface *> dynamicInputs;
    double consumeFraction = 1.0;
    bool depthWrites = true;
    bool stencilPass = false;
    std::uint32_t viewWidth = 0;
    std::uint32_t viewHeight = 0;
};

class GeometryPass
{
  public:
    GeometryPass(FrameContext &ctx, const GeometryPassParams &p)
        : ctx(ctx), p(p),
          tilesX((p.viewWidth + 3) / 4), tilesY((p.viewHeight + 3) / 4),
          tileDepth(static_cast<std::size_t>(tilesX) * tilesY, 1.0f),
          regionsX((p.viewWidth + 7) / 8),
          regionsY((p.viewHeight + 7) / 8),
          regionMax(static_cast<std::size_t>(regionsX) * regionsY,
                    1.0f),
          regionTouched(
              static_cast<std::size_t>(regionsX) * regionsY, 0),
          colorTouched(static_cast<std::size_t>(tilesX) * tilesY, 0)
    {
    }

    void run();

  private:
    void drawCall(std::uint32_t draw_index, std::uint32_t draw_count,
                  std::uint32_t tris);
    void triangle(std::uint32_t draw_index, std::uint32_t draw_count,
                  double cx, double cy, const Surface &texture,
                  std::uint32_t anchor_u, std::uint32_t anchor_v,
                  double texel_ratio, bool blend_draw);
    void shadeTile(std::uint32_t tx, std::uint32_t ty,
                   const Surface &texture, std::uint32_t anchor_u,
                   std::uint32_t anchor_v, double texel_ratio,
                   bool blend_draw);

    /** Recompute the 8x8-region max depth from its 2x2 tiles. */
    void
    updateRegionMax(std::uint32_t rx, std::uint32_t ry)
    {
        float m = 0.0f;
        for (std::uint32_t dy = 0; dy < 2; ++dy) {
            for (std::uint32_t dx = 0; dx < 2; ++dx) {
                const std::uint32_t tx = std::min(rx * 2 + dx,
                                                  tilesX - 1);
                const std::uint32_t ty = std::min(ry * 2 + dy,
                                                  tilesY - 1);
                m = std::max(
                    m,
                    tileDepth[static_cast<std::size_t>(ty) * tilesX
                              + tx]);
            }
        }
        regionMax[static_cast<std::size_t>(ry) * regionsX + rx] = m;
    }

    FrameContext &ctx;
    const GeometryPassParams &p;
    std::uint32_t tilesX, tilesY;
    std::vector<float> tileDepth;
    std::uint32_t regionsX, regionsY;
    std::vector<float> regionMax;
    std::vector<std::uint8_t> regionTouched;
    std::vector<std::uint8_t> colorTouched;

    std::uint64_t vertexCursor = 0;
    std::uint64_t indexCursor = 0;
    std::uint32_t samplerRR = 0;   ///< round-robin sampler assignment
    std::uint32_t dynamicRR = 0;   ///< round-robin dynamic input
    const Surface *dynamicInput = nullptr;  ///< bound this draw
    std::uint32_t clusterTx0 = 0;  ///< draw cluster origin (tiles)
    std::uint32_t clusterTy0 = 0;
    bool tessellated = false;      ///< current draw uses DX11 stages
    std::uint32_t triParity = 0;   ///< alternates generated triangles
    const std::vector<Surface> *lastTexture = nullptr;  ///< batching
    std::uint32_t lastAnchor = 0;
    const Surface *trilinearNext = nullptr;  ///< coarser MIP level
    float currentDepth = 0.0f;
};

void
GeometryPass::run()
{
    const std::uint32_t draws = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(p.passTriangles
                                      / ctx.app.trisPerDraw));
    const std::uint32_t tris_per_draw =
        std::max<std::uint32_t>(1, p.passTriangles / draws);
    for (std::uint32_t d = 0; d < draws; ++d)
        drawCall(d, draws, tris_per_draw);
}

void
GeometryPass::drawCall(std::uint32_t draw_index,
                       std::uint32_t draw_count, std::uint32_t tris)
{
    auto &out = ctx.trace.accesses;

    // Constants / shader state reads for this draw (Other stream).
    const std::uint32_t const_blocks = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(ctx.app.otherBlocksPerDraw));
    const std::uint64_t const_base =
        ctx.rng.below(ctx.constants.bytes() / kBlockBytes)
        * kBlockBytes;
    for (std::uint32_t i = 0; i < const_blocks; ++i) {
        const Addr va = ctx.constants.linearAddress(
            (const_base + i * kBlockBytes) % ctx.constants.bytes());
        ctx.rcc.otherRead(ctx.phys(va), ctx.cycle(), out);
    }

    // Bind a texture and an anchor window within it.  Engines sort
    // draws by material to minimize state changes, so consecutive
    // draws frequently bind the same texture window (near-term LLC
    // texture reuse that even DRRIP captures).  Otherwise draws pick
    // a Zipf-popular texture; draws sharing an anchor sample
    // overlapping windows, and the per-draw offset keeps the overlap
    // partial, so most blocks of a window pair are touched once or
    // twice and only a small core three or more times (the epoch
    // structure of Figure 7).
    const bool batch_material =
        lastTexture != nullptr && ctx.rng.chance(0.3);
    const std::vector<Surface> &chain = batch_material
        ? *lastTexture
        : ctx.staticTextures[ctx.zipf.sample(ctx.rng)];
    const std::uint32_t anchor_id = batch_material
        ? lastAnchor
        : static_cast<std::uint32_t>(
              ctx.rng.below(ctx.app.anchorsPerTexture));
    lastTexture = &chain;
    lastAnchor = anchor_id;

    // MIP selection: the raw texel:pixel footprint picks the level
    // whose effective ratio lands nearest one.
    const double raw_ratio = 1.0 + 1.0 * ctx.rng.uniform();
    const std::size_t mip_level =
        (raw_ratio >= 1.41 && chain.size() > 1) ? 1 : 0;
    const Surface &texture = chain[mip_level];
    trilinearNext = (mip_level + 1 < chain.size())
        ? &chain[mip_level + 1]
        : nullptr;
    Rng anchor_rng(texture.base() ^ (anchor_id * 0x2545f4914f6cdd1dULL));
    const std::uint32_t window =
        std::max<std::uint32_t>(32, texture.width() / 8);
    const std::uint32_t anchor_u = static_cast<std::uint32_t>(
        anchor_rng.below(std::max(1u, texture.width() - window))
        + ctx.rng.below(window / 3 + 1));
    const std::uint32_t anchor_v = static_cast<std::uint32_t>(
        anchor_rng.below(std::max(1u, texture.height() - window))
        + ctx.rng.below(window / 3 + 1));
    const double texel_ratio =
        raw_ratio / static_cast<double>(std::size_t{1} << mip_level);

    // Screen-space cluster this draw's mesh occupies.  Scenes are
    // not uniform: a focus region (the action) collects most of the
    // geometry and is overdrawn repeatedly, while the periphery
    // (sky, distant terrain) is covered by few draws, so a sizable
    // fraction of Z/RT blocks is touched by a single draw (the high
    // Z E0 death ratio of Figure 9).
    const double cluster_r = std::sqrt(
        static_cast<double>(tris) * ctx.app.triPixels) * 0.9;
    double cx, cy;
    if (ctx.rng.chance(ctx.app.clusterFocus)) {
        cx = (0.3 + 0.4 * ctx.rng.uniform()) * p.viewWidth;
        cy = (0.3 + 0.4 * ctx.rng.uniform()) * p.viewHeight;
    } else {
        cx = ctx.rng.uniform() * p.viewWidth;
        cy = ctx.rng.uniform() * p.viewHeight;
    }

    // Transparent geometry renders after the opaque scene, so blend
    // draws are the pass's final draws; their color reads reach far
    // back to blocks written much earlier in the pass.
    const bool blend_draw =
        static_cast<double>(draw_index)
        >= (1.0 - ctx.app.blendFraction) * draw_count;

    // DirectX 11 tessellation: the patch expands into twice as many
    // half-area triangles; the generated vertices come from the
    // tessellator (no vertex-buffer fetch) and the domain shader
    // samples a displacement map per tile.
    tessellated = ctx.rng.chance(ctx.app.tessellatedDraws);
    if (tessellated)
        tris *= 2;

    ++dynamicRR;
    if (!p.dynamicInputs.empty())
        dynamicInput =
            p.dynamicInputs[dynamicRR % p.dynamicInputs.size()];

    // Draw-order-correlated depth: frontToBack -> later draws sit
    // behind earlier ones and die in early-Z.
    const double order =
        static_cast<double>(draw_index) / std::max(1u, draw_count - 1);
    currentDepth = static_cast<float>(
        ctx.app.frontToBack * order
        + (1.0 - ctx.app.frontToBack) * ctx.rng.uniform());

    // The draw's texture window maps cluster-relative screen
    // positions to texels, so two draws that share (texture, anchor)
    // sample overlapping windows regardless of where their meshes
    // sit on screen.
    clusterTx0 = static_cast<std::uint32_t>(
        std::max(0.0, cx - cluster_r)) / 4;
    clusterTy0 = static_cast<std::uint32_t>(
        std::max(0.0, cy - cluster_r)) / 4;

    // Meshes rasterize as spatially coherent strips: the triangle
    // centre performs a bounded random walk around the cluster, so
    // consecutive triangles land on adjacent tiles and the small
    // Z/RT caches filter the near-term revisits (far revisits come
    // from other draws and reach the LLC).
    const double step = std::sqrt(ctx.app.triPixels) * 1.1;
    double wx = cx, wy = cy;
    for (std::uint32_t t = 0; t < tris; ++t) {
        wx += ctx.rng.gaussian() * step;
        wy += ctx.rng.gaussian() * step;
        // Soft pull back toward the cluster centre.
        wx += (cx - wx) * (std::abs(wx - cx) > cluster_r ? 0.3 : 0.0);
        wy += (cy - wy) * (std::abs(wy - cy) > cluster_r ? 0.3 : 0.0);
        wx = std::clamp(wx, 0.0, static_cast<double>(p.viewWidth - 1));
        wy = std::clamp(wy, 0.0, static_cast<double>(p.viewHeight - 1));
        triangle(draw_index, draw_count, wx, wy, texture, anchor_u,
                 anchor_v, texel_ratio, blend_draw);
    }

    ctx.advance(static_cast<double>(tris) * 12.0);  // vertex shading
}

void
GeometryPass::triangle(std::uint32_t, std::uint32_t, double cx,
                       double cy, const Surface &texture,
                       std::uint32_t anchor_u, std::uint32_t anchor_v,
                       double texel_ratio, bool blend_draw)
{
    auto &out = ctx.trace.accesses;

    // Input assembly: three indices (6 B) and ~2 new vertices.
    // Tessellator-generated triangles (every second one of a
    // tessellated draw) fetch nothing: their vertices are produced
    // by the fixed-function stage.
    const bool generated = tessellated && (triParity++ & 1);
    if (!generated) {
        ctx.rcc.vertexIndexRead(
            ctx.phys(ctx.indexBuffer.linearAddress(indexCursor)),
            ctx.cycle(), out);
        indexCursor = (indexCursor + 6) % ctx.indexBuffer.bytes();
    }

    const std::uint64_t vstride = 32;
    for (int v = 0; !generated && v < 3; ++v) {
        // Strip-like vertex id pattern: mostly marching forward,
        // occasionally re-touching a recent vertex.
        std::uint64_t vid = vertexCursor + v;
        if (ctx.rng.chance(0.6) && vertexCursor > 8)
            vid = vertexCursor - ctx.rng.below(8);
        const Addr va =
            ctx.vertexBuffer.linearAddress((vid * vstride)
                                           % ctx.vertexBuffer.bytes());
        ctx.rcc.vertexRead(ctx.phys(va), ctx.cycle(), out);
    }
    // Indexed meshes share vertices heavily: ~0.4 new vertices per
    // triangle.  Tessellator-generated triangles never consume the
    // vertex buffer, but their domain-shader vertices are still
    // shading work.
    if (ctx.rng.chance(0.4)) {
        if (!generated)
            vertexCursor += 1;
        ++ctx.trace.work.verticesShaded;
    }

    // Screen bounding box in 4x4 tiles (tessellated patches split
    // into half-area triangles).
    const double area_scale = tessellated ? 0.5 : 1.0;
    const double half = std::sqrt(ctx.app.triPixels * area_scale
                                  * (0.5 + ctx.rng.uniform()))
        * 0.7;
    const std::int64_t x0 = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(cx - half), 0, p.viewWidth - 1);
    const std::int64_t x1 = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(cx + half), 0, p.viewWidth - 1);
    const std::int64_t y0 = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(cy - half), 0, p.viewHeight - 1);
    const std::int64_t y1 = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(cy + half), 0, p.viewHeight - 1);

    const std::uint32_t t0x = static_cast<std::uint32_t>(x0 / 4);
    const std::uint32_t t1x = static_cast<std::uint32_t>(x1 / 4);
    const std::uint32_t t0y = static_cast<std::uint32_t>(y0 / 4);
    const std::uint32_t t1y = static_cast<std::uint32_t>(y1 / 4);

    for (std::uint32_t ty = t0y; ty <= t1y; ++ty) {
        for (std::uint32_t tx = t0x; tx <= t1x; ++tx) {
            // Hierarchical depth test at 8x8-pixel granularity.  The
            // HiZ surface holds one 4 B element per 4x4-pixel tile,
            // so region (rx, ry) covers HiZ elements (2rx.., 2ry..).
            // Depth buffers are fast-cleared: a region that has
            // never been touched this pass needs no HiZ read.
            const std::uint32_t rx = std::min(tx / 2, regionsX - 1);
            const std::uint32_t ry = std::min(ty / 2, regionsY - 1);
            float &rmax =
                regionMax[static_cast<std::size_t>(ry) * regionsX + rx];
            const bool region_clear =
                !regionTouched[static_cast<std::size_t>(ry) * regionsX
                               + rx];
            if (!region_clear) {
                ctx.rcc.hizAccess(
                    ctx.phys(ctx.hiz.tileAddress(tx, ty)), false,
                    ctx.cycle(), out);
                if (!blend_draw && currentDepth > rmax)
                    continue;  // whole 8x8 region occluded
            }

            // Partial triangle coverage of the tile.
            if (ctx.rng.chance(0.3))
                continue;

            // Early depth test at tile granularity (fast-cleared
            // tiles pass without reading the depth buffer).
            if (!blend_draw) {
                float &tdepth =
                    tileDepth[static_cast<std::size_t>(ty) * tilesX
                              + tx];
                if (tdepth != 1.0f) {
                    ctx.rcc.zAccess(
                        ctx.phys(ctx.depth.tileAddress(tx * 4, ty * 4)),
                        false, ctx.cycle(), out);
                    if (currentDepth >= tdepth)
                        continue;  // occluded
                }
                if (p.depthWrites) {
                    tdepth = currentDepth;
                    regionTouched[static_cast<std::size_t>(ry)
                                      * regionsX
                                  + rx] = 1;
                    updateRegionMax(rx, ry);
                    ctx.rcc.zAccess(
                        ctx.phys(ctx.depth.tileAddress(tx * 4, ty * 4)),
                        true, ctx.cycle(), out);
                    ctx.rcc.hizAccess(
                        ctx.phys(ctx.hiz.tileAddress(tx, ty)), true,
                        ctx.cycle(), out);
                }
            }

            shadeTile(tx, ty, texture, anchor_u, anchor_v,
                      texel_ratio, blend_draw);
        }
    }
}

void
GeometryPass::shadeTile(std::uint32_t tx, std::uint32_t ty,
                        const Surface &texture, std::uint32_t anchor_u,
                        std::uint32_t anchor_v, double texel_ratio,
                        bool blend_draw)
{
    auto &out = ctx.trace.accesses;
    const std::uint32_t pixels = 10;  // mean covered pixels per tile

    ctx.trace.work.pixelsShaded += pixels;
    ctx.trace.work.shaderOps += static_cast<std::uint64_t>(
        pixels * ctx.app.shaderOpsPerPixel);
    ctx.advance(pixels * ctx.app.shaderOpsPerPixel);

    // Static texture layers: affine window walk from the anchor.
    for (std::uint32_t layer = 0; layer < p.textureLayers; ++layer) {
        const std::uint32_t rel_tx = tx > clusterTx0 ? tx - clusterTx0
                                                     : 0;
        const std::uint32_t rel_ty = ty > clusterTy0 ? ty - clusterTy0
                                                     : 0;
        const std::uint32_t du = static_cast<std::uint32_t>(
            rel_tx * 4 * texel_ratio)
            + layer * 17;
        const std::uint32_t dv = static_cast<std::uint32_t>(
            rel_ty * 4 * texel_ratio);
        const std::uint32_t u = wrapCoord(anchor_u + du, texture.width());
        const std::uint32_t v =
            wrapCoord(anchor_v + dv, texture.height());
        const std::uint32_t sampler = ctx.nextSampler(samplerRR);
        ctx.rcc.textureRead(ctx.phys(texture.tileAddress(u, v)),
                            sampler, ctx.cycle(), out);
        // Bilinear footprints spill into the neighbour block at tile
        // borders.
        if (ctx.rng.chance(0.45)) {
            ctx.rcc.textureRead(
                ctx.phys(texture.tileAddress(u + 4, v)), sampler,
                ctx.cycle(), out);
        }
        // Trilinear filtering blends in the next-coarser MIP level.
        if (trilinearNext != nullptr && ctx.rng.chance(0.2)) {
            ctx.rcc.textureRead(
                ctx.phys(trilinearNext->tileAddress(u / 2, v / 2)),
                sampler, ctx.cycle(), out);
        }
        // Tessellated draws: the domain shader samples the same
        // window as a displacement map (offset into the texture so
        // the height data does not alias the color data).
        if (tessellated && layer == 0) {
            ctx.rcc.textureRead(
                ctx.phys(texture.tileAddress(
                    wrapCoord(u + texture.width() / 2, texture.width()),
                    v)),
                sampler, ctx.cycle(), out);
            ctx.trace.work.texelRequests += pixels;
        }
        ctx.trace.work.texelRequests += pixels * 4;
    }

    // Dynamic input (shadow/environment map): each draw samples one
    // of the offscreen targets, at the screen-projected position
    // inside the consumed sub-window.
    if (const Surface *dyn = dynamicInput) {
        const double fx = static_cast<double>(tx) / tilesX;
        const double fy = static_cast<double>(ty) / tilesY;
        const double sub = std::sqrt(p.consumeFraction);
        const std::uint32_t u = static_cast<std::uint32_t>(
            fx * sub * dyn->width());
        const std::uint32_t v = static_cast<std::uint32_t>(
            fy * sub * dyn->height());
        const std::uint32_t sampler = ctx.nextSampler(samplerRR);
        ctx.rcc.textureRead(ctx.phys(dyn->tileAddress(u, v)), sampler,
                            ctx.cycle(), out);
        ctx.trace.work.texelRequests += pixels;
    }

    // Stencil test for the passes that use it.
    if (p.stencilPass) {
        ctx.rcc.stencilAccess(
            ctx.phys(ctx.stencil.tileAddress(tx * 4, ty * 4)),
            ctx.rng.chance(0.3), ctx.cycle(), out);
    }

    // Color output through the RT cache.  Blending always reads the
    // destination first; opaque partial-tile writes to a previously
    // written tile also read-modify-write (small triangles rarely
    // cover a whole 4x4 tile).  The first write of a tile in a pass
    // is fast-cleared: no fetch.
    const Addr color_pa =
        ctx.phys(p.color->tileAddress(tx * 4, ty * 4));
    std::uint8_t &touched =
        colorTouched[static_cast<std::size_t>(ty) * tilesX + tx];
    const bool partial = ctx.rng.chance(0.65);
    if (touched && (blend_draw || partial))
        ctx.rcc.colorAccess(color_pa, false, p.colorStream,
                            ctx.cycle(), out);
    ctx.rcc.colorAccess(color_pa, true, p.colorStream, ctx.cycle(),
                        out);
    touched = 1;
}

/** Full-screen pass: sample @p input over the view, write @p output. */
void
fullScreenPass(FrameContext &ctx, Surface &input, Surface &output,
               StreamType out_stream)
{
    auto &out = ctx.trace.accesses;
    const std::uint32_t tiles_x = (output.width() + 3) / 4;
    const std::uint32_t tiles_y = (output.height() + 3) / 4;
    std::uint32_t sampler = 0;

    for (std::uint32_t ty = 0; ty < tiles_y; ++ty) {
        for (std::uint32_t tx = 0; tx < tiles_x; ++tx) {
            const std::uint32_t u = std::min(tx * 4, input.width() - 1);
            const std::uint32_t v = std::min(ty * 4, input.height() - 1);
            ctx.rcc.textureRead(ctx.phys(input.tileAddress(u, v)),
                                ctx.nextSampler(sampler),
                                ctx.cycle(), out);
            ctx.rcc.colorAccess(
                ctx.phys(output.tileAddress(tx * 4, ty * 4)), true,
                out_stream, ctx.cycle(), out);
            ctx.trace.work.pixelsShaded += 16;
            ctx.trace.work.texelRequests += 16;
            ctx.trace.work.shaderOps += 16 * 12;
            ctx.advance(16 * 12.0);
        }
    }
}

} // namespace

namespace
{

/** Render one frame's pass sequence through an existing context. */
void
renderPasses(FrameContext &ctx)
{
    const AppProfile &app = ctx.app;
    auto &out = ctx.trace.accesses;

    // 1. Offscreen producer passes (shadow / environment maps).
    for (std::uint32_t i = 0; i < app.offscreenTargets; ++i) {
        Surface &target = ctx.offscreenTargets[i];
        GeometryPassParams p;
        p.color = &target;
        p.passTriangles = std::max<std::uint32_t>(
            64, static_cast<std::uint32_t>(ctx.triangles * 0.18));
        p.textureLayers = 0;      // depth/color-only producer pass
        p.depthWrites = true;
        p.viewWidth = target.width();
        p.viewHeight = target.height();
        GeometryPass(ctx, p).run();
        ctx.rcc.passBoundary(ctx.cycle(), out);
    }

    // 2. Main geometry pass into the scene target.
    {
        GeometryPassParams p;
        p.color = &ctx.chainTargets[0];
        p.passTriangles = ctx.triangles;
        p.textureLayers = app.textureLayers;
        for (auto &t : ctx.offscreenTargets)
            p.dynamicInputs.push_back(&t);
        p.consumeFraction = app.consumeFraction;
        p.depthWrites = true;
        p.stencilPass = app.usesStencil;
        p.viewWidth = ctx.width;
        p.viewHeight = ctx.height;
        GeometryPass(ctx, p).run();
        ctx.rcc.passBoundary(ctx.cycle(), out);
    }

    // 3. Post-processing chain (ping-pong RT consumption).
    for (std::uint32_t i = 0; i < app.postChainLength; ++i) {
        fullScreenPass(ctx, ctx.chainTargets[i], ctx.chainTargets[i + 1],
                       StreamType::RenderTarget);
        ctx.rcc.passBoundary(ctx.cycle(), out);
    }

    // 4. Present: resolve the final target into the back buffer.
    fullScreenPass(ctx, ctx.chainTargets.back(), ctx.backBuffer,
                   StreamType::Display);
    ctx.rcc.frameBoundary(ctx.cycle(), out);
}

/** Fill in the work counters derived from the render caches. */
void
finalizeWork(FrameContext &ctx)
{
    ctx.trace.work.rawMemOps =
        ctx.rcc.vtxIndexStats().accesses + ctx.rcc.vertexStats().accesses
        + ctx.rcc.hizStats().accesses + ctx.rcc.zStats().accesses
        + ctx.rcc.stencilStats().accesses + ctx.rcc.rtStats().accesses;
    ctx.trace.work.issueCycles =
        static_cast<std::uint64_t>(ctx.cycleCursor) + 1;
}

} // namespace

FrameTrace
renderFrame(const AppProfile &app, std::uint32_t frame_index,
            const RenderScale &scale,
            const RenderCacheConfig &rc_config,
            const std::function<void(const RenderCacheComplex &)>
                &inspect)
{
    FrameContext ctx(app, frame_index, scale, rc_config);
    renderPasses(ctx);
    finalizeWork(ctx);
    if (inspect)
        inspect(ctx.rcc);
    return std::move(ctx.trace);
}

FrameTrace
renderFrame(const AppProfile &app, std::uint32_t frame_index,
            const RenderScale &scale)
{
    RenderCacheConfig rc;
    return renderFrame(app, frame_index, scale,
                       rc.scaled(scale.pixelScale()));
}

FrameTrace
renderAnimation(const AppProfile &app, std::uint32_t frame_count,
                const RenderScale &scale)
{
    GLLC_ASSERT(frame_count >= 1);
    RenderCacheConfig rc;
    FrameContext ctx(app, 0, scale, rc.scaled(scale.pixelScale()));
    for (std::uint32_t f = 0; f < frame_count; ++f) {
        // Same surfaces, new camera/draw randomness: static
        // textures, depth and render targets persist across frames,
        // exposing the inter-frame reuse a single-frame study
        // cannot see.
        renderPasses(ctx);
    }
    finalizeWork(ctx);
    ctx.trace.name =
        app.name + "/anim" + std::to_string(frame_count);
    return std::move(ctx.trace);
}

} // namespace gllc
