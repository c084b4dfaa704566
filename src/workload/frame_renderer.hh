/**
 * @file
 * Direct3D-style frame renderer producing LLC access traces.
 *
 * Models the pipeline of Section 2.1 in enough detail to reproduce
 * the LLC-visible behaviour of a rendered frame:
 *
 *   1. offscreen producer passes (shadow maps, environment maps)
 *      render geometry into offscreen render targets;
 *   2. the main geometry pass rasterizes the scene into the scene
 *      color target with hierarchical-Z and early-Z, samples static
 *      MIP-style textures and the offscreen targets (dynamic
 *      texturing = the RT->TEX inter-stream reuse of Figure 6);
 *   3. a post-processing chain of full-screen passes, each consuming
 *      the previous color target as a texture and writing the next;
 *   4. the present pass resolves the final target into the back
 *      buffer, emitting the displayable color stream.
 *
 * All memory traffic flows through the render-cache complex
 * (rcache/), so the produced FrameTrace contains exactly the render
 * cache misses and writebacks: the LLC access streams.
 */

#ifndef GLLC_WORKLOAD_FRAME_RENDERER_HH
#define GLLC_WORKLOAD_FRAME_RENDERER_HH

#include <cstdint>
#include <functional>

#include "rcache/render_caches.hh"
#include "trace/frame_trace.hh"
#include "workload/app_profile.hh"

namespace gllc
{

/** Linear scale divisor applied to the whole machine (DESIGN.md §2). */
struct RenderScale
{
    /** Resolution divisor per axis; pixel counts shrink by scale^2. */
    std::uint32_t linear = 4;

    /**
     * Scatter surface pages across physical memory (the driver
     * fragmentation model; see workload/memmap.hh).  Disabled only
     * by the SHiP-mem region-purity ablation.
     */
    bool scatterPages = true;

    std::uint32_t pixelScale() const { return linear * linear; }
};

/**
 * Render one frame of an application.
 *
 * @param app workload profile (full-resolution knobs)
 * @param frame_index which captured frame (varies seed and camera)
 * @param scale machine/resolution scale
 * @param rc_config render caches to filter through (already scaled)
 * @param inspect if set, sees the render caches once the frame is
 *        done (tests read each cache's statistics)
 */
FrameTrace renderFrame(
    const AppProfile &app, std::uint32_t frame_index,
    const RenderScale &scale, const RenderCacheConfig &rc_config,
    const std::function<void(const RenderCacheComplex &)> &inspect = {});

/** renderFrame with render caches scaled to match @p scale. */
FrameTrace renderFrame(const AppProfile &app, std::uint32_t frame_index,
                       const RenderScale &scale);

/**
 * Render @p frame_count consecutive frames of an animation into one
 * trace.  Surfaces persist across frames (static textures, depth and
 * render targets keep their addresses), exposing the inter-frame
 * reuse a single-frame study cannot capture — an extension beyond
 * the paper's per-frame methodology (see bench/ext_animation).
 */
FrameTrace renderAnimation(const AppProfile &app,
                           std::uint32_t frame_count,
                           const RenderScale &scale);

} // namespace gllc

#endif // GLLC_WORKLOAD_FRAME_RENDERER_HH
