/**
 * @file
 * On-disk frame-trace cache.
 *
 * Rendering a frame costs far more than replaying it; when the same
 * frame set is swept repeatedly (bench iteration, calibration, gllcd
 * jobs over frames an earlier job rendered), the generated traces can
 * be cached on disk via trace_io.  Harnesses opt in with
 * GLLC_TRACE_CACHE=<dir>; gllcd workers use <store>/traces.  Files are
 * named tr<hash:016x>.gltrc by the trace identity of their one frame
 * (traceSetHash(), workload/trace_identity.hh), the same hash
 * SweepJobSpec::traceHash() computes.  Writes are atomic renames, so
 * processes and threads may share one cache directory.
 */

#ifndef GLLC_WORKLOAD_TRACE_CACHE_HH
#define GLLC_WORKLOAD_TRACE_CACHE_HH

#include <string>

#include "workload/frame_renderer.hh"

namespace gllc
{

/**
 * Render a frame, using the trace cache directory if one is
 * configured (GLLC_TRACE_CACHE, or @p cache_dir when nonempty).
 * Falls back to plain rendering when caching is off.  A cache miss
 * renders and then populates the cache, creating the directory; an
 * unusable file (torn, corrupt, old format) is discarded with a
 * warning, counted in trace.cache_discarded, and re-rendered.  When
 * @p loaded is given it is set to whether the trace came from the
 * cache.
 */
FrameTrace cachedRenderFrame(const AppProfile &app,
                             std::uint32_t frame_index,
                             const RenderScale &scale,
                             const std::string &cache_dir = "",
                             bool *loaded = nullptr);

/** The cache file path a given frame would use ("" if caching off). */
std::string traceCachePath(const AppProfile &app,
                           std::uint32_t frame_index,
                           const RenderScale &scale,
                           const std::string &cache_dir = "");

} // namespace gllc

#endif // GLLC_WORKLOAD_TRACE_CACHE_HH
