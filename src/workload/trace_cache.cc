#include "workload/trace_cache.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "trace/trace_io.hh"
#include "workload/trace_identity.hh"

namespace gllc
{

std::string
traceCachePath(const AppProfile &app, std::uint32_t frame_index,
               const RenderScale &scale, const std::string &cache_dir)
{
    const std::string dir =
        cache_dir.empty() ? envString("GLLC_TRACE_CACHE", "")
                          : cache_dir;
    if (dir.empty())
        return "";
    char name[32];
    std::snprintf(name, sizeof(name), "tr%016" PRIx64 ".gltrc",
                  traceSetHash({{app.name, frame_index}}, scale.linear,
                               scale.scatterPages));
    return dir + "/" + name;
}

FrameTrace
cachedRenderFrame(const AppProfile &app, std::uint32_t frame_index,
                  const RenderScale &scale,
                  const std::string &cache_dir, bool *loaded)
{
    if (loaded != nullptr)
        *loaded = false;
    const std::string path =
        traceCachePath(app, frame_index, scale, cache_dir);
    if (path.empty())
        return renderFrame(app, frame_index, scale);

    // A cached trace is an optimization, never a dependency: when
    // the file is missing, truncated, bit-rotten or from an old
    // format, fall back to regenerating (and refreshing the cache)
    // instead of aborting a batch run.
    if (std::ifstream probe(path, std::ios::binary); probe.good()) {
        Result<FrameTrace> cached = tryReadTraceFile(path);
        if (cached.ok()) {
            if (loaded != nullptr)
                *loaded = true;
            return cached.take();
        }
        warn("discarding unusable cached trace: %s",
             cached.error().toString().c_str());
        if (metricsActive())
            MetricsRegistry::instance().addCounter(
                "trace.cache_discarded");
    }

    FrameTrace trace = renderFrame(app, frame_index, scale);
    // Same optimization-not-dependency rule on the write side: an
    // uncreatable cache directory or full disk costs the speedup,
    // not the run.
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    if (Result<Unit> written = tryWriteTraceFile(trace, path);
        !written.ok()) {
        warn("cannot refresh trace cache: %s",
             written.error().toString().c_str());
    }
    return trace;
}

} // namespace gllc
