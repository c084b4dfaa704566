/**
 * @file
 * The one identity of a set of rendered frame traces.
 *
 * A rendered trace depends only on its application, its frame index
 * and the render scale (linear divisor plus the page-scatter switch).
 * traceSetHash() hashes exactly those, in one canonical JSON form:
 *
 *   {"gllc_sweep_traces":1,"frames":[{"app":A,"frame":F},...],
 *    "scale":{"linear":L,"scatter_pages":B}}
 *
 * SweepJobSpec::traceHash() is this hash over a job's frames, and the
 * on-disk trace cache names each file by the hash of its one frame,
 * so a cached trace and a job's result-store key share one identity.
 */

#ifndef GLLC_WORKLOAD_TRACE_IDENTITY_HH
#define GLLC_WORKLOAD_TRACE_IDENTITY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gllc
{

/** One frame by application name and frame index (serializable). */
struct FrameRef
{
    std::string app;
    std::uint32_t frameIndex = 0;

    bool
    operator==(const FrameRef &other) const
    {
        return frameIndex == other.frameIndex && app == other.app;
    }
};

/** Version pinned into the canonical trace-identity form. */
constexpr std::uint32_t kTraceIdentityVersion = 1;

/** Append the canonical "frames":[{"app":A,"frame":F},...] member. */
void appendFramesJson(std::string &out,
                      const std::vector<FrameRef> &frames);

/** Append the canonical "scale":{"linear":L,"scatter_pages":B}. */
void appendScaleJson(std::string &out, std::uint32_t linear,
                     bool scatter_pages);

/** fnv1a64 of the canonical identity of @p frames at this scale. */
std::uint64_t traceSetHash(const std::vector<FrameRef> &frames,
                           std::uint32_t linear, bool scatter_pages);

} // namespace gllc

#endif // GLLC_WORKLOAD_TRACE_IDENTITY_HH
