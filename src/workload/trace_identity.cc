#include "workload/trace_identity.hh"

#include "common/hash.hh"
#include "common/json.hh"

namespace gllc
{

void
appendFramesJson(std::string &out, const std::vector<FrameRef> &frames)
{
    out += "\"frames\":[";
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (i)
            out += ',';
        out += "{\"app\":\"";
        out += jsonEscape(frames[i].app);
        out += "\",\"frame\":";
        out += std::to_string(frames[i].frameIndex);
        out += '}';
    }
    out += ']';
}

void
appendScaleJson(std::string &out, std::uint32_t linear,
                bool scatter_pages)
{
    out += "\"scale\":{\"linear\":";
    out += std::to_string(linear);
    out += ",\"scatter_pages\":";
    out += scatter_pages ? "true" : "false";
    out += '}';
}

std::uint64_t
traceSetHash(const std::vector<FrameRef> &frames, std::uint32_t linear,
             bool scatter_pages)
{
    std::string out = "{\"gllc_sweep_traces\":";
    out += std::to_string(kTraceIdentityVersion);
    out += ',';
    appendFramesJson(out, frames);
    out += ',';
    appendScaleJson(out, linear, scatter_pages);
    out += '}';
    return fnv1a64(out);
}

} // namespace gllc
