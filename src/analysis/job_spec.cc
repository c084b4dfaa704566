#include "analysis/job_spec.hh"

#include <algorithm>
#include <cstdint>
#include <set>

#include "analysis/policy_table.hh"
#include "cache/geometry.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "workload/app_profile.hh"

namespace gllc
{

namespace
{

const char *
boolWord(bool v)
{
    return v ? "true" : "false";
}

/**
 * A u64 JSON field narrowed into u32 range.  Rejecting overflow
 * instead of truncating matters for identity: frame 4294967296 must
 * not silently become frame 0 and alias a different cell.
 */
Result<std::uint32_t>
asU32(const JsonValue &value, const char *key)
{
    Result<std::uint64_t> v = value.asU64(key);
    if (!v.ok())
        return v.error();
    if (v.value() > UINT32_MAX)
        return Error::format(
            ErrorCode::InvalidArgument, "%s out of range: %llu", key,
            static_cast<unsigned long long>(v.value()));
    return static_cast<std::uint32_t>(v.value());
}

} // namespace

std::string
SweepJobSpec::identityJson() const
{
    std::string out = "{\"gllc_sweep_job\":";
    out += std::to_string(kVersion);
    out += ",\"policies\":[";
    for (std::size_t i = 0; i < policies.size(); ++i) {
        if (i)
            out += ',';
        out += '"';
        out += jsonEscape(policies[i]);
        out += '"';
    }
    out += "],";
    appendFramesJson(out, frames);
    out += ',';
    appendScaleJson(out, scaleLinear, scatterPages);
    out += ",\"llc_bytes\":";
    out += std::to_string(llcBytes);
    out += ",\"characterize\":";
    out += boolWord(characterize);
    out += '}';
    return out;
}

std::string
SweepJobSpec::toJson() const
{
    std::string out = identityJson();
    // Splice the execution knobs into the identity object: drop the
    // closing brace and continue the canonical field order.
    out.pop_back();
    out += ",\"collect_dram_trace\":";
    out += boolWord(collectDramTrace);
    out += ",\"threads\":";
    out += std::to_string(threads);
    out += ",\"frame_window\":";
    out += std::to_string(frameWindow);
    out += ",\"progress\":";
    out += boolWord(progress);
    out += ",\"retries\":";
    out += std::to_string(retries);
    out += ",\"backoff_ms\":";
    out += std::to_string(backoffMs);
    out += ",\"cell_timeout_ms\":";
    out += std::to_string(cellTimeoutMs);
    out += ",\"checkpoint\":\"";
    out += jsonEscape(checkpoint);
    out += "\",\"resume\":";
    out += boolWord(resume);
    out += '}';
    return out;
}

std::uint64_t
SweepJobSpec::contentHash() const
{
    return fnv1a64(identityJson());
}

std::uint64_t
SweepJobSpec::traceHash() const
{
    return traceSetHash(frames, scaleLinear, scatterPages);
}

RenderScale
SweepJobSpec::renderScale() const
{
    RenderScale scale;
    scale.linear = scaleLinear;
    scale.scatterPages = scatterPages;
    return scale;
}

LlcConfig
SweepJobSpec::llcConfig() const
{
    return scaledLlcConfig(llcBytes, renderScale().pixelScale());
}

Result<std::vector<PolicySpec>>
SweepJobSpec::policySpecs() const
{
    std::vector<PolicySpec> specs;
    specs.reserve(policies.size());
    for (const std::string &name : policies) {
        Result<PolicySpec> spec = tryPolicySpec(name);
        if (!spec.ok())
            return spec.error();
        specs.push_back(spec.take());
    }
    return specs;
}

Result<std::vector<FrameSpec>>
SweepJobSpec::frameSpecs() const
{
    const std::vector<AppProfile> &apps = paperApps();
    std::vector<FrameSpec> specs;
    specs.reserve(frames.size());
    for (const SweepJobFrame &frame : frames) {
        const auto app = std::find_if(
            apps.begin(), apps.end(),
            [&](const AppProfile &a) { return a.name == frame.app; });
        if (app == apps.end())
            return Error::format(ErrorCode::InvalidArgument,
                                 "unknown application \"%s\"",
                                 frame.app.c_str());
        specs.push_back({&*app, frame.frameIndex});
    }
    return specs;
}

CheckpointMeta
SweepJobSpec::checkpointMeta() const
{
    const LlcConfig llc = llcConfig();
    CheckpointMeta meta;
    meta.scaleLinear = scaleLinear;
    meta.llcBytes = llc.capacityBytes;
    meta.llcWays = llc.ways;
    meta.llcBanks = llc.banks;
    meta.policies = policies;
    meta.characterize = characterize;
    return meta;
}

Result<Unit>
SweepJobSpec::validate() const
{
    if (policies.empty())
        return Error(ErrorCode::InvalidArgument,
                     "job spec has no policies");
    if (frames.empty())
        return Error(ErrorCode::InvalidArgument,
                     "job spec has no frames");
    if (scaleLinear == 0)
        return Error(ErrorCode::InvalidArgument,
                     "job spec scale must be >= 1");
    // The pixel scale (linear^2) must fit the u32 it is carried in.
    if (scaleLinear > 0xffff)
        return Error(ErrorCode::InvalidArgument,
                     "job spec scale must be <= 65535");
    if (llcBytes == 0)
        return Error(ErrorCode::InvalidArgument,
                     "job spec llc_bytes must be > 0");
    // Reject here what the worker's CacheGeometry would assert on.
    const LlcConfig llc = llcConfig();
    Result<Unit> geometry =
        checkGeometry(llc.capacityBytes, llc.ways, llc.banks);
    if (!geometry.ok())
        return Error::format(ErrorCode::InvalidArgument,
                             "job spec llc_bytes %llu at scale %u: %s",
                             static_cast<unsigned long long>(llcBytes),
                             scaleLinear,
                             geometry.error().context.c_str());
    if (Result<std::vector<PolicySpec>> specs = policySpecs(); !specs.ok())
        return specs.error();
    if (Result<std::vector<FrameSpec>> specs = frameSpecs(); !specs.ok())
        return specs.error();
    return Unit{};
}

Result<SweepJobSpec>
parseSweepJobSpec(const std::string &json)
{
    Result<JsonValue> parsed = parseJson(json);
    if (!parsed.ok())
        return parsed.error();
    const JsonValue doc = parsed.take();
    if (!doc.isObject())
        return Error(ErrorCode::InvalidArgument,
                     "job spec must be a JSON object");

    SweepJobSpec spec;
    std::uint64_t version = 0;  // 0 = not seen
    bool saw_policies = false;
    bool saw_frames = false;
    bool saw_scale = false;
    bool saw_llc = false;
    bool saw_characterize = false;
    std::set<std::string> seen_keys;

    for (const auto &[key, value] : doc.members()) {
        // Duplicates are never benign here: a repeated "policies"
        // would concatenate both arrays and a repeated scalar would
        // be last-wins, so two textually different documents could
        // both parse yet mean something unintended.
        if (!seen_keys.insert(key).second)
            return Error::format(ErrorCode::InvalidArgument,
                                 "duplicate job spec key \"%s\"",
                                 key.c_str());
        if (key == "gllc_sweep_job") {
            Result<std::uint64_t> v = value.asU64(key.c_str());
            if (!v.ok())
                return v.error();
            if (v.value() != 1 && v.value() != SweepJobSpec::kVersion)
                return Error::format(
                    ErrorCode::BadVersion,
                    "job spec version %llu unsupported",
                    static_cast<unsigned long long>(v.value()));
            version = v.value();
        } else if (key == "policies") {
            if (!value.isArray())
                return Error(ErrorCode::InvalidArgument,
                             "policies: expected an array");
            for (const JsonValue &item : value.items()) {
                Result<std::string> name = item.asString("policy");
                if (!name.ok())
                    return name.error();
                spec.policies.push_back(name.take());
            }
            saw_policies = true;
        } else if (key == "frames") {
            if (!value.isArray())
                return Error(ErrorCode::InvalidArgument,
                             "frames: expected an array");
            for (const JsonValue &item : value.items()) {
                if (!item.isObject())
                    return Error(ErrorCode::InvalidArgument,
                                 "frames: expected objects");
                const JsonValue *app = item.find("app");
                const JsonValue *frame = item.find("frame");
                if (app == nullptr || frame == nullptr)
                    return Error(ErrorCode::InvalidArgument,
                                 "frame entry needs app and frame");
                SweepJobFrame ref;
                Result<std::string> name = app->asString("app");
                if (!name.ok())
                    return name.error();
                ref.app = name.take();
                Result<std::uint32_t> index =
                    asU32(*frame, "frame");
                if (!index.ok())
                    return index.error();
                ref.frameIndex = index.value();
                spec.frames.push_back(std::move(ref));
            }
            saw_frames = true;
        } else if (key == "scale") {
            if (!value.isObject())
                return Error(ErrorCode::InvalidArgument,
                             "scale: expected an object");
            const JsonValue *linear = value.find("linear");
            const JsonValue *scatter =
                value.find("scatter_pages");
            if (linear == nullptr || scatter == nullptr)
                return Error(ErrorCode::InvalidArgument,
                             "scale needs linear and scatter_pages");
            Result<std::uint32_t> lin = asU32(*linear, "linear");
            if (!lin.ok())
                return lin.error();
            spec.scaleLinear = lin.value();
            Result<bool> sc = scatter->asBool("scatter_pages");
            if (!sc.ok())
                return sc.error();
            spec.scatterPages = sc.value();
            saw_scale = true;
        } else if (key == "llc_bytes") {
            Result<std::uint64_t> v = value.asU64(key.c_str());
            if (!v.ok())
                return v.error();
            spec.llcBytes = v.value();
            saw_llc = true;
        } else if (key == "characterize"
                   || key == "collect_dram_trace") {
            Result<bool> v = value.asBool(key.c_str());
            if (!v.ok())
                return v.error();
            if (key == "characterize") {
                spec.characterize = v.value();
                saw_characterize = true;
            } else {
                spec.collectDramTrace = v.value();
            }
        } else if (key == "threads" || key == "frame_window"
                   || key == "retries" || key == "backoff_ms"
                   || key == "cell_timeout_ms") {
            Result<std::uint32_t> v = asU32(value, key.c_str());
            if (!v.ok())
                return v.error();
            const std::uint32_t u = v.value();
            if (key == "threads")
                spec.threads = u;
            else if (key == "frame_window")
                spec.frameWindow = u;
            else if (key == "retries")
                spec.retries = u;
            else if (key == "backoff_ms")
                spec.backoffMs = u;
            else
                spec.cellTimeoutMs = u;
        } else if (key == "progress" || key == "resume") {
            Result<bool> v = value.asBool(key.c_str());
            if (!v.ok())
                return v.error();
            if (key == "progress")
                spec.progress = v.value();
            else
                spec.resume = v.value();
        } else if (key == "checkpoint") {
            Result<std::string> v = value.asString(key.c_str());
            if (!v.ok())
                return v.error();
            spec.checkpoint = v.take();
        } else {
            return Error::format(ErrorCode::InvalidArgument,
                                 "unknown job spec key \"%s\"",
                                 key.c_str());
        }
    }

    if (version == 0)
        return Error(ErrorCode::BadMagic,
                     "not a job spec: missing gllc_sweep_job");
    if (version == 1) {
        if (saw_characterize)
            return Error(ErrorCode::InvalidArgument,
                         "characterize is not a version 1 key");
        spec.characterize = true;
        saw_characterize = true;
    }
    if (!saw_policies || !saw_frames || !saw_scale || !saw_llc
        || !saw_characterize)
        return Error(ErrorCode::InvalidArgument,
                     "job spec missing identity fields (policies, "
                     "frames, scale, llc_bytes, characterize)");
    return spec;
}

} // namespace gllc
