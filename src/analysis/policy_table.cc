#include "analysis/policy_table.hh"

#include <cstdio>

#include "cache/policy/belady.hh"
#include "cache/policy/dip.hh"
#include "cache/policy/drrip.hh"
#include "cache/policy/gs_drrip.hh"
#include "cache/policy/lru.hh"
#include "cache/policy/nru.hh"
#include "cache/policy/pelifo.hh"
#include "cache/policy/random.hh"
#include "cache/policy/ship_mem.hh"
#include "cache/policy/srrip.hh"
#include "cache/policy/ucp_stream.hh"
#include "common/logging.hh"
#include "core/gspc_family.hh"

namespace gllc
{

namespace
{

bool
stripSuffix(std::string &name, const std::string &suffix)
{
    if (name.size() >= suffix.size()
        && name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
        name.erase(name.size() - suffix.size());
        return true;
    }
    return false;
}

/** Fill @p spec for a base name; false when the name is unknown. */
bool
baseSpec(const std::string &name, PolicySpec &spec)
{
    spec.name = name;
    spec.baseName = name;

    if (name == "NRU") {
        spec.factory = NruPolicy::factory();
    } else if (name == "LRU") {
        spec.factory = LruPolicy::factory();
    } else if (name == "Random") {
        spec.factory = RandomPolicy::factory();
    } else if (name == "SRRIP") {
        spec.factory = SrripPolicy::factory(2);
    } else if (name == "DRRIP") {
        spec.factory = DrripPolicy::factory(2);
    } else if (name == "DRRIP-4") {
        spec.factory = DrripPolicy::factory(4);
    } else if (name == "GS-DRRIP") {
        spec.factory = GsDrripPolicy::factory(2);
    } else if (name == "GS-DRRIP-4") {
        spec.factory = GsDrripPolicy::factory(4);
    } else if (name == "SHiP-mem") {
        spec.factory = ShipMemPolicy::factory(2);
    } else if (name == "DIP") {
        spec.factory = DipPolicy::factory();
    } else if (name == "UCP-stream") {
        spec.factory = UcpStreamPolicy::factory();
    } else if (name == "peLIFO") {
        spec.factory = PeLifoPolicy::factory();
    } else if (name == "Belady") {
        spec.factory = BeladyPolicy::factory();
    } else if (name == "GSPZTC") {
        spec.factory = GspcFamilyPolicy::factory(GspcVariant::Gspztc);
    } else if (name == "GSPZTC+TSE") {
        spec.factory =
            GspcFamilyPolicy::factory(GspcVariant::GspztcTse);
    } else if (name == "GSPC") {
        spec.factory = GspcFamilyPolicy::factory(GspcVariant::Gspc);
    } else if (name == "GSPC+B") {
        GspcParams params;
        params.bypassDeadFills = true;
        spec.factory =
            GspcFamilyPolicy::factory(GspcVariant::Gspc, params);
    } else {
        // GSPZTC(t=N) threshold-sweep form (Figure 11).
        unsigned t = 0;
        if (std::sscanf(name.c_str(), "GSPZTC(t=%u)", &t) == 1
            && t >= 1) {
            spec.baseName = "GSPZTC";
            spec.threshold = t;
            spec.factory =
                GspcFamilyPolicy::factory(GspcVariant::Gspztc, t);
        } else {
            return false;
        }
    }
    return true;
}

} // namespace

Result<PolicySpec>
tryPolicySpec(const std::string &name)
{
    std::string base = name;
    const bool ucd = stripSuffix(base, "+UCD");
    PolicySpec spec;
    if (!baseSpec(base, spec))
        return Error::format(ErrorCode::InvalidArgument,
                             "unknown policy \"%s\"", name.c_str());
    spec.name = name;
    spec.uncachedDisplay = ucd;
    return spec;
}

PolicySpec
policySpec(const std::string &name)
{
    return tryPolicySpec(name).takeOrFatal();
}

const std::vector<unsigned> &
gspztcSweepThresholds()
{
    static const std::vector<unsigned> thresholds{2, 4, 8, 16};
    return thresholds;
}

std::vector<std::string>
allPolicyNames()
{
    return {
        "NRU", "LRU", "Random", "SRRIP", "DRRIP", "DRRIP-4",
        "GS-DRRIP", "GS-DRRIP-4", "SHiP-mem", "DIP", "UCP-stream",
        "peLIFO",
        "Belady", "GSPZTC", "GSPZTC+TSE", "GSPC", "GSPC+B",
    };
}

std::vector<PolicySpec>
allPolicySpecs()
{
    std::vector<std::string> names;
    for (const std::string &base : allPolicyNames()) {
        names.push_back(base);
        names.push_back(base + "+UCD");
    }
    for (const unsigned t : gspztcSweepThresholds()) {
        const std::string name =
            "GSPZTC(t=" + std::to_string(t) + ")";
        names.push_back(name);
        names.push_back(name + "+UCD");
    }

    std::vector<PolicySpec> specs;
    specs.reserve(names.size());
    for (const std::string &name : names)
        specs.push_back(policySpec(name));
    return specs;
}

} // namespace gllc
