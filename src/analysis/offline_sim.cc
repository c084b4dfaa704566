#include "analysis/offline_sim.hh"

#include <algorithm>
#include <optional>

#include "analysis/policy_types.hh"
#include "analysis/replay_loop.hh"
#include "common/audit.hh"
#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace gllc
{

RunResult
runTrace(const FrameTrace &trace, const PolicySpec &spec,
         const LlcConfig &llc_config, const RunOptions &options)
{
    // Name the policy in any audit report from this replay.
    std::optional<AuditScope> audit_scope;
    if (auditActive()) {
        audit_scope.emplace();
        auditContext().policy = spec.name;
    }
    LlcConfig config = llc_config;
    if (spec.uncachedDisplay)
        config.uncachedDisplay = true;

    BankedLlc llc(config, spec.factory);

    // sim.access fault site: one keyed draw per replay decides
    // whether this replay dies, the payload picks where in the
    // access stream it does — exercising the sweep's recovery from
    // partially-built simulator state at any depth.  Sampled once,
    // before the loop: the loop stops at the precomputed injection
    // index.
    std::size_t inject_at = trace.accesses.size();
    if (faultsActive()
        && faultFires(FaultSite::SimAccess,
                      fnv1a64(spec.name,
                              mix64(trace.accesses.size())))) {
        if (trace.accesses.empty())
            throwInjectedFault(FaultSite::SimAccess);
        inject_at = static_cast<std::size_t>(
            faultPayload(FaultSite::SimAccess)
            % trace.accesses.size());
    }

    RunResult result;
    std::vector<MemAccess> *dram = nullptr;
    if (options.collectDramTrace) {
        // An access adds at most two entries (its fill or bypass, and
        // one writeback), so this one allocation holds the whole
        // replay's traffic.
        result.dramTrace.reserve(2 * trace.accesses.size());
        dram = &result.dramTrace;
    }
    if (options.characterize) {
        Characterizer characterizer(llc.geometry().totalBlocks());
        withPolicyClass(llc, [&](auto policy_class) {
            detail::replay<typename decltype(policy_class)::type>(
                llc, trace.accesses, inject_at, characterizer, dram);
        });
        result.characterization = characterizer.result();
    } else {
        detail::replayUnobserved(llc, trace.accesses, inject_at, dram);
    }
    if (inject_at < trace.accesses.size())
        throwInjectedFault(FaultSite::SimAccess);

    result.stats = llc.stats();
    result.fills = llc.mergedFillHistogram();

    if (metricsActive()) {
        // Flush once per replay: aggregate LLC view plus a per-policy
        // view.  Both prefixes see identical deltas, and counters sum
        // commutatively, so the snapshot is deterministic regardless
        // of replay order or thread count.
        llc.flushMetrics("llc.");
        llc.flushMetrics("policy." + spec.name + ".");
        MetricsRegistry::instance().addCounter("sim.replays");
    }
    return result;
}

LlcConfig
scaledLlcConfig(std::uint64_t full_capacity_bytes,
                std::uint32_t pixel_scale)
{
    LlcConfig config;
    config.capacityBytes =
        std::max<std::uint64_t>(full_capacity_bytes / pixel_scale,
                                64 * 1024);
    config.ways = 16;
    config.banks = 4;
    return config;
}

} // namespace gllc
