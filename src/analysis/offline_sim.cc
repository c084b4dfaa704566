#include "analysis/offline_sim.hh"

#include <algorithm>
#include <optional>

#include "analysis/policy_types.hh"
#include "common/audit.hh"
#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace gllc
{

namespace
{

/**
 * The replay loop: service accesses [0, count) in order through the
 * access path instantiated on @p Policy, the class every bank holds.
 * Only policies with the kNeedsOracle trait get next-use indices.
 *
 * @param dram receives the DRAM-bound traffic, or nullptr
 */
template <typename Policy>
void
replay(BankedLlc &llc, const std::vector<MemAccess> &trace,
       std::size_t count, Characterizer &characterizer,
       std::vector<MemAccess> *dram)
{
    std::vector<std::uint64_t> next_use;
    if constexpr (Policy::kNeedsOracle)
        next_use = buildNextUseOracle(trace);

    for (std::size_t i = 0; i < count; ++i) {
        const MemAccess &a = trace[i];
        const LlcAccessResult r = llc.access<Policy>(
            a, i, Policy::kNeedsOracle ? next_use[i] : kNever,
            characterizer);
        if (dram != nullptr) {
            if (!r.hit) {
                // Fill read or bypassed access goes to DRAM.  Write
                // allocations without fetch (store misses) still
                // appear as writes.
                dram->emplace_back(a.addr, a.stream, a.isWrite,
                                   a.cycle);
            }
            if (r.writeback) {
                dram->emplace_back(r.writebackAddr, StreamType::Other,
                                   true, a.cycle);
            }
        }
    }
}

} // namespace

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

    Characterizer characterizer(llc.geometry().totalBlocks());

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
    withPolicyClass(llc, [&](auto policy_class) {
        replay<typename decltype(policy_class)::type>(
            llc, trace.accesses, inject_at, characterizer,
            options.collectDramTrace ? &result.dramTrace : nullptr);
    });
    if (inject_at < trace.accesses.size())
        throwInjectedFault(FaultSite::SimAccess);

    result.stats = llc.stats();
    result.characterization = characterizer.result();
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
