/**
 * @file
 * runTrace()'s replay loop and the frame around it, shared by the
 * translation units that instantiate them.
 *
 * offline_sim.cc instantiates the loop on the Characterizer,
 * replay_unobserved.cc on NullAccessObserver, and gpu_simulator.cc
 * on NullAccessObserver with simulateFrame()'s DRAM schedule as the
 * sink.  The sets of instantiations are kept apart on purpose:
 * compiled into one unit they share the compiler's per-unit inlining
 * budget, and policy hooks that inline into the characterizing
 * access path on their own (GSPC's fill and hit hooks, the RRIP
 * victim scan) are pushed out of line.
 */

#ifndef GLLC_ANALYSIS_REPLAY_LOOP_HH
#define GLLC_ANALYSIS_REPLAY_LOOP_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/policy_table.hh"
#include "cache/banked_llc.hh"
#include "cache/policy/belady.hh"
#include "common/audit.hh"
#include "common/fault.hh"
#include "common/hash.hh"
#include "common/metrics.hh"
#include "trace/frame_trace.hh"

namespace gllc::detail
{

/**
 * The replay's DRAM sink that appends the traffic to a vector, or
 * drops it when the vector is null.
 *
 * A sink is passed by value.  active() says whether it takes
 * traffic at all; operator()(addr, stream, is_write, cycle) takes
 * one DRAM-bound request.  This one forwards the loop's arguments to
 * emplace_back() by reference: taking them by value would spill them
 * to the stack on every call and change the code of the
 * characterizing replay that sweeps run.
 */
class TraceSink
{
  public:
    explicit TraceSink(std::vector<MemAccess> *trace) : trace_(trace) {}

    bool active() const { return trace_ != nullptr; }

    template <typename... Request>
    void
    operator()(Request &&...request) const
    {
        trace_->emplace_back(std::forward<Request>(request)...);
    }

  private:
    std::vector<MemAccess> *trace_;
};

/**
 * The replay loop: service accesses [0, count) in order through the
 * access path instantiated on @p Policy, the class every bank holds.
 * Only policies with the kNeedsOracle trait get next-use indices.
 *
 * @param observer the Characterizer, or a NullAccessObserver
 * @param dram receives the DRAM-bound traffic in trace order: miss
 *        fill reads, bypassed accesses and dirty writebacks, each
 *        stamped with the triggering access's cycle
 */
template <typename Policy, typename Observer, typename DramSink>
void
replay(BankedLlc &llc, const std::vector<MemAccess> &trace,
       std::size_t count, Observer &observer, DramSink dram)
{
    std::vector<std::uint64_t> next_use;
    if constexpr (Policy::kNeedsOracle)
        next_use = buildNextUseOracle(trace);

    for (std::size_t i = 0; i < count; ++i) {
        const MemAccess &a = trace[i];
        const LlcAccessResult r = llc.access<Policy>(
            a, i, Policy::kNeedsOracle ? next_use[i] : kNever,
            observer);
        if (dram.active()) {
            if (!r.hit) {
                // Fill read or bypassed access goes to DRAM.  Write
                // allocations without fetch (store misses) still
                // appear as writes.
                dram(a.addr, a.stream, a.isWrite, a.cycle);
            }
            if (r.writeback)
                dram(r.writebackAddr, StreamType::Other, true, a.cycle);
        }
    }
}

/** replay() on NullAccessObserver, through the policy-class dispatch. */
void replayUnobserved(BankedLlc &llc, const std::vector<MemAccess> &trace,
                      std::size_t count, std::vector<MemAccess> *dram);

/**
 * The frame around one replay of @p trace under @p spec: name the
 * policy in audit reports, build the LLC, arm the sim.access fault
 * site, call @p loop(llc, count) to replay accesses [0, count),
 * throw the injected fault if one was armed, and flush the LLC
 * metrics.  runTrace() and simulateFrame()'s streamed replay both
 * run through it.
 *
 * @return the replay's LLC statistics
 */
template <typename Loop>
LlcStats
replayFrame(const FrameTrace &trace, const PolicySpec &spec,
            const LlcConfig &llc_config, Loop &&loop)
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

    loop(llc, inject_at);
    if (inject_at < trace.accesses.size())
        throwInjectedFault(FaultSite::SimAccess);

    if (metricsActive()) {
        // Flush once per replay: aggregate LLC view plus a per-policy
        // view.  Both prefixes see identical deltas, and counters sum
        // commutatively, so the snapshot is deterministic regardless
        // of replay order or thread count.
        llc.flushMetrics("llc.");
        llc.flushMetrics("policy." + spec.name + ".");
        MetricsRegistry::instance().addCounter("sim.replays");
    }
    return llc.stats();
}

} // namespace gllc::detail

#endif // GLLC_ANALYSIS_REPLAY_LOOP_HH
