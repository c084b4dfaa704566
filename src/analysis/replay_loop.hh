/**
 * @file
 * runTrace()'s replay loop, shared by its two translation units.
 *
 * offline_sim.cc instantiates the loop on the Characterizer and
 * replay_unobserved.cc on NullAccessObserver.  The two sets of
 * instantiations are kept apart on purpose: compiled into one unit
 * they share the compiler's per-unit inlining budget, and policy
 * hooks that inline into the characterizing access path on their own
 * (GSPC's fill and hit hooks, the RRIP victim scan) are pushed out of
 * line.
 */

#ifndef GLLC_ANALYSIS_REPLAY_LOOP_HH
#define GLLC_ANALYSIS_REPLAY_LOOP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/banked_llc.hh"
#include "cache/policy/belady.hh"

namespace gllc::detail
{

/**
 * The replay loop: service accesses [0, count) in order through the
 * access path instantiated on @p Policy, the class every bank holds.
 * Only policies with the kNeedsOracle trait get next-use indices.
 *
 * @param observer the Characterizer, or a NullAccessObserver
 * @param dram receives the DRAM-bound traffic, or nullptr
 */
template <typename Policy, typename Observer>
void
replay(BankedLlc &llc, const std::vector<MemAccess> &trace,
       std::size_t count, Observer &observer,
       std::vector<MemAccess> *dram)
{
    std::vector<std::uint64_t> next_use;
    if constexpr (Policy::kNeedsOracle)
        next_use = buildNextUseOracle(trace);

    for (std::size_t i = 0; i < count; ++i) {
        const MemAccess &a = trace[i];
        const LlcAccessResult r = llc.access<Policy>(
            a, i, Policy::kNeedsOracle ? next_use[i] : kNever,
            observer);
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

/** replay() on NullAccessObserver, through the policy-class dispatch. */
void replayUnobserved(BankedLlc &llc, const std::vector<MemAccess> &trace,
                      std::size_t count, std::vector<MemAccess> *dram);

} // namespace gllc::detail

#endif // GLLC_ANALYSIS_REPLAY_LOOP_HH
