#include "analysis/policy_types.hh"
#include "analysis/replay_loop.hh"

namespace gllc::detail
{

void
replayUnobserved(BankedLlc &llc, const std::vector<MemAccess> &trace,
                 std::size_t count, std::vector<MemAccess> *dram)
{
    withPolicyClass(llc, [&](auto policy_class) {
        NullAccessObserver none;
        replay<typename decltype(policy_class)::type>(
            llc, trace, count, none, TraceSink(dram));
    });
}

} // namespace gllc::detail
