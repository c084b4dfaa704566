#include "gpu/gpu_simulator.hh"

#include "analysis/policy_types.hh"
#include "analysis/replay_loop.hh"
#include "common/logging.hh"

namespace gllc
{

namespace
{

/** Replay DRAM sink that services each request on a FrameTimer. */
class TimerSink
{
  public:
    explicit TimerSink(FrameTimer &timer) : timer_(&timer) {}

    static constexpr bool active() { return true; }

    void
    operator()(Addr addr, StreamType, bool is_write,
               std::uint32_t cycle) const
    {
        timer_->request(addr, is_write, cycle);
    }

  private:
    FrameTimer *timer_;
};

} // namespace

FrameSimResult
simulateFrame(const FrameTrace &trace, const PolicySpec &policy,
              const GpuConfig &config, const RenderScale &scale)
{
    LlcConfig llc =
        scaledLlcConfig(config.llcCapacityBytes, scale.pixelScale());
    llc.ways = config.llcWays;
    llc.banks = config.llcBanks;

    FrameSimResult result;
    if (config.scanoutEnabled()) {
        // The scan-out window ends at the last DRAM-bound arrival,
        // known only once the replay is over: collect the trace.
        RunOptions options;
        options.collectDramTrace = true;
        options.characterize = false;
        const RunResult run = runTrace(trace, policy, llc, options);
        result.llcStats = run.stats;
        result.timing =
            timeFrame(trace.work, run.stats, run.dramTrace, config);
        return result;
    }

    // The LLC bound needs only the access count, so the arrival
    // stretch is known up front and each miss is serviced on the
    // DRAM schedule as the replay produces it.
    FrameTimer timer(trace.work, trace.accesses.size(), config);
    result.llcStats = detail::replayFrame(
        trace, policy, llc, [&](BankedLlc &cache, std::size_t count) {
            withPolicyClass(cache, [&](auto policy_class) {
                NullAccessObserver none;
                detail::replay<typename decltype(policy_class)::type>(
                    cache, trace.accesses, count, none,
                    TimerSink(timer));
            });
        });
    GLLC_ASSERT(result.llcStats.totalAccesses() == trace.accesses.size());
    result.timing = timer.finish(result.llcStats);
    return result;
}

} // namespace gllc
