/**
 * @file
 * simulateFrame() streams each DRAM-bound request of its replay
 * straight into the frame timer when scan-out is off, and collects
 * the trace for timeFrame() when it is on.  These tests pin that
 * both feeds give the result of timeFrame() on runTrace()'s
 * collected trace, bit for bit, for every concrete policy class and
 * DRAM preset, and that the dram.simulate fault site fails the same
 * frames whichever way the schedule is fed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <typeinfo>
#include <vector>

#include "analysis/policy_types.hh"
#include "common/fault.hh"
#include "gpu/gpu_simulator.hh"
#include "workload/frame_set.hh"

using namespace gllc;

namespace
{

RenderScale
scale8()
{
    RenderScale s;
    s.linear = 8;
    return s;
}

/** Frame 0 of the first two paper applications at scale 8. */
const std::vector<FrameTrace> &
frames()
{
    static const std::vector<FrameTrace> traces = [] {
        std::vector<FrameTrace> t;
        for (std::size_t app = 0; app < 2; ++app)
            t.push_back(renderFrame(paperApps()[app], 0, scale8()));
        return t;
    }();
    return traces;
}

/** simulateFrame()'s LLC geometry for @p gpu at scale 8. */
LlcConfig
llcOf(const GpuConfig &gpu)
{
    LlcConfig llc =
        scaledLlcConfig(gpu.llcCapacityBytes, scale8().pixelScale());
    llc.ways = gpu.llcWays;
    llc.banks = gpu.llcBanks;
    return llc;
}

/** The first registry policy whose banks hold @p Policy. */
template <typename Policy>
void
addSpecOf(std::vector<PolicySpec> &out)
{
    for (const PolicySpec &spec : allPolicySpecs()) {
        if (BankedLlc(llcOf(GpuConfig::baseline()), spec.factory)
                .policiesAre<Policy>()) {
            out.push_back(spec);
            return;
        }
    }
    ADD_FAILURE() << "no registry policy holds " << typeid(Policy).name();
}

/** One registry policy per class in ConcretePolicies. */
template <typename... Policies>
std::vector<PolicySpec>
specsOf(PolicyTypeList<Policies...>)
{
    std::vector<PolicySpec> out;
    (addSpecOf<Policies>(out), ...);
    return out;
}

const std::vector<PolicySpec> &
classSpecs()
{
    static const std::vector<PolicySpec> specs =
        specsOf(ConcretePolicies{});
    return specs;
}

void
expectSameStats(const LlcStats &a, const LlcStats &b,
                const std::string &where)
{
    for (std::size_t s = 0; s < kNumStreams; ++s) {
        EXPECT_EQ(a.stream[s].accesses, b.stream[s].accesses) << where;
        EXPECT_EQ(a.stream[s].hits, b.stream[s].hits) << where;
        EXPECT_EQ(a.stream[s].misses, b.stream[s].misses) << where;
        EXPECT_EQ(a.stream[s].bypasses, b.stream[s].bypasses) << where;
    }
    EXPECT_EQ(a.writebacks, b.writebacks) << where;
    EXPECT_EQ(a.evictions, b.evictions) << where;
}

void
expectSameTiming(const FrameTiming &a, const FrameTiming &b,
                 const std::string &where)
{
    EXPECT_EQ(a.computeCycles, b.computeCycles) << where;
    EXPECT_EQ(a.samplerCycles, b.samplerCycles) << where;
    EXPECT_EQ(a.llcCycles, b.llcCycles) << where;
    EXPECT_EQ(a.dramCycles, b.dramCycles) << where;
    EXPECT_EQ(a.exposedCycles, b.exposedCycles) << where;
    EXPECT_EQ(a.frameCycles, b.frameCycles) << where;
    EXPECT_EQ(a.fps, b.fps) << where;
    EXPECT_EQ(a.rowHitRate, b.rowHitRate) << where;
}

GpuConfig
withScanout(GpuConfig gpu)
{
    gpu.scanoutHz = 60.0;
    gpu.scanoutBytes = 4ull * 240 * 150;
    return gpu;
}

/**
 * simulateFrame() against timeFrame() on the collected trace, for
 * every policy class and frame, with scan-out off and at 60 Hz.
 */
void
expectFeedsAgree(const DramConfig &dram)
{
    GpuConfig plain = GpuConfig::baseline();
    plain.dram = dram;
    const GpuConfig configs[] = {plain, withScanout(plain)};
    ASSERT_EQ(classSpecs().size(), 12u);

    RunOptions collect;
    collect.collectDramTrace = true;
    for (const FrameTrace &trace : frames()) {
        for (const PolicySpec &spec : classSpecs()) {
            const RunResult run =
                runTrace(trace, spec, llcOf(plain), collect);
            for (const GpuConfig &gpu : configs) {
                const std::string where = trace.name + " " + spec.name
                    + " scan-out " + std::to_string(gpu.scanoutHz);
                const FrameSimResult sim =
                    simulateFrame(trace, spec, gpu, scale8());
                expectSameStats(sim.llcStats, run.stats, where);
                expectSameTiming(
                    sim.timing,
                    timeFrame(trace.work, run.stats, run.dramTrace, gpu),
                    where);
            }
        }
    }
}

/** Every test leaves the injector disarmed for its neighbours. */
class TimingFault : public ::testing::Test
{
  protected:
    void SetUp() override { configureFaults(""); }
    void TearDown() override { configureFaults(""); }
};

/** The site @p fn's injected fault names, or kCount if none fired. */
template <typename Fn>
FaultSite
faultOf(Fn &&fn)
{
    try {
        fn();
    } catch (const FaultInjectedError &e) {
        return e.site();
    }
    return FaultSite::kCount;
}

} // namespace

TEST(StreamedTiming, MatchesCollectedTraceDdr3_1600)
{
    expectFeedsAgree(DramConfig::ddr3_1600());
}

TEST(StreamedTiming, MatchesCollectedTraceDdr3_1867)
{
    expectFeedsAgree(DramConfig::ddr3_1867());
}

TEST(StreamedTiming, MatchesCollectedTraceGddr5)
{
    expectFeedsAgree(DramConfig::gddr5());
}

TEST_F(TimingFault, DramFaultFiresOnBothFeeds)
{
    configureFaults("dram.simulate:p=1");
    const FrameTrace &trace = frames().front();
    const PolicySpec spec = policySpec("GSPC");
    const GpuConfig plain = GpuConfig::baseline();
    EXPECT_EQ(faultOf([&] {
                  simulateFrame(trace, spec, plain, scale8());
              }),
              FaultSite::DramSimulate);
    EXPECT_EQ(faultOf([&] {
                  simulateFrame(trace, spec, withScanout(plain),
                                scale8());
              }),
              FaultSite::DramSimulate);
    EXPECT_EQ(faultFired(FaultSite::DramSimulate), 2u);
}

TEST_F(TimingFault, SimAccessFaultStopsTheStreamedReplay)
{
    configureFaults("sim.access:p=1");
    EXPECT_EQ(faultOf([] {
                  simulateFrame(frames().front(), policySpec("GSPC"),
                                GpuConfig::baseline(), scale8());
              }),
              FaultSite::SimAccess);
}

TEST_F(TimingFault, SameFramesFailWhetherStreamedOrCollected)
{
    const std::string faults = "dram.simulate:p=0.5,seed=3";
    const GpuConfig gpu = GpuConfig::baseline();

    configureFaults(faults);
    std::vector<bool> streamed;
    for (const FrameTrace &trace : frames()) {
        for (const PolicySpec &spec : classSpecs()) {
            streamed.push_back(faultOf([&] {
                                   simulateFrame(trace, spec, gpu,
                                                 scale8());
                               })
                               == FaultSite::DramSimulate);
        }
    }

    configureFaults(faults);
    RunOptions collect;
    collect.collectDramTrace = true;
    std::vector<bool> collected;
    for (const FrameTrace &trace : frames()) {
        for (const PolicySpec &spec : classSpecs()) {
            const RunResult run =
                runTrace(trace, spec, llcOf(gpu), collect);
            collected.push_back(
                faultOf([&] {
                    timeFrame(trace.work, run.stats, run.dramTrace,
                              gpu);
                })
                == FaultSite::DramSimulate);
        }
    }

    EXPECT_EQ(streamed, collected);
    // A fractional p: some frames fail and some do not.
    EXPECT_NE(std::count(streamed.begin(), streamed.end(), true), 0);
    EXPECT_NE(std::count(streamed.begin(), streamed.end(), false), 0);
}
