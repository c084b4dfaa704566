/**
 * @file
 * Bit-exact golden values for the timing path: DramModel::simulate()
 * on a fixed synthetic request stream for every DRAM preset, and
 * simulateFrame() frame times on real rendered frames.  Any change to
 * the address mapping, the refresh test, the arrival arithmetic or
 * the scan-out interleaving that moves a single cycle or fps bit
 * fails here.  On a mismatch the message prints the replacement
 * initializer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "gpu/gpu_simulator.hh"
#include "workload/frame_set.hh"

using namespace gllc;

namespace
{

/**
 * 20000 requests: half stream through consecutive blocks (row hits),
 * half land on random blocks of a 256 MB window (row conflicts),
 * 30% are writes (bus turnarounds), and arrivals advance by 0-7
 * cycles so the schedule crosses many refresh windows.
 */
std::vector<DramRequest>
syntheticRequests()
{
    Rng rng(2024);
    std::vector<DramRequest> reqs;
    std::uint64_t arrival = 0;
    Addr cursor = 0;
    for (int i = 0; i < 20000; ++i) {
        DramRequest r;
        if (rng.next() % 2 == 0) {
            cursor += kBlockBytes;
            r.addr = cursor;
        } else {
            r.addr = (rng.next() % (1ull << 22)) * kBlockBytes;
        }
        r.isWrite = rng.next() % 10 < 3;
        arrival += rng.next() % 8;
        r.arrival = arrival;
        reqs.push_back(r);
    }
    return reqs;
}

struct DramGolden
{
    std::uint64_t finishCycle;
    std::uint64_t rowHits;
    std::uint64_t rowConflicts;
    std::uint64_t refreshes;
    std::uint64_t turnarounds;
    std::uint64_t totalLatency;
};

void
expectDram(const DramConfig &config, const DramGolden &pinned)
{
    DramModel dram(config);
    const DramStats s = dram.simulate(syntheticRequests());
    EXPECT_EQ(s.requests, 20000u);
    const bool same = s.finishCycle == pinned.finishCycle
        && s.rowHits == pinned.rowHits
        && s.rowConflicts == pinned.rowConflicts
        && s.refreshes == pinned.refreshes
        && s.turnarounds == pinned.turnarounds
        && s.totalLatency == pinned.totalLatency;
    EXPECT_TRUE(same) << config.name << ": {" << s.finishCycle << "u, "
                      << s.rowHits << "u, " << s.rowConflicts << "u, "
                      << s.refreshes << "u, " << s.turnarounds
                      << "u, " << s.totalLatency << "u}";
}

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

struct FrameGolden
{
    double fps;
    double frameCycles;
};

/**
 * simulateFrame() of frames() x {DRRIP+UCD, GSPC+UCD} on @p gpu,
 * frame-major, compared bit for bit.
 */
void
expectFrames(const GpuConfig &gpu, const std::vector<FrameGolden> &pinned)
{
    const char *const policies[] = {"DRRIP+UCD", "GSPC+UCD"};
    std::string actual;
    bool same = true;
    std::size_t i = 0;
    for (const FrameTrace &trace : frames()) {
        for (const char *policy : policies) {
            const FrameTiming t =
                simulateFrame(trace, policySpec(policy), gpu, scale8())
                    .timing;
            char line[96];
            std::snprintf(line, sizeof(line), "    {%.17g, %.17g},\n",
                          t.fps, t.frameCycles);
            actual += line;
            same = same && i < pinned.size() && t.fps == pinned[i].fps
                && t.frameCycles == pinned[i].frameCycles;
            ++i;
        }
    }
    EXPECT_TRUE(same && i == pinned.size()) << actual;
}

} // namespace

TEST(TimingGolden, DramDdr3_1600)
{
    expectDram(DramConfig::ddr3_1600(),
               {70201u, 8810u, 10998u, 22u, 4141u, 3443206u});
}

TEST(TimingGolden, DramDdr3_1867)
{
    expectDram(DramConfig::ddr3_1867(),
               {70137u, 8808u, 11032u, 18u, 4141u, 1816767u});
}

TEST(TimingGolden, DramGddr5)
{
    expectDram(DramConfig::gddr5(),
               {70099u, 9136u, 10353u, 28u, 4116u, 1398243u});
}

TEST(TimingGolden, FramesWithoutScanout)
{
    expectFrames(GpuConfig::baseline(),
                 {
                     {5971.3126995530101, 267947.78309294872},
                     {5895.9958137532094, 271370.61330128205},
                     {5347.7917095581024, 299188.91514423076},
                     {5194.9809868183729, 307989.5776442308},
                 });
}

TEST(TimingGolden, FramesWithScanoutAt60Hz)
{
    GpuConfig gpu = GpuConfig::baseline();
    gpu.scanoutHz = 60.0;
    gpu.scanoutBytes = 4ull * 240 * 150;
    expectFrames(gpu,
                 {
                     {5970.8848513065277, 267966.98309294874},
                     {5894.7967422096435, 271425.813301282},
                     {5347.0196513793153, 299232.11514423077},
                     {5194.4143042638589, 308023.17764423077},
                 });
}
