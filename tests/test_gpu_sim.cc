/**
 * @file
 * Tests for the GPU simulator façade, the scan-out extension and
 * the stream-name helpers.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_simulator.hh"
#include "trace/stream.hh"
#include "workload/frame_set.hh"

using namespace gllc;

namespace
{

RenderScale
tinyScale()
{
    RenderScale s;
    s.linear = 8;
    return s;
}

const FrameTrace &
frame()
{
    static const FrameTrace t =
        renderFrame(paperApps().front(), 0, tinyScale());
    return t;
}

} // namespace

TEST(StreamNames, AllStreamsNamed)
{
    EXPECT_EQ(streamName(StreamType::Vertex), "VTX");
    EXPECT_EQ(streamName(StreamType::HiZ), "HiZ");
    EXPECT_EQ(streamName(StreamType::Z), "Z");
    EXPECT_EQ(streamName(StreamType::Stencil), "STC");
    EXPECT_EQ(streamName(StreamType::RenderTarget), "RT");
    EXPECT_EQ(streamName(StreamType::Texture), "TEX");
    EXPECT_EQ(streamName(StreamType::Display), "DISP");
    EXPECT_EQ(streamName(StreamType::Other), "OTHER");
    EXPECT_EQ(policyStreamName(PolicyStream::Z), "Z");
    EXPECT_EQ(policyStreamName(PolicyStream::Rest), "REST");
}

TEST(GpuSim, DeterministicAcrossRuns)
{
    const GpuConfig gpu = GpuConfig::baseline();
    const FrameSimResult a =
        simulateFrame(frame(), policySpec("GSPC"), gpu, tinyScale());
    const FrameSimResult b =
        simulateFrame(frame(), policySpec("GSPC"), gpu, tinyScale());
    EXPECT_EQ(a.llcStats.totalMisses(), b.llcStats.totalMisses());
    EXPECT_EQ(a.timing.frameCycles, b.timing.frameCycles);
    EXPECT_EQ(a.timing.fps, b.timing.fps);
}

TEST(GpuSim, LlcGeometryFollowsConfigAndScale)
{
    // 16 MB at scale 8 -> 256 KB: fewer misses than 8 MB -> 128 KB.
    const FrameSimResult small = simulateFrame(
        frame(), policySpec("DRRIP"), GpuConfig::baseline(),
        tinyScale());
    const FrameSimResult large = simulateFrame(
        frame(), policySpec("DRRIP"), GpuConfig::baseline16M(),
        tinyScale());
    EXPECT_LT(large.llcStats.totalMisses(),
              small.llcStats.totalMisses());
}

TEST(GpuSim, UcdReducesFillsNotAccesses)
{
    const GpuConfig gpu = GpuConfig::baseline();
    const FrameSimResult plain =
        simulateFrame(frame(), policySpec("DRRIP"), gpu, tinyScale());
    const FrameSimResult ucd = simulateFrame(
        frame(), policySpec("DRRIP+UCD"), gpu, tinyScale());
    EXPECT_EQ(plain.llcStats.totalAccesses(),
              ucd.llcStats.totalAccesses());
    EXPECT_GT(ucd.llcStats.of(StreamType::Display).bypasses, 0u);
    EXPECT_EQ(ucd.llcStats.of(StreamType::Display).misses, 0u);
}

TEST(Scanout, ContentionNeverSpeedsAFrame)
{
    GpuConfig with = GpuConfig::baseline();
    with.scanoutHz = 60.0;
    with.scanoutBytes = 4ull * 240 * 150;
    const FrameSimResult base =
        simulateFrame(frame(), policySpec("DRRIP"),
                      GpuConfig::baseline(), tinyScale());
    const FrameSimResult loaded =
        simulateFrame(frame(), policySpec("DRRIP"), with, tinyScale());
    EXPECT_GE(loaded.timing.frameCycles, base.timing.frameCycles);
    // LLC behaviour is untouched by the display engine.
    EXPECT_EQ(loaded.llcStats.totalMisses(),
              base.llcStats.totalMisses());
}

TEST(Scanout, DisabledByDefault)
{
    const GpuConfig gpu = GpuConfig::baseline();
    EXPECT_EQ(gpu.scanoutHz, 0.0);
    EXPECT_EQ(gpu.scanoutBytes, 0u);
}

TEST(Scanout, HigherRefreshLoadsMore)
{
    GpuConfig hz60 = GpuConfig::baseline();
    hz60.scanoutHz = 60.0;
    hz60.scanoutBytes = 4ull * 240 * 150;
    GpuConfig hz240 = hz60;
    hz240.scanoutHz = 240.0;
    const FrameSimResult a =
        simulateFrame(frame(), policySpec("DRRIP"), hz60, tinyScale());
    const FrameSimResult b = simulateFrame(
        frame(), policySpec("DRRIP"), hz240, tinyScale());
    EXPECT_GE(b.timing.frameCycles, a.timing.frameCycles);
}
