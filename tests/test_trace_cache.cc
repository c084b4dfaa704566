/**
 * @file
 * Tests for the on-disk frame-trace cache.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "analysis/job_spec.hh"
#include "trace/trace_io.hh"
#include "workload/trace_cache.hh"

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

} // namespace

TEST(TraceCache, OffByDefault)
{
    ::unsetenv("GLLC_TRACE_CACHE");
    EXPECT_EQ(traceCachePath(paperApps().front(), 0, tinyScale()), "");
    // cachedRenderFrame falls back to plain rendering.
    const FrameTrace a =
        cachedRenderFrame(paperApps().front(), 0, tinyScale());
    const FrameTrace b = renderFrame(paperApps().front(), 0,
                                     tinyScale());
    EXPECT_EQ(a.accesses.size(), b.accesses.size());
}

TEST(TraceCache, PathEncodesAppFrameAndScale)
{
    // tr<hash:016x>.gltrc, the hash covering app, frame and scale.
    const std::string dir = ::testing::TempDir();
    const AppProfile &app = paperApps().front();
    const std::string p = traceCachePath(app, 3, tinyScale(), dir);
    const std::string leaf = p.substr(p.rfind('/') + 1);
    ASSERT_EQ(leaf.size(), 2u + 16u + 6u) << leaf;
    EXPECT_EQ(leaf.compare(0, 2, "tr"), 0) << leaf;
    EXPECT_EQ(leaf.find_first_not_of("0123456789abcdef", 2), 18u)
        << leaf;
    EXPECT_EQ(leaf.substr(18), ".gltrc");
    EXPECT_EQ(p.substr(0, p.size() - leaf.size()), dir + "/");

    RenderScale noscatter = tinyScale();
    noscatter.scatterPages = false;
    RenderScale coarser = tinyScale();
    coarser.linear = 16;
    const std::set<std::string> distinct{
        p,
        traceCachePath(app, 3, noscatter, dir),
        traceCachePath(app, 3, coarser, dir),
        traceCachePath(app, 4, tinyScale(), dir),
        traceCachePath(paperApps()[1], 3, tinyScale(), dir)};
    EXPECT_EQ(distinct.size(), 5u);
}

TEST(TraceCache, FileNameIsTheOneFrameJobTraceHash)
{
    // One trace identity: a cached file is named by the traceHash()
    // of the one-frame job that would render it.
    const std::string dir = ::testing::TempDir();
    for (const std::uint32_t linear : {4u, 8u}) {
        for (const bool scatter : {true, false}) {
            for (const AppProfile *app :
                 {&paperApps()[0], &paperApps()[5], &paperApps()[11]}) {
                for (const std::uint32_t frame : {0u, 2u}) {
                    SweepJobSpec spec;
                    spec.frames = {{app->name, frame}};
                    spec.scaleLinear = linear;
                    spec.scatterPages = scatter;
                    RenderScale scale;
                    scale.linear = linear;
                    scale.scatterPages = scatter;
                    char leaf[32];
                    std::snprintf(leaf, sizeof(leaf),
                                  "/tr%016" PRIx64 ".gltrc",
                                  spec.traceHash());
                    EXPECT_EQ(traceCachePath(*app, frame, scale, dir),
                              dir + leaf)
                        << app->name << " f" << frame << " s" << linear
                        << (scatter ? "" : " noscatter");
                }
            }
        }
    }
}

TEST(TraceCache, MissPopulatesThenHitLoads)
{
    const std::string dir = ::testing::TempDir();
    const AppProfile &app = paperApps().front();
    const std::string path =
        traceCachePath(app, 0, tinyScale(), dir);
    std::remove(path.c_str());

    bool loaded = true;
    const FrameTrace first =
        cachedRenderFrame(app, 0, tinyScale(), dir, &loaded);
    EXPECT_FALSE(loaded);
    // The cache file exists now.
    std::ifstream probe(path, std::ios::binary);
    EXPECT_TRUE(probe.good());

    const FrameTrace second =
        cachedRenderFrame(app, 0, tinyScale(), dir, &loaded);
    EXPECT_TRUE(loaded);
    ASSERT_EQ(second.accesses.size(), first.accesses.size());
    EXPECT_EQ(second.accesses.back().addr,
              first.accesses.back().addr);
    EXPECT_EQ(second.work.pixelsShaded, first.work.pixelsShaded);
    std::remove(path.c_str());
}

TEST(TraceCache, EnvVariableActivates)
{
    const std::string dir = ::testing::TempDir();
    ::setenv("GLLC_TRACE_CACHE", dir.c_str(), 1);
    const AppProfile &app = paperApps()[1];
    const std::string path = traceCachePath(app, 1, tinyScale());
    EXPECT_FALSE(path.empty());
    std::remove(path.c_str());
    cachedRenderFrame(app, 1, tinyScale());
    std::ifstream probe(path, std::ios::binary);
    EXPECT_TRUE(probe.good());
    std::remove(path.c_str());
    ::unsetenv("GLLC_TRACE_CACHE");
}

TEST(TraceCache, CorruptFileIsReRenderedAndRewrittenValid)
{
    const std::string dir =
        ::testing::TempDir() + "/gllc_tcache_corrupt/nested";
    const AppProfile &app = paperApps()[2];
    const std::string path = traceCachePath(app, 0, tinyScale(), dir);
    std::remove(path.c_str());

    // The first miss creates the missing directory and the file.
    const FrameTrace rendered =
        cachedRenderFrame(app, 0, tinyScale(), dir);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good());
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x10;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << flipped;
    }
    ASSERT_FALSE(tryReadTraceFile(path).ok());

    bool loaded = true;
    const FrameTrace again =
        cachedRenderFrame(app, 0, tinyScale(), dir, &loaded);
    EXPECT_FALSE(loaded);
    EXPECT_EQ(again.accesses.size(), rendered.accesses.size());
    std::string rewritten;
    {
        std::ifstream in(path, std::ios::binary);
        rewritten.assign(std::istreambuf_iterator<char>(in), {});
    }
    EXPECT_EQ(rewritten, bytes);
    std::remove(path.c_str());
}
