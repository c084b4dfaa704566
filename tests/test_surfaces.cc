/**
 * @file
 * Unit tests for surfaces and tiled address layouts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "workload/surfaces.hh"

using namespace gllc;

TEST(Surface, TileEdgeByElementSize)
{
    GpuMemory mem(1);
    const Surface color = Surface::make2D(
        mem, SurfaceKind::RenderTarget, "c", 64, 64, 4);
    EXPECT_EQ(color.tileEdge(), 4u);
    const Surface stencil = Surface::make2D(
        mem, SurfaceKind::StencilBuffer, "s", 64, 64, 1);
    EXPECT_EQ(stencil.tileEdge(), 8u);
}

TEST(Surface, SizeMatchesTileGrid)
{
    GpuMemory mem(1);
    // 64x64 4 B texels: 16x16 tiles of 64 B = 16 KB.
    const Surface s = Surface::make2D(
        mem, SurfaceKind::StaticTexture, "t", 64, 64, 4);
    EXPECT_EQ(s.bytes(), 16u * 1024);
    EXPECT_EQ(s.blockCount(), 256u);
}

TEST(Surface, ElementsInOneTileShareBlock)
{
    GpuMemory mem(1);
    const Surface s = Surface::make2D(
        mem, SurfaceKind::RenderTarget, "t", 64, 64, 4);
    const Addr a = s.tileAddress(0, 0);
    EXPECT_EQ(s.tileAddress(3, 3), a);
    EXPECT_NE(s.tileAddress(4, 0), a);
    EXPECT_NE(s.tileAddress(0, 4), a);
}

TEST(Surface, TilesHaveDistinctBlocks)
{
    GpuMemory mem(1);
    const Surface s = Surface::make2D(
        mem, SurfaceKind::RenderTarget, "t", 32, 32, 4);
    std::set<Addr> blocks;
    for (std::uint32_t y = 0; y < 32; y += 4)
        for (std::uint32_t x = 0; x < 32; x += 4)
            blocks.insert(s.tileAddress(x, y));
    EXPECT_EQ(blocks.size(), 64u);
}

TEST(Surface, AddressesStayInBounds)
{
    GpuMemory mem(1);
    const Surface s = Surface::make2D(
        mem, SurfaceKind::RenderTarget, "t", 100, 60, 4);
    // Out-of-range coordinates clamp instead of escaping.
    const Addr a = s.tileAddress(1000, 1000);
    EXPECT_GE(a, s.base());
    EXPECT_LT(a, s.base() + s.bytes());
}

TEST(Surface, NonMultipleDimensionsRoundUp)
{
    GpuMemory mem(1);
    const Surface s = Surface::make2D(
        mem, SurfaceKind::RenderTarget, "t", 5, 5, 4);
    // 2x2 tiles.
    EXPECT_EQ(s.blockCount(), 4u);
    EXPECT_EQ(s.tileAddress(4, 4),
              s.base() + 3 * kBlockBytes);
}

TEST(Surface, LinearBuffer)
{
    GpuMemory mem(1);
    const Surface s = Surface::makeLinear(
        mem, SurfaceKind::VertexBuffer, "vb", 1000);
    EXPECT_EQ(s.bytes(), 1024u);  // rounded to blocks
    EXPECT_EQ(s.linearAddress(0), s.base());
    EXPECT_EQ(s.linearAddress(999), s.base() + 999);
    // Past-the-end clamps.
    EXPECT_EQ(s.linearAddress(5000), s.base() + s.bytes() - 1);
}

TEST(Surface, RowMajorTileOrder)
{
    GpuMemory mem(1);
    const Surface s = Surface::make2D(
        mem, SurfaceKind::RenderTarget, "t", 16, 16, 4);
    // 4 tiles per row: tile (0,1) starts one row of tiles in.
    EXPECT_EQ(s.tileAddress(0, 4), s.base() + 4 * kBlockBytes);
    EXPECT_EQ(s.tileAddress(4, 0), s.base() + 1 * kBlockBytes);
}

TEST(Surface, KindAndNamePreserved)
{
    GpuMemory mem(1);
    const Surface s = Surface::make2D(
        mem, SurfaceKind::Depth, "depth0", 16, 16, 4);
    EXPECT_EQ(s.kind(), SurfaceKind::Depth);
    EXPECT_EQ(s.name(), "depth0");
    EXPECT_EQ(s.width(), 16u);
    EXPECT_EQ(s.height(), 16u);
}

TEST(Surface, TileAddressMatchesDivisionForm)
{
    // The shift form against the plain division, for both element
    // sizes, power-of-two and other extents, every coordinate up to
    // and past both edges, and far past them.
    constexpr std::uint32_t kFar = std::numeric_limits<std::uint32_t>::max();
    GpuMemory mem(3);
    for (std::uint32_t bytes : {1u, 4u}) {
        const std::uint32_t edge = bytes == 1 ? 8 : 4;
        for (std::uint32_t w : {1u, 3u, 4u, 5u, 8u, 9u, 31u, 64u, 100u}) {
            for (std::uint32_t h : {1u, 7u, 8u, 17u, 64u}) {
                const Surface s = Surface::make2D(
                    mem, SurfaceKind::RenderTarget, "t", w, h, bytes);
                const std::uint32_t tiles_per_row = (w + edge - 1) / edge;
                const auto division = [&](std::uint32_t x,
                                          std::uint32_t y) {
                    const std::uint32_t tx = std::min(x, w - 1) / edge;
                    const std::uint32_t ty = std::min(y, h - 1) / edge;
                    return s.base()
                        + (Addr{ty} * tiles_per_row + tx) * kBlockBytes;
                };
                std::vector<std::uint32_t> xs, ys;
                for (std::uint32_t x = 0; x <= w + 2 * edge; ++x)
                    xs.push_back(x);
                for (std::uint32_t y = 0; y <= h + 2 * edge; ++y)
                    ys.push_back(y);
                xs.insert(xs.end(), {1000u, kFar - 1, kFar});
                ys.insert(ys.end(), {1000u, kFar - 1, kFar});
                for (std::uint32_t y : ys) {
                    for (std::uint32_t x : xs) {
                        ASSERT_EQ(s.tileAddress(x, y), division(x, y))
                            << bytes << " B, " << w << "x" << h << " at ("
                            << x << ", " << y << ")";
                    }
                }
            }
        }
    }
}

TEST(Surface, WrapCoordMatchesModulo)
{
    constexpr std::uint32_t kFar = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t extent :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 12u, 32u, 64u, 96u, 100u, 128u,
          1000u, 1024u, 2048u, 1u << 31, 3u << 30, kFar}) {
        std::vector<std::uint32_t> values;
        for (std::uint32_t v = 0; v < 3 * 1024 + 5; ++v)
            values.push_back(v);
        for (std::uint32_t k : {1u, 2u, 3u}) {
            const std::uint64_t edge = std::uint64_t{extent} * k;
            for (std::uint64_t v : {edge - 1, edge, edge + 1}) {
                if (v <= kFar)
                    values.push_back(static_cast<std::uint32_t>(v));
            }
        }
        values.insert(values.end(), {kFar - 1, kFar});
        for (std::uint32_t v : values) {
            ASSERT_EQ(wrapCoord(v, extent), v % extent)
                << v << " mod " << extent;
        }
    }
}
