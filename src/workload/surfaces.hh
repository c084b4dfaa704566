/**
 * @file
 * GPU surfaces and their tiled memory layouts.
 *
 * GPUs store 2D surfaces in tiles so that a 64 B cache block holds a
 * small screen-space rectangle rather than part of a scan line
 * (cf. the 4D/6D texture tilings cited in Section 1.1.2).  We use:
 *
 *   color / depth / texture (4 B texels):   4x4-texel 64 B tiles
 *   stencil (1 B):                          8x8-pixel 64 B tiles
 *   HiZ (4 B per 8x8-pixel region):         one block per 32x8 pixels
 */

#ifndef GLLC_WORKLOAD_SURFACES_HH
#define GLLC_WORKLOAD_SURFACES_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "workload/memmap.hh"

namespace gllc
{

/** What a surface is used for (drives the access stream tagging). */
enum class SurfaceKind : std::uint8_t
{
    VertexBuffer,
    IndexBuffer,
    StaticTexture,
    RenderTarget,   ///< offscreen color target (may become a texture)
    BackBuffer,     ///< displayable color
    Depth,
    HiZ,
    StencilBuffer,
    Constants,
};

/**
 * @p v modulo @p extent: a mask when the extent is a power of two
 * (every static texture's is), else a division.
 */
inline std::uint32_t
wrapCoord(std::uint32_t v, std::uint32_t extent)
{
    return (extent & (extent - 1)) == 0 ? v & (extent - 1) : v % extent;
}

/** A 2D (or linear) surface bound into GPU memory. */
class Surface
{
  public:
    Surface() = default;

    /** Allocate a 2D surface of w x h elements of the given size. */
    static Surface
    make2D(GpuMemory &mem, SurfaceKind kind, const std::string &name,
           std::uint32_t width, std::uint32_t height,
           std::uint32_t bytes_per_element);

    /** Allocate a linear buffer of the given byte size. */
    static Surface makeLinear(GpuMemory &mem, SurfaceKind kind,
                              const std::string &name,
                              std::uint64_t bytes);

    SurfaceKind kind() const { return kind_; }
    std::uint32_t width() const { return width_; }
    std::uint32_t height() const { return height_; }
    Addr base() const { return base_; }
    std::uint64_t bytes() const { return bytes_; }
    const std::string &name() const { return name_; }

    /**
     * Virtual address of the 64 B tile containing element (x, y).
     * Coordinates are clamped to the surface, so callers can walk
     * slightly past an edge without branching.
     */
    Addr
    tileAddress(std::uint32_t x, std::uint32_t y) const
    {
        const std::uint32_t tx = std::min(x, width_ - 1) >> tileShift_;
        const std::uint32_t ty = std::min(y, height_ - 1) >> tileShift_;
        return base_
            + (static_cast<std::uint64_t>(ty) * tilesPerRow_ + tx)
                * kBlockBytes;
    }

    /** Virtual address of byte @p offset in a linear buffer. */
    Addr
    linearAddress(std::uint64_t offset) const
    {
        return base_ + (offset < bytes_ ? offset : bytes_ - 1);
    }

    /** Number of 64 B blocks the surface spans. */
    std::uint64_t blockCount() const { return bytes_ / kBlockBytes; }

    /** Elements per tile edge (4 for 4 B elements, 8 for 1 B). */
    std::uint32_t tileEdge() const { return 1u << tileShift_; }

  private:
    SurfaceKind kind_ = SurfaceKind::Constants;
    std::string name_;
    Addr base_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint32_t width_ = 0;
    std::uint32_t height_ = 0;
    std::uint32_t tileShift_ = 2;  ///< log2 of the tile edge
    std::uint32_t tilesPerRow_ = 0;
};

} // namespace gllc

#endif // GLLC_WORKLOAD_SURFACES_HH
