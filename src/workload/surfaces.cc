#include "workload/surfaces.hh"

#include "common/logging.hh"

namespace gllc
{

namespace
{

/** log2 of the tile edge for an element size (64 B tiles). */
std::uint32_t
tileShiftFor(std::uint32_t bytes_per_element)
{
    switch (bytes_per_element) {
      case 1:
        return 3;   // 8x8 x 1 B
      case 4:
        return 2;   // 4x4 x 4 B
      default:
        GLLC_ASSERT_MSG(false, "unsupported element size %u",
                        bytes_per_element);
        return 0;
    }
}

} // namespace

Surface
Surface::make2D(GpuMemory &mem, SurfaceKind kind, const std::string &name,
                std::uint32_t width, std::uint32_t height,
                std::uint32_t bytes_per_element)
{
    GLLC_ASSERT(width > 0 && height > 0);
    Surface s;
    s.kind_ = kind;
    s.name_ = name;
    s.width_ = width;
    s.height_ = height;
    s.tileShift_ = tileShiftFor(bytes_per_element);
    const std::uint32_t edge = s.tileEdge();
    s.tilesPerRow_ = (width + edge - 1) / edge;
    const std::uint32_t tile_rows = (height + edge - 1) / edge;
    s.bytes_ = static_cast<std::uint64_t>(s.tilesPerRow_) * tile_rows
        * kBlockBytes;
    s.base_ = mem.allocate(s.bytes_, name);
    return s;
}

Surface
Surface::makeLinear(GpuMemory &mem, SurfaceKind kind,
                    const std::string &name, std::uint64_t bytes)
{
    Surface s;
    s.kind_ = kind;
    s.name_ = name;
    s.bytes_ = (bytes + kBlockBytes - 1) / kBlockBytes * kBlockBytes;
    s.base_ = mem.allocate(s.bytes_, name);
    s.width_ = static_cast<std::uint32_t>(s.bytes_);
    s.height_ = 1;
    return s;
}

} // namespace gllc
