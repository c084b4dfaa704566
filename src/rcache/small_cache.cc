#include "rcache/small_cache.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/logging.hh"

namespace gllc
{

namespace
{

std::uint32_t
floorPow2(std::uint32_t x)
{
    GLLC_ASSERT(x > 0);
    while ((x & (x - 1)) != 0)
        x &= x - 1;
    return x;
}

} // namespace

SmallCache::SmallCache(std::string name, std::uint32_t blocks,
                       std::uint32_t ways, bool write_allocate)
    : name_(std::move(name)), writeAllocate_(write_allocate)
{
    GLLC_ASSERT(blocks > 0 && ways > 0);
    blocks = floorPow2(blocks);
    ways_ = std::min(ways, blocks);
    sets_ = blocks / floorPow2(ways_);
    ways_ = blocks / sets_;
    GLLC_ASSERT_MSG(ways_ <= 256, "%s: %u ways do not fit Meta::way",
                    name_.c_str(), ways_);
    tags_.assign(static_cast<std::size_t>(sets_) * ways_, 0);
    meta_.assign(tags_.size(), Meta{});
    live_.assign(sets_, 0);
}

bool
SmallCache::access(Addr addr, bool is_write, StreamType stream,
                   std::uint32_t cycle, std::vector<MemAccess> &out)
{
    ++stats_.accesses;
    const Addr tag = blockNumber(addr);
    const std::size_t set = static_cast<std::size_t>(tag & (sets_ - 1));
    Addr *tags = &tags_[set * ways_];
    Meta *meta = &meta_[set * ways_];
    const std::uint32_t live = live_[set];

    for (std::uint32_t i = 0; i < live; ++i) {
        if (tags[i] == tag) {
            // Hit: move to the front, sliding [0, i) down one.
            ++stats_.hits;
            Meta m = meta[i];
            m.dirty = m.dirty || is_write;
            std::memmove(tags + 1, tags, i * sizeof(Addr));
            std::memmove(meta + 1, meta, i * sizeof(Meta));
            tags[0] = tag;
            meta[0] = m;
            return true;
        }
    }

    // Miss.  Read-only caches forward writes without allocating.
    if (is_write && !writeAllocate_) {
        out.emplace_back(blockAlign(addr), stream, true, cycle);
        return false;
    }

    // Victim: the lowest invalid way while the set fills, else the
    // LRU block at the tail, whose physical way the new block takes.
    std::uint32_t shift = live;
    std::uint8_t way = static_cast<std::uint8_t>(live);
    if (live < ways_) {
        ++live_[set];
    } else {
        shift = ways_ - 1;
        const Meta &victim = meta[shift];
        way = victim.way;
        if (victim.dirty) {
            ++stats_.writebacks;
            out.emplace_back(tags[shift] << kBlockShift, victim.stream,
                             true, cycle);
        }
    }

    // Read misses fetch the block from the LLC.  Store misses
    // allocate silently: render-target/depth tiles are written
    // whole, so nothing is fetched and the LLC sees the data only
    // when the dirty block is written back.
    if (!is_write)
        out.emplace_back(blockAlign(addr), stream, false, cycle);

    std::memmove(tags + 1, tags, shift * sizeof(Addr));
    std::memmove(meta + 1, meta, shift * sizeof(Meta));
    tags[0] = tag;
    meta[0] = Meta{way, stream, is_write};
    return false;
}

void
SmallCache::flush(std::uint32_t cycle, std::vector<MemAccess> &out)
{
    // Drain in physical order (set-major, way-minor): walk each set's
    // ways through the inverse of its recency permutation.
    std::uint32_t drained = 0;
    std::array<std::uint8_t, 256> position{};
    for (std::size_t set = 0; set < sets_; ++set) {
        const std::uint32_t live = live_[set];
        const Addr *tags = &tags_[set * ways_];
        const Meta *meta = &meta_[set * ways_];
        for (std::uint32_t i = 0; i < live; ++i)
            position[meta[i].way] = static_cast<std::uint8_t>(i);
        for (std::uint32_t w = 0; w < live; ++w) {
            const std::uint32_t i = position[w];
            if (meta[i].dirty) {
                ++stats_.writebacks;
                // Flushes drain at a finite rate; spreading the
                // stamps keeps the DRAM arrival process realistic.
                out.emplace_back(tags[i] << kBlockShift, meta[i].stream,
                                 true, cycle + drained / 2);
                ++drained;
            }
        }
        live_[set] = 0;
    }
}

} // namespace gllc
