#include "rcache/small_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gllc
{

namespace
{

/**
 * Age byte of an invalid way or padding lane: above every age in a
 * set that is not full.
 */
constexpr std::uint8_t kInvalidAge = 0xff;

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
    GLLC_ASSERT_MSG(ways_ <= 256, "%s: %u ways do not fit an age byte",
                    name_.c_str(), ways_);
    stride_ = (ways_ + 15) & ~15u;
    const std::size_t slots = std::size_t{sets_} * stride_;
    tags_.assign(slots, kNoTag);
    lowTags_.assign(slots, static_cast<std::uint32_t>(kNoTag));
    ages_.assign(slots, kInvalidAge);
    meta_.assign(slots, Meta{});
    setState_.assign(sets_, Set{0, 0});
}

void
SmallCache::allocate(Addr tag, std::size_t set, bool is_write,
                     StreamType stream, std::uint32_t cycle,
                     std::vector<MemAccess> &out)
{
    // Read-only caches forward writes without allocating.
    const Addr block = tag << kBlockShift;
    if (is_write && !writeAllocate_) {
        out.emplace_back(block, stream, true, cycle);
        return;
    }

    const std::size_t row = set * stride_;
    Addr *tags = &tags_[row];
    std::uint8_t *ages = &ages_[row];
    Meta *meta = &meta_[row];
    Set &state = setState_[set];

    // Victim: the lowest invalid way while the set fills, else the
    // LRU way.
    std::uint32_t way = state.live;
    if (way < ways_) {
        ++state.live;
    } else {
        way = firstByteEqual(ages, stride_,
                             static_cast<std::uint8_t>(ways_ - 1));
        if (meta[way].dirty) {
            ++stats_.writebacks;
            out.emplace_back(tags[way] << kBlockShift, meta[way].stream,
                             true, cycle);
        }
    }

    // Read misses fetch the block from the LLC.  Store misses
    // allocate silently: render-target/depth tiles are written
    // whole, so nothing is fetched and the LLC sees the data only
    // when the dirty block is written back.
    if (!is_write)
        out.emplace_back(block, stream, false, cycle);

    incrementBytesBelow(ages, stride_, ages[way]);
    ages[way] = 0;
    tags[way] = tag;
    lowTags_[row + way] = static_cast<std::uint32_t>(tag);
    meta[way] = Meta{stream, is_write};
    state.mru = static_cast<std::uint8_t>(way);
}

void
SmallCache::flush(std::uint32_t cycle, std::vector<MemAccess> &out)
{
    // Drain in physical order (set-major, way-minor).
    std::uint32_t drained = 0;
    for (std::size_t set = 0; set < sets_; ++set) {
        const std::size_t row = set * stride_;
        for (std::size_t w = row; w < row + setState_[set].live; ++w) {
            if (meta_[w].dirty) {
                ++stats_.writebacks;
                // Flushes drain at a finite rate; spreading the
                // stamps keeps the DRAM arrival process realistic.
                out.emplace_back(tags_[w] << kBlockShift, meta_[w].stream,
                                 true, cycle + drained / 2);
                ++drained;
            }
            tags_[w] = kNoTag;
            lowTags_[w] = static_cast<std::uint32_t>(kNoTag);
            ages_[w] = kInvalidAge;
        }
        setState_[set].live = 0;
    }
}

} // namespace gllc
