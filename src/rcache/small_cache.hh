/**
 * @file
 * Small single-bank LRU cache used for the per-stream render caches.
 *
 * Section 1: "a single level of vertex and vertex index cache, Z
 * cache, render target cache, stencil cache, HiZ cache ... can be
 * found in any typical GPU."  These caches filter near-term temporal
 * locality; their misses and dirty writebacks form the LLC access
 * streams.  Each resident block remembers the LLC stream tag it was
 * brought in with so writebacks are attributed correctly (the render
 * target cache holds both RT and displayable-color blocks).
 *
 * Layout: each set keeps its blocks in physical-way order, in rows
 * padded to a multiple of 16 ways: the full tags, their low 32 bits,
 * one LRU age byte per way and 2 bytes of metadata.  A probe checks
 * the set's MRU way inline (render-cache hits cluster there), then
 * compares the low-tag row 16 ways at a time and confirms each
 * candidate against the full tag.  Ages give exact LRU: 0 is the MRU
 * way, a touch adds 1 to every age below the touched way's, and the
 * victim is the way aged `ways - 1`; 0xff marks an invalid way or a
 * padding lane, which no touch ages.  Only flush() invalidates, and
 * it invalidates everything, so a set's invalid ways are always a
 * suffix and a live count replaces valid bits: a fill into a set
 * that is not full takes way `live`, and flush() emits writebacks in
 * physical-way order.
 */

#ifndef GLLC_RCACHE_SMALL_CACHE_HH
#define GLLC_RCACHE_SMALL_CACHE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_scan.hh"
#include "trace/access.hh"

namespace gllc
{

/** Statistics for one render cache. */
struct SmallCacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t misses() const { return accesses - hits; }
};

class SmallCache
{
  public:
    /**
     * @param name for reporting
     * @param blocks total 64 B block frames (power of two)
     * @param ways associativity (clamped to the block count; at
     *        most 256)
     * @param write_allocate false for read-only caches (texture,
     *        vertex) that can never hold dirty data
     */
    SmallCache(std::string name, std::uint32_t blocks, std::uint32_t ways,
               bool write_allocate = true);

    /**
     * Service one access.  On a miss, appends the LLC fill request
     * (and a writeback, if a dirty block was displaced) to @p out.
     *
     * @param addr byte address
     * @param is_write store?
     * @param stream LLC stream tag for traffic caused by this access
     * @param cycle issue cycle stamped onto emitted LLC accesses
     * @param out receives the LLC-bound accesses
     * @return true on hit
     */
    bool
    access(Addr addr, bool is_write, StreamType stream,
           std::uint32_t cycle, std::vector<MemAccess> &out)
    {
        const Addr tag = blockNumber(addr);
        const auto set = static_cast<std::size_t>(tag & (sets_ - 1));
        const std::size_t slot = touch(tag, set);
        if (slot == kNoSlot) {
            allocate(tag, set, is_write, stream, cycle, out);
            return false;
        }
        meta_[slot].dirty = meta_[slot].dirty || is_write;
        return true;
    }

    /**
     * A read that emits nothing: a hit as in access(); a miss fills
     * the block clean and leaves forwarding it to the caller.  For
     * the levels of a read-only hierarchy, whose misses go to the
     * next level and which never hold a dirty block to write back.
     * @return true on hit
     */
    bool
    readNoTraffic(Addr addr, StreamType stream)
    {
        const Addr tag = blockNumber(addr);
        const auto set = static_cast<std::size_t>(tag & (sets_ - 1));
        if (touch(tag, set) != kNoSlot)
            return true;
        fillClean(tag, set, stream);
        return false;
    }

    /**
     * Write back every dirty block (pass/frame boundary flush) and
     * invalidate the cache contents.
     */
    void flush(std::uint32_t cycle, std::vector<MemAccess> &out);

    const SmallCacheStats &stats() const { return stats_; }
    const std::string &name() const { return name_; }
    std::uint32_t ways() const { return ways_; }
    std::uint32_t sets() const { return sets_; }

  private:
    /** Tag of an invalid way: block numbers stay below 2^58. */
    static constexpr Addr kNoTag = ~Addr{0};

    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /**
     * Count an access to @p tag in @p set and, on a hit, make its
     * way the MRU one.  @return the hit slot, or kNoSlot on a miss
     */
    std::size_t
    touch(Addr tag, std::size_t set)
    {
        ++stats_.accesses;
        const std::size_t row = set * stride_;
        // The MRU way is aged 0 already; a flushed set's tags are
        // kNoTag.
        std::size_t slot = row + setState_[set].mru;
        if (tags_[slot] != tag) {
            slot = findSlot(row, tag);
            if (slot == kNoSlot)
                return kNoSlot;
            incrementBytesBelow(&ages_[row], stride_, ages_[slot]);
            ages_[slot] = 0;
            setState_[set].mru = static_cast<std::uint8_t>(slot - row);
        }
        ++stats_.hits;
        return slot;
    }

    /** Slot of @p tag in the set whose row starts at @p row. */
    std::size_t
    findSlot(std::size_t row, Addr tag) const
    {
        // Invalid ways and padding lanes hold kNoTag, so a candidate
        // the full tag confirms is live.
        const auto low_tag = static_cast<std::uint32_t>(tag);
        for (std::size_t base = row; base < row + stride_; base += 16) {
            for (unsigned m = equalWordMask(&lowTags_[base], low_tag);
                 m != 0; m &= m - 1) {
                const std::size_t slot =
                    base + static_cast<std::size_t>(std::countr_zero(m));
                if (tags_[slot] == tag)
                    return slot;
            }
        }
        return kNoSlot;
    }

    /** The miss path of access(): allocate (or forward) @p tag. */
    void allocate(Addr tag, std::size_t set, bool is_write,
                  StreamType stream, std::uint32_t cycle,
                  std::vector<MemAccess> &out);

    /** The miss path of readNoTraffic(): fill @p tag clean. */
    void fillClean(Addr tag, std::size_t set, StreamType stream);

    /**
     * The way a fill of @p set takes: the lowest invalid way while
     * the set fills, else the LRU way.
     */
    std::uint32_t victimWay(std::size_t set) const;

    /** Make @p tag the MRU block of @p set, in @p way. */
    void install(Addr tag, std::size_t set, std::uint32_t way,
                 StreamType stream, bool dirty);

    /** Per-block state, parallel to the tag array. */
    struct Meta
    {
        StreamType stream;
        bool dirty;
    };

    /** Per-set state. */
    struct Set
    {
        std::uint8_t mru;    ///< way aged 0, if any is live
        std::uint16_t live;  ///< valid blocks: ways [0, live)
    };

    std::string name_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t stride_;  ///< ways_ rounded up to 16
    bool writeAllocate_;
    /// @name Per set, stride_ slots each, in physical-way order
    /// @{
    std::vector<Addr> tags_;           ///< kNoTag when invalid
    std::vector<std::uint32_t> lowTags_;
    std::vector<std::uint8_t> ages_;   ///< 0 = MRU, 0xff = invalid
    std::vector<Meta> meta_;
    /// @}
    std::vector<Set> setState_;
    SmallCacheStats stats_;
};

} // namespace gllc

#endif // GLLC_RCACHE_SMALL_CACHE_HH
