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
 * Layout: each set is kept in recency order, most recently used
 * first, as a tag array plus a parallel 3-byte metadata array.
 * Render-cache hits cluster at the MRU end, so the hit scan is
 * short, and the LRU victim is simply the last position.  Only
 * flush() invalidates, and it invalidates everything, so a set's
 * invalid ways are always a suffix and a live count replaces valid
 * bits.  Each block also remembers its physical way: a fill into a
 * set that is not full takes way `live` (the lowest invalid way), a
 * victim's way passes to the block replacing it, and flush() emits
 * writebacks in physical-way order.
 */

#ifndef GLLC_RCACHE_SMALL_CACHE_HH
#define GLLC_RCACHE_SMALL_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

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
    bool access(Addr addr, bool is_write, StreamType stream,
                std::uint32_t cycle, std::vector<MemAccess> &out);

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
    /** Per-block state, parallel to the tag array. */
    struct Meta
    {
        std::uint8_t way;  ///< physical way (fixes flush order)
        StreamType stream;
        bool dirty;
    };
    static_assert(sizeof(Meta) == 3, "Meta must stay 3 bytes");

    std::string name_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    bool writeAllocate_;
    /// @name Per set, ways_ slots each, in recency order (MRU first)
    /// @{
    std::vector<Addr> tags_;
    std::vector<Meta> meta_;
    /// @}
    /** Valid blocks per set: positions [0, live) of its slots. */
    std::vector<std::uint16_t> live_;
    SmallCacheStats stats_;
};

} // namespace gllc

#endif // GLLC_RCACHE_SMALL_CACHE_HH
