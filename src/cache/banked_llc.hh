/**
 * @file
 * Banked non-inclusive/non-exclusive LLC model.
 *
 * Models the paper's shared GPU LLC (Section 4): 64 B blocks, block-
 * interleaved banks, write-allocate, fill-on-miss, per-stream
 * statistics.  Replacement is delegated to one ReplacementPolicy
 * instance per bank.  The "uncached displayable color" (UCD)
 * configurations set LlcConfig::uncachedDisplay: display accesses
 * still probe the tag store (for coherence with blocks a different
 * stream may have cached) but never allocate.
 *
 * Hot path (DESIGN.md section 9).  The tag store is structure-of-
 * arrays: per bank, one row per set of full tags (kInvalidTag marks
 * an empty frame), a parallel row of their low 32 bits and a
 * parallel dirty byte row.  Rows are padded to a multiple of 16 ways
 * with invalid lanes.  One probe serves every associativity: it
 * compares the low-tag row 16 ways per step (equalWordMask) and
 * confirms each candidate against the full tag; a miss takes the
 * first invalid way the same probe finds for kInvalidTag, and asks
 * the policy for a victim only when there is none.  Every access,
 * in replays and tests alike, goes through the one access<>() body,
 * templated on the concrete policy class and the concrete observer
 * type so the policy and observer hooks inline; callers that do not
 * name a policy class get the ReplacementPolicy instantiation of the
 * same body, with virtual hooks.  UCD, the invariant audit and the
 * decision log are runtime flags: UCD is tested on the miss path
 * only, and audit and decision logging share one flag sampled at
 * construction that guards two out-of-line calls.
 */

#ifndef GLLC_CACHE_BANKED_LLC_HH
#define GLLC_CACHE_BANKED_LLC_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "cache/geometry.hh"
#include "cache/replacement.hh"
#include "common/byte_scan.hh"
#include "common/logging.hh"

namespace gllc
{

/** Per-stream and aggregate LLC statistics. */
struct LlcStats
{
    struct PerStream
    {
        std::uint64_t accesses = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;    ///< misses that allocated
        std::uint64_t bypasses = 0;  ///< misses that did not allocate
    };

    std::array<PerStream, kNumStreams> stream{};
    std::uint64_t writebacks = 0;  ///< dirty evictions toward DRAM
    std::uint64_t evictions = 0;

    const PerStream &
    of(StreamType s) const
    {
        return stream[static_cast<std::size_t>(s)];
    }

    std::uint64_t totalAccesses() const;
    std::uint64_t totalHits() const;

    /** All accesses that went to DRAM (misses + bypasses). */
    std::uint64_t totalMisses() const;

    /** Hit rate of one stream (0 when it had no accesses). */
    double hitRate(StreamType s) const;

    /** Accumulate another frame's statistics. */
    void merge(const LlcStats &other);
};

/**
 * The observer contract of BankedLlc::access<>(), and the no-op
 * observer for callers that observe nothing: the empty inline bodies
 * vanish at compile time.  Hooks receive each event's global frame
 * index (bank-major, then set, then way), so stateful observers
 * (epoch tracking, RT-bit inter-stream reuse classification, stream
 * occupancy) keep per-resident-block metadata in a flat
 * frame-indexed array instead of a hashed map.  Observers follow
 * block lifetimes without perturbing the policy under test.
 */
struct NullAccessObserver
{
    /** Access hit the resident block in @p frame. */
    void onHitAt(const MemAccess &, std::size_t) {}

    /** Access missed and is about to fill @p frame. */
    void onMissAt(const MemAccess &, std::size_t) {}

    /** Access missed and bypassed (no allocation). */
    void onBypass(const MemAccess &) {}

    /** The valid block at block-aligned address left @p frame. */
    void onEvictAt(Addr, std::size_t) {}
};

/** Result of one LLC access, for the timing model. */
struct LlcAccessResult
{
    bool hit = false;
    bool bypassed = false;

    /** A dirty block was written back to DRAM. */
    bool writeback = false;

    /** Block-aligned address of the written-back block. */
    Addr writebackAddr = 0;
};

/** Configuration for a BankedLlc instance. */
struct LlcConfig
{
    std::uint64_t capacityBytes = 8ull << 20;
    std::uint32_t ways = 16;
    std::uint32_t banks = 4;

    /**
     * Display-stream accesses never allocate (the paper's UCD
     * configurations).  Tested on the miss path only.
     */
    bool uncachedDisplay = false;
};

/** The banked LLC. */
class BankedLlc
{
  public:
    BankedLlc(const LlcConfig &config, const PolicyFactory &factory);

    /**
     * Service one access: the LLC's single access path.
     * @param access the load/store
     * @param index global trace position (Belady bookkeeping, audit
     *        and decision-log records)
     * @param next_use trace index of the next access to this block,
     *        or kNever; only meaningful under oracle policies
     * @param observer concrete observer with the hooks of
     *        NullAccessObserver, called directly (no virtual dispatch)
     * @tparam Policy the final class of every bank's policy
     *         (policiesAre<Policy>()), whose hooks are then called
     *         directly; ReplacementPolicy calls them virtually
     *
     * UCD is a miss-path test of the configuration.  The invariant
     * audit and the decision log share one flag, checked_, sampled
     * at construction: when it is set, two out-of-line calls record
     * the access around the policy hooks.
     */
    template <typename Policy = ReplacementPolicy, typename Observer>
    LlcAccessResult
    access(const MemAccess &access, std::uint64_t index,
           std::uint64_t next_use, Observer &observer)
    {
        static_assert(std::is_same_v<Policy, ReplacementPolicy>
                          || std::is_final_v<Policy>,
                      "a concrete policy must be final for its hooks "
                      "to bind statically");
        LlcAccessResult result;
        const CacheGeometry::Placement where =
            geom_.placementOf(access.addr);
        Bank &bank = banks_[where.bank];
        Policy &policy = static_cast<Policy &>(*bank.policy);
        const std::uint32_t ways = geom_.ways();
        const std::size_t row =
            static_cast<std::size_t>(where.set) * stride_;
        Addr *tags = bank.tags.data() + row;
        std::uint8_t *dirty = bank.dirty.data() + row;

        // Global frame index of way 0 of this set, for the observer's
        // frame-indexed metadata (bank-major, then set, then way).
        const std::size_t frame_base =
            (static_cast<std::size_t>(where.bank) * geom_.setsPerBank()
             + where.set)
            * ways;

        auto &sstats =
            bank.stats.stream[static_cast<std::size_t>(access.stream)];
        ++sstats.accesses;

        const std::uint32_t way = probe(bank, row, where.tag);
        if (checked_)
            beginChecked(access, index, way);

        const AccessInfo info{&access, index, next_use};
        if (way < ways) {
            // Hit (bypassed streams can still hit blocks another
            // stream allocated; the data is resident either way).
            ++sstats.hits;
            result.hit = true;
            dirty[way] |= static_cast<std::uint8_t>(access.isWrite);
            policy.onHit(where.set, way, info);
            if (checked_)
                endChecked(access, index, way, result);
            observer.onHitAt(access, frame_base + way);
            return result;
        }

        if ((config_.uncachedDisplay
             && access.stream == StreamType::Display)
            || (bank.policyMayBypass
                && policy.shouldBypass(where.set, info))) {
            ++sstats.bypasses;
            result.bypassed = true;
            if (checked_)
                endChecked(access, index, ways, result);
            observer.onBypass(access);
            return result;
        }

        // Miss: always fill (Section 2: "A miss in the LLC always
        // fills the requested block into the LLC").
        ++sstats.misses;

        // Prefer the lowest invalid frame (padding lanes come after
        // every way); otherwise ask the policy for a victim.
        std::uint32_t fill_way = probe(bank, row, kInvalidTag);
        if (fill_way >= ways) {
            fill_way = policy.selectVictim(where.set);
            GLLC_ASSERT(fill_way < ways);
            GLLC_ASSERT(tags[fill_way] != kInvalidTag);
            ++bank.stats.evictions;
            if (dirty[fill_way] != 0) {
                ++bank.stats.writebacks;
                result.writeback = true;
                result.writebackAddr = tags[fill_way] << kBlockShift;
            }
            policy.onEvict(where.set, fill_way);
            observer.onEvictAt(tags[fill_way] << kBlockShift,
                               frame_base + fill_way);
        }

        observer.onMissAt(access, frame_base + fill_way);

        tags[fill_way] = where.tag;
        bank.lowTags[row + fill_way] =
            static_cast<std::uint32_t>(where.tag);
        dirty[fill_way] = static_cast<std::uint8_t>(access.isWrite);
        policy.onFill(where.set, fill_way, info);
        if (checked_)
            endChecked(access, index, fill_way, result);
        return result;
    }

    /** access() with no observer. */
    LlcAccessResult
    access(const MemAccess &access, std::uint64_t index = 0,
           std::uint64_t next_use = kNever)
    {
        NullAccessObserver none;
        return this->access<ReplacementPolicy>(access, index, next_use,
                                               none);
    }

    /** True when every bank's policy is exactly of class @p Policy. */
    template <typename Policy>
    bool
    policiesAre() const
    {
        for (const Bank &bank : banks_) {
            if (typeid(*bank.policy) != typeid(Policy))
                return false;
        }
        return true;
    }

    /** Probe only: true when the block is resident. No side effects. */
    bool isResident(Addr addr) const;

    /** Aggregate statistics, merged over the per-bank counters. */
    LlcStats stats() const;

    const CacheGeometry &geometry() const { return geom_; }

    /** Per-bank statistics (the access path's single accumulator). */
    const LlcStats &bankStats(std::uint32_t bank) const;

    /**
     * Publish this cache's counters into the MetricsRegistry under
     * @p prefix: aggregate and per-bank per-stream hit/miss/bypass
     * counters, per-bank insertion-RRPV histograms, and whatever each
     * bank's policy reports through ReplacementPolicy::flushMetrics.
     * Called once per replay; no-op when metrics are inactive.
     */
    void flushMetrics(const std::string &prefix) const;

    /** Merged insertion-RRPV histogram across banks, if available. */
    FillHistogram mergedFillHistogram() const;

    /** Per-bank policy access (tests and characterization). */
    ReplacementPolicy &bankPolicy(std::uint32_t bank);

    /**
     * Audit one set of one bank: no duplicate tags, every valid tag
     * maps back to this (bank, set) under the geometry, every way's
     * low tag is the low 32 bits of its full tag, padding lanes hold
     * the invalid marker, and the bank's policy invariants hold.
     * No-op unless auditActive().
     */
    void auditSet(std::uint32_t bank, std::uint32_t set) const;

    /** Audit every set of every bank (tests, end-of-replay checks). */
    void auditAll() const;

    /**
     * Test-only: overwrite one tag-store entry (its full and low
     * tag), bypassing the access path, so the audit layer's
     * tag-store checks can be exercised.
     */
    void debugCorruptEntry(std::uint32_t bank, std::uint32_t set,
                           std::uint32_t way, Addr tag, bool valid);

    /**
     * Test-only: overwrite one way's low tag alone (@p way may be a
     * padding lane), so the audit's low-tag check can be exercised.
     */
    void debugCorruptLowTag(std::uint32_t bank, std::uint32_t set,
                            std::uint32_t way, std::uint32_t low_tag);

  private:
    /** Tag value of an empty frame (no real block number is ~0). */
    static constexpr Addr kInvalidTag = ~static_cast<Addr>(0);

    /**
     * One bank's state, structure-of-arrays, one row of stride_
     * slots per set: the probe reads the low-tag row and confirms
     * candidates in the full-tag row; dirty bytes are touched once
     * per hit-on-write / eviction.  Invalid ways and padding lanes
     * hold kInvalidTag and its low 32 bits.
     */
    struct Bank
    {
        std::vector<Addr> tags;             ///< kInvalidTag = empty
        std::vector<std::uint32_t> lowTags; ///< low 32 bits of tags
        std::vector<std::uint8_t> dirty;    ///< one byte per frame
        std::unique_ptr<ReplacementPolicy> policy;

        /**
         * ReplacementPolicy::mayBypass(), sampled at construction so
         * the miss path skips the shouldBypass() virtual call for
         * the (common) policies that never bypass.
         */
        bool policyMayBypass = false;

        /**
         * Per-bank counters.  The access path increments these and
         * nothing else; stats() merges them on demand, so enabling
         * metrics adds no per-access work.
         */
        LlcStats stats;
    };

    /**
     * Checked access, before the policy hooks: fill the audit
     * context's per-access fields; @p way is the probed way, at or
     * past ways() on a miss.
     */
    void beginChecked(const MemAccess &access, std::uint64_t index,
                      std::uint32_t way) const;

    /**
     * Checked access, after the policy hooks: record the decision
     * (the hit, fill or bypass in @p result; @p way is the way hit
     * or filled) and audit the set.
     */
    void endChecked(const MemAccess &access, std::uint64_t index,
                    std::uint32_t way, LlcAccessResult result) const;

    /**
     * The lowest way of the row starting at @p row whose full tag is
     * @p tag, or stride_ if none.  Padding lanes come after every
     * way, so only kInvalidTag can find one; any result >= ways()
     * means "no such way".
     */
    std::uint32_t
    probe(const Bank &bank, std::size_t row, Addr tag) const
    {
        const std::uint32_t *low_tags = bank.lowTags.data() + row;
        const Addr *tags = bank.tags.data() + row;
        const auto low_tag = static_cast<std::uint32_t>(tag);
        for (std::uint32_t base = 0; base < stride_; base += 16) {
            for (unsigned m = equalWordMask(low_tags + base, low_tag);
                 m != 0; m &= m - 1) {
                const std::uint32_t way =
                    base + static_cast<std::uint32_t>(std::countr_zero(m));
                if (tags[way] == tag)
                    return way;
            }
        }
        return stride_;
    }

    CacheGeometry geom_;
    LlcConfig config_;

    /** Slots per set row: ways rounded up to a multiple of 16. */
    std::uint32_t stride_;
    std::vector<Bank> banks_;

    /**
     * Decision-log switch, sampled once at construction so the
     * access path pays one branch, not an atomic load, per access.
     */
    bool logDecisions_ = false;

    /**
     * logDecisions_ || auditActive() at construction: the access
     * path's one branch for both facilities.
     */
    bool checked_ = false;
};

} // namespace gllc

#endif // GLLC_CACHE_BANKED_LLC_HH
