/**
 * @file
 * Shared RRIP replacement machinery.
 *
 * Every RRIP-family policy (SRRIP, DRRIP, GS-DRRIP, SHiP-mem and the
 * GSPC family) shares the same victim-selection rule: evict the
 * lowest-numbered way whose RRPV equals 2^n - 1, aging the whole set
 * in unit steps when no such way exists (Section 1, baseline
 * description).  RripState centralizes the RRPV array, the victim
 * scan and the insertion-RRPV bookkeeping for Figure 8.
 */

#ifndef GLLC_CACHE_RRIP_HH
#define GLLC_CACHE_RRIP_HH

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"
#include "common/audit.hh"
#include "common/byte_scan.hh"

namespace gllc
{

/** Per-bank array of n-bit re-reference prediction values. */
class RripState
{
  public:
    /** @param bits RRPV width; the paper uses 2 (and 4 in Fig 14). */
    explicit RripState(unsigned bits);

    void configure(std::uint32_t sets, std::uint32_t ways);

    /** Maximum RRPV (2^n - 1): "no near-future reuse", the victim. */
    std::uint8_t maxRrpv() const { return max_; }

    /** "Long re-reference interval" insertion value (2^n - 2). */
    std::uint8_t distantRrpv() const { return max_ - 1; }

    /**
     * RRIP victim selection: first way at maxRrpv, aging all ways in
     * unit steps until one qualifies.  Ties break toward the minimum
     * physical way id (Section 1).  One vector compare finds the
     * victim; the aging is applied in one pass, with the identical
     * resulting victim and RRPVs.
     */
    std::uint32_t
    selectVictim(std::uint32_t set)
    {
        // A corrupted RRPV above the policy width would break the
        // aging arithmetic; audit the set before trusting it.
        if (auditActive())
            auditSet(set, "RripState");

        std::uint8_t *row = &rrpv_[static_cast<std::size_t>(set) * ways_];
        std::uint32_t victim = firstByteEqual(row, ways_, max_);
        if (victim == ways_) {
            // No way at max: unit-step aging would raise every way
            // until the highest reaches max, so add that gap in one
            // pass.  The victim is the lowest way that was at the
            // top.
            const std::uint8_t top = maxByte(row, ways_);
            victim = firstByteEqual(row, ways_, top);
            addToBytes(row, ways_, static_cast<std::uint8_t>(max_ - top));
        }
        if (auditActive())
            auditVictim(set, victim);
        return victim;
    }

    /** Install a block with the given RRPV, recording the fill. */
    void
    fill(std::uint32_t set, std::uint32_t way, std::uint8_t rrpv,
         PolicyStream stream)
    {
        at(set, way) = rrpv;
        hist_.record(stream, rrpv);
    }

    /** Update the RRPV of a resident block (promotion/demotion). */
    void
    set(std::uint32_t set, std::uint32_t way, std::uint8_t rrpv)
    {
        at(set, way) = rrpv;
    }

    std::uint8_t
    get(std::uint32_t set, std::uint32_t way) const
    {
        return rrpv_[static_cast<std::size_t>(set) * ways_ + way];
    }

    const FillHistogram &histogram() const { return hist_; }

    /**
     * Audit one set: every stored RRPV must be representable in the
     * configured width.  @p component names the owning policy in the
     * failure report.  No-op unless auditActive().
     */
    void auditSet(std::uint32_t set, const char *component) const;

    /**
     * Audit one victim choice: @p victim holds maxRrpv and no lower
     * way does (the Section 1 tie-break).  No-op unless
     * auditActive().
     */
    void auditVictim(std::uint32_t set, std::uint32_t victim) const;

    /** Audit every set (tests, end-of-replay sweeps). */
    void auditAll(const char *component) const;

  private:
    std::uint8_t &
    at(std::uint32_t set, std::uint32_t way)
    {
        return rrpv_[static_cast<std::size_t>(set) * ways_ + way];
    }

    std::uint8_t max_;
    std::uint32_t sets_ = 0;
    std::uint32_t ways_ = 0;
    std::vector<std::uint8_t> rrpv_;
    FillHistogram hist_;
};

} // namespace gllc

#endif // GLLC_CACHE_RRIP_HH
