/**
 * @file
 * SHiP-mem: memory-region signature-based hit prediction
 * [Wu+, MICRO'11], as configured in Section 5.1 of the paper.
 *
 * The physical address space is divided into contiguous 16 KB
 * regions; a 14-bit region id (address bits [27:14]) indexes a
 * 16K-entry table of 3-bit saturating counters per LLC bank.  A hit
 * to a block increments its region counter once per residency; an
 * eviction without reuse decrements it.  Fills insert at RRPV 3 when
 * the region counter is zero, else at RRPV 2.
 */

#ifndef GLLC_CACHE_POLICY_SHIP_MEM_HH
#define GLLC_CACHE_POLICY_SHIP_MEM_HH

#include <cstdint>
#include <vector>

#include "cache/rrip.hh"
#include "common/sat_counter.hh"

namespace gllc
{

class ShipMemPolicy final : public ReplacementPolicy
{
  public:
    explicit ShipMemPolicy(unsigned bits = 2);

    void configure(std::uint32_t sets, std::uint32_t ways) override;

    std::uint32_t
    selectVictim(std::uint32_t set) override
    {
        return rrip_.selectVictim(set);
    }

    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &info) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    void onEvict(std::uint32_t set, std::uint32_t way) override;
    const FillHistogram *fillHistogram() const override;
    std::string name() const override { return "SHiP-mem"; }

    /**
     * Audit hook: RRPV ranges, per-block signatures within 14 bits,
     * the touched blocks' table counters within 3 bits.
     */
    void auditInvariants(std::uint32_t set) const override;

    /**
     * Metrics hook: dead/live fill split, reused/dead eviction
     * split, and the final signature-table counter distribution.
     */
    void flushMetrics(const std::string &prefix) const override;

    int
    decisionRrpv(std::uint32_t set, std::uint32_t way) const override
    {
        return static_cast<int>(rrip_.get(set, way));
    }

    /**
     * Test-only: overwrite a block's raw region signature, bypassing
     * signatureOf(), so the audit's range checks can be exercised.
     */
    void
    debugForceSignature(std::uint32_t set, std::uint32_t way,
                        std::uint16_t signature)
    {
        block(set, way).signature = signature;
    }

    static PolicyFactory factory(unsigned bits = 2);

    /** Region signature: address bits [27:14]. */
    static std::uint32_t
    signatureOf(Addr addr)
    {
        return static_cast<std::uint32_t>((addr >> 14) & 0x3fffu);
    }

  private:
    static constexpr std::size_t kTableEntries = 16 * 1024;

    struct BlockState
    {
        std::uint16_t signature = 0;
        bool outcome = false;  ///< re-referenced during residency
    };

    BlockState &
    block(std::uint32_t set, std::uint32_t way)
    {
        return blocks_[static_cast<std::size_t>(set) * ways_ + way];
    }

    RripState rrip_;
    std::uint32_t ways_ = 0;
    std::vector<BlockState> blocks_;
    std::vector<SatCounter> table_;

    /** Prediction telemetry, maintained only while metricsActive(). */
    bool metrics_ = false;
    std::uint64_t fillsDead_ = 0;    ///< inserted at maxRrpv
    std::uint64_t fillsLive_ = 0;    ///< inserted at distantRrpv
    std::uint64_t evictsReused_ = 0;
    std::uint64_t evictsDead_ = 0;
};

inline void
ShipMemPolicy::onFill(std::uint32_t set, std::uint32_t way,
                      const AccessInfo &info)
{
    const std::uint32_t sig = signatureOf(info.access->addr);
    BlockState &b = block(set, way);
    b.signature = static_cast<std::uint16_t>(sig);
    b.outcome = false;

    const bool dead = (table_[sig].value() == 0);
    const std::uint8_t rrpv =
        dead ? rrip_.maxRrpv() : rrip_.distantRrpv();
    rrip_.fill(set, way, rrpv, info.pstream());
    if (metrics_) {
        if (dead)
            ++fillsDead_;
        else
            ++fillsLive_;
    }
}

inline void
ShipMemPolicy::onHit(std::uint32_t set, std::uint32_t way,
                     const AccessInfo &)
{
    BlockState &b = block(set, way);
    if (!b.outcome) {
        b.outcome = true;
        table_[b.signature].increment();
    }
    rrip_.set(set, way, 0);
}

inline void
ShipMemPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    BlockState &b = block(set, way);
    if (!b.outcome)
        table_[b.signature].decrement();
    if (metrics_) {
        if (b.outcome)
            ++evictsReused_;
        else
            ++evictsDead_;
    }
}

} // namespace gllc

#endif // GLLC_CACHE_POLICY_SHIP_MEM_HH
