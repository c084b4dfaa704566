/**
 * @file
 * Per-bank graphics-stream reuse-probability counters (Section 3).
 *
 * The GSPC family learns stream reuse probabilities from the sample
 * sets with a handful of saturating counters per LLC bank:
 *
 *   FILL(Z), HIT(Z)            8-bit  Z-stream reuse probability
 *   FILL(E,TEX), HIT(E,TEX)    8-bit  texture epoch E in {0, 1}
 *   FILL(TEX), HIT(TEX)        8-bit  aggregate (GSPZTC only)
 *   PROD, CONS                 8-bit  RT production / RT->TEX
 *                                     consumption (GSPC only)
 *   ACC(ALL)                   7-bit  all sample-set accesses
 *
 * Whenever ACC(ALL) saturates, every other counter is halved and ACC
 * resets, giving an exponentially decayed estimate that adapts to
 * phase changes within a frame.
 */

#ifndef GLLC_CORE_STREAM_COUNTERS_HH
#define GLLC_CORE_STREAM_COUNTERS_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/sat_counter.hh"

namespace gllc
{

/** Protection level chosen for a render-target fill (Table 5). */
enum class RtProtection : std::uint8_t
{
    Distant,       ///< consumption probability < 1/16: RRPV 3
    Intermediate,  ///< in [1/16, 1/8): RRPV 2
    Protect,       ///< >= 1/8: RRPV 0
};

/** The counters of one LLC bank. */
class StreamReuseCounters
{
  public:
    /**
     * @param counter_bits width of the FILL/HIT/PROD/CONS counters
     *        (8 in the paper)
     * @param acc_bits width of ACC(ALL) (7 in the paper); halving
     *        happens every 2^acc_bits - 1 sample accesses
     */
    explicit StreamReuseCounters(unsigned counter_bits = 8,
                                 unsigned acc_bits = 7);

    /// @name Sample-set event recording
    /// @{
    void recordZFill() { fillZ_.increment(); }
    void recordZHit() { hitZ_.increment(); }

    /** Aggregate texture fill (GSPZTC); covers RT->TEX conversions. */
    void recordTexFillAgg() { fillTexAgg_.increment(); }
    /** Aggregate texture hit to a non-RT block (GSPZTC). */
    void recordTexHitAgg() { hitTexAgg_.increment(); }

    /** Texture block entered epoch E (fill or RT->TEX conversion). */
    void
    recordTexFillEpoch(unsigned epoch)
    {
        GLLC_ASSERT(epoch < 2);
        fillTexE_[epoch].increment();
    }

    /** Texture hit observed in epoch E. */
    void
    recordTexHitEpoch(unsigned epoch)
    {
        GLLC_ASSERT(epoch < 2);
        hitTexE_[epoch].increment();
    }

    /** Render-target fill into a sample set (PROD). */
    void recordRtProduce() { prod_.increment(); }
    /** Render target consumed by the sampler from the LLC (CONS). */
    void recordRtConsume() { cons_.increment(); }

    /** Any access to a sample set: ACC(ALL)++, halving on saturation. */
    void
    recordAccess()
    {
        acc_.increment();
        if (acc_.saturated()) {
            halveAll();
            acc_.reset();
        }
    }
    /// @}

    /// @name Insertion decisions (non-sample sets)
    /// @{
    /** True when FILL(Z) > t * HIT(Z): insert Z at RRPV 3. */
    bool
    zDistant(std::uint32_t t) const
    {
        return fillZ_.value() > t * hitZ_.value();
    }

    /** True when FILL(TEX) > t * HIT(TEX) (aggregate, GSPZTC). */
    bool
    texDistantAgg(std::uint32_t t) const
    {
        return fillTexAgg_.value() > t * hitTexAgg_.value();
    }

    /** True when FILL(E,TEX) > t * HIT(E,TEX) (TSE/GSPC). */
    bool
    texDistantEpoch(unsigned epoch, std::uint32_t t) const
    {
        GLLC_ASSERT(epoch < 2);
        return fillTexE_[epoch].value() > t * hitTexE_[epoch].value();
    }

    /** RT insertion protection from the PROD/CONS ratio (Table 5). */
    RtProtection
    rtProtection() const
    {
        const std::uint64_t p = prod_.value();
        const std::uint64_t c = cons_.value();
        if (p > 16 * c)
            return RtProtection::Distant;
        if (p > 8 * c)
            return RtProtection::Intermediate;
        return RtProtection::Protect;
    }
    /// @}

    /// @name Sample-window telemetry (metrics layer)
    /// @{
    /** Completed ACC(ALL) sample windows (halvings) so far. */
    std::uint64_t windows() const { return windows_; }

    /**
     * Windows that closed with the PROD/CONS ratio at each RT
     * protection level — the paper's Table-5 decision as a per-
     * window trajectory.
     */
    std::uint64_t
    windowsAt(RtProtection level) const
    {
        return windowRt_[static_cast<std::size_t>(level)];
    }
    /// @}

    /// @name Raw values (tests, introspection)
    /// @{
    std::uint32_t fillZ() const { return fillZ_.value(); }
    std::uint32_t hitZ() const { return hitZ_.value(); }
    std::uint32_t fillTexAgg() const { return fillTexAgg_.value(); }
    std::uint32_t hitTexAgg() const { return hitTexAgg_.value(); }
    std::uint32_t fillTex(unsigned e) const { return fillTexE_[e].value(); }
    std::uint32_t hitTex(unsigned e) const { return hitTexE_[e].value(); }
    std::uint32_t prod() const { return prod_.value(); }
    std::uint32_t cons() const { return cons_.value(); }
    std::uint32_t acc() const { return acc_.value(); }
    /// @}

    /**
     * Audit every counter against its configured width; @p component
     * names the owning policy in the failure report.  No-op unless
     * auditActive().
     */
    void auditInvariants(const char *component) const;

    /**
     * Test-only: overwrite one counter's raw value, bypassing the
     * saturation clamps, so the audit layer's range checks can be
     * exercised.  @p name is one of FILL_Z, HIT_Z, FILL_TEX,
     * HIT_TEX, FILL_TEX_E0, HIT_TEX_E0, FILL_TEX_E1, HIT_TEX_E1,
     * PROD, CONS, ACC; unknown names panic.
     */
    void debugForceCounter(const std::string &name, std::uint32_t value);

  private:
    void halveAll();

    /** Apply @p fn to every (name, counter) pair (auditor, hook). */
    template <typename Self, typename Fn>
    static void forEachCounter(Self &self, Fn &&fn);

    SatCounter fillZ_;
    SatCounter hitZ_;
    SatCounter fillTexAgg_;
    SatCounter hitTexAgg_;
    SatCounter fillTexE_[2];
    SatCounter hitTexE_[2];
    SatCounter prod_;
    SatCounter cons_;
    SatCounter acc_;

    std::uint64_t windows_ = 0;
    std::uint64_t windowRt_[3] = {0, 0, 0};
};

} // namespace gllc

#endif // GLLC_CORE_STREAM_COUNTERS_HH
