/**
 * @file
 * Graphics stream-aware probabilistic caching — the paper's proposal.
 *
 * Section 3 derives three increasingly capable policies; they share
 * the victim-selection rule (2-bit RRIP), the sample-set learning
 * machinery (Table 2) and the per-block state of Figure 10, so all
 * three are implemented by GspcFamilyPolicy with a Variant switch:
 *
 *  - Variant::Gspztc      Table 3. Probabilistic Z and texture
 *    insertion from aggregate FILL/HIT counters; render targets
 *    always inserted at RRPV 0.
 *  - Variant::GspztcTse   Table 4. Adds texture-sampler epochs
 *    E0/E1/E>=2 in two state bits per block; insertion and promotion
 *    RRPVs for texture come from per-epoch FILL/HIT counters.
 *  - Variant::Gspc        Table 5. Adds dynamic render-target
 *    protection from the PROD/CONS (production/consumption) ratio
 *    with 1/16 and 1/8 thresholds.
 *
 * Block state encoding (Figure 10): 00 = texture epoch E0,
 * 01 = E1, 10 = E>=2, 11 = render target (replaces the RT bit).
 *
 * The threshold parameter t (reuse probability threshold 1/(t+1))
 * defaults to 8, the paper's most robust setting (Figure 11).
 */

#ifndef GLLC_CORE_GSPC_FAMILY_HH
#define GLLC_CORE_GSPC_FAMILY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cache/geometry.hh"
#include "cache/rrip.hh"
#include "common/audit.hh"
#include "core/stream_counters.hh"

namespace gllc
{

/** Which member of the GSPC family a policy instance implements. */
enum class GspcVariant : std::uint8_t
{
    Gspztc,      ///< Table 3
    GspztcTse,   ///< Table 4
    Gspc,        ///< Table 5
};

/** Figure 10 block states. */
enum class BlockState : std::uint8_t
{
    TexE0 = 0b00,
    TexE1 = 0b01,
    TexE2Plus = 0b10,
    RenderTarget = 0b11,
};

/** Human-readable Figure-10 state name ("E0", "E1", "E>=2", "RT"). */
const char *blockStateName(BlockState s);

/**
 * Whether @p from -> @p to is a legal Figure-10 transition for an
 * access of policy stream @p stream.  Fills reset the state (texture
 * epoch E0, or RT for render-target fills) regardless of the
 * previous occupant; hits walk the epoch FSM: RT->E0 on texture
 * consumption, E0->E1->E>=2 (absorbing) on texture hits, any->RT on
 * render-target hits, and no state change for Z/Rest hits.
 */
bool legalBlockTransition(BlockState from, BlockState to,
                          PolicyStream stream, bool is_fill);

/**
 * Audit-layer check of one observed FSM transition; fails the audit
 * with both state names when the transition is illegal.  No-op
 * unless auditActive().
 */
void auditBlockTransition(BlockState from, BlockState to,
                          PolicyStream stream, bool is_fill);

/**
 * Tunable implementation parameters of the GSPC family, exposed for
 * the ablation benches; the defaults are the paper's design point.
 */
struct GspcParams
{
    /** Reuse-probability threshold parameter (Figure 11). */
    std::uint32_t t = 8;

    /** FILL/HIT/PROD/CONS counter width. */
    unsigned counterBits = 8;

    /** ACC(ALL) width: halving period is 2^accBits - 1. */
    unsigned accBits = 7;

    /** One sample set per 2^sampleLog2 sets (paper: 16/1024). */
    unsigned sampleLog2 = 6;

    /**
     * GSPC+B extension: bypass (never allocate) texture and Z fills
     * whose learned reuse probability is below the threshold,
     * instead of inserting them at RRPV 3.  Follows the bypass
     * direction of the authors' exclusive-LLC work cited in §1.1.1;
     * off in the paper's design.
     */
    bool bypassDeadFills = false;
};

class GspcFamilyPolicy final : public ReplacementPolicy
{
  public:
    explicit GspcFamilyPolicy(GspcVariant variant, std::uint32_t t = 8);

    GspcFamilyPolicy(GspcVariant variant, const GspcParams &params);

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
    bool shouldBypass(std::uint32_t set,
                      const AccessInfo &info) const override;
    bool mayBypass() const override { return params_.bypassDeadFills; }
    const FillHistogram *fillHistogram() const override;
    std::string name() const override;

    /** The bank's learning counters (tests/introspection). */
    const StreamReuseCounters &counters() const { return counters_; }

    /** Figure 10 state of a resident block (tests/introspection). */
    BlockState
    blockState(std::uint32_t set, std::uint32_t way) const
    {
        return state_[static_cast<std::size_t>(set) * ways_ + way];
    }

    /** Current RRPV of a block (tests/introspection). */
    std::uint8_t
    rrpvOf(std::uint32_t set, std::uint32_t way) const
    {
        return rrip_.get(set, way);
    }

    /**
     * Audit hook: RRPVs within the 2-bit width, Figure-10 state
     * encodings valid, learning counters within their widths.
     */
    void auditInvariants(std::uint32_t set) const override;

    /**
     * Metrics hook: hits by prior Figure-10 state, RT-protection and
     * texture insertion decisions, RT->TEX conversions, final state
     * occupancy, and per-sample-window PROD/CONS protection levels.
     */
    void flushMetrics(const std::string &prefix) const override;

    int
    decisionRrpv(std::uint32_t set, std::uint32_t way) const override
    {
        return static_cast<int>(rrip_.get(set, way));
    }

    const char *
    decisionState(std::uint32_t set, std::uint32_t way) const override
    {
        return blockStateName(blockState(set, way));
    }

    /**
     * Test-only: overwrite the raw Figure-10 state byte of a block,
     * bypassing the FSM, so the audit layer's encoding checks can be
     * exercised.
     */
    void
    debugSetBlockStateRaw(std::uint32_t set, std::uint32_t way,
                          std::uint8_t raw)
    {
        stateAt(set, way) = static_cast<BlockState>(raw);
    }

    /** Test-only: the mutable learning counters (corruption tests). */
    StreamReuseCounters &debugCounters() { return counters_; }

    static PolicyFactory factory(GspcVariant variant, std::uint32_t t = 8);

    /** Factory with full parameter control (ablations). */
    static PolicyFactory factory(GspcVariant variant,
                                 const GspcParams &params);

  private:
    BlockState &
    stateAt(std::uint32_t set, std::uint32_t way)
    {
        return state_[static_cast<std::size_t>(set) * ways_ + way];
    }

    /** onFill/onHit bodies; the public hooks audit the transition. */
    void onFillImpl(std::uint32_t set, std::uint32_t way,
                    const AccessInfo &info);
    void onHitImpl(std::uint32_t set, std::uint32_t way,
                   const AccessInfo &info);

    /** Insertion RRPV for a texture block entering epoch E0. */
    std::uint8_t texE0Rrpv() const;

    GspcVariant variant_;
    GspcParams params_;
    std::uint32_t t_;
    RripState rrip_;
    StreamReuseCounters counters_;
    std::uint32_t ways_ = 0;
    std::vector<BlockState> state_;

    /** Decision telemetry, maintained only while metricsActive(). */
    bool metrics_ = false;
    std::array<std::uint64_t, 4> stateHits_{};    ///< by prior state
    std::array<std::uint64_t, 3> rtProtFills_{};  ///< by RtProtection
    std::uint64_t texInsertProtect_ = 0;
    std::uint64_t texInsertDistant_ = 0;
    std::uint64_t rtConsume_ = 0;  ///< RT->TEX conversions observed
};

inline std::uint8_t
GspcFamilyPolicy::texE0Rrpv() const
{
    const bool distant = (variant_ == GspcVariant::Gspztc)
        ? counters_.texDistantAgg(t_)
        : counters_.texDistantEpoch(0, t_);
    // Inserting surviving texture blocks at RRPV 2 hurts (Section 3),
    // so the paper's policies use 0 when not condemning them.
    return distant ? rrip_.maxRrpv() : 0;
}

inline void
GspcFamilyPolicy::onFill(std::uint32_t set, std::uint32_t way,
                         const AccessInfo &info)
{
    if (!auditActive()) {
        onFillImpl(set, way, info);
        return;
    }
    const BlockState prev = stateAt(set, way);
    onFillImpl(set, way, info);
    auditBlockTransition(prev, stateAt(set, way), info.pstream(), true);
}

inline void
GspcFamilyPolicy::onFillImpl(std::uint32_t set, std::uint32_t way,
                             const AccessInfo &info)
{
    const bool sample = isSampleSetAt(set, params_.sampleLog2);
    const PolicyStream ps = info.pstream();

    // Default new-block state: a later texture touch would see E0.
    BlockState next_state = BlockState::TexE0;
    std::uint8_t rrpv = rrip_.distantRrpv();  // SRRIP-style default

    if (sample) {
        // Sample sets execute SRRIP for every stream (Table 2) and
        // only learn.
        counters_.recordAccess();
        switch (ps) {
          case PolicyStream::Z:
            counters_.recordZFill();
            break;
          case PolicyStream::Texture:
            counters_.recordTexFillAgg();
            counters_.recordTexFillEpoch(0);
            break;
          case PolicyStream::RenderTarget:
            counters_.recordRtProduce();
            next_state = BlockState::RenderTarget;
            break;
          default:
            break;
        }
        rrip_.fill(set, way, rrpv, ps);
        stateAt(set, way) = next_state;
        return;
    }

    switch (ps) {
      case PolicyStream::Z:
        rrpv = counters_.zDistant(t_) ? rrip_.maxRrpv()
                                      : rrip_.distantRrpv();
        break;
      case PolicyStream::Texture:
        rrpv = texE0Rrpv();
        if (metrics_) {
            if (rrpv == rrip_.maxRrpv())
                ++texInsertDistant_;
            else
                ++texInsertProtect_;
        }
        break;
      case PolicyStream::RenderTarget:
        next_state = BlockState::RenderTarget;
        if (variant_ == GspcVariant::Gspc) {
            const RtProtection level = counters_.rtProtection();
            if (metrics_)
                ++rtProtFills_[static_cast<std::size_t>(level)];
            switch (level) {
              case RtProtection::Distant:
                rrpv = rrip_.maxRrpv();
                break;
              case RtProtection::Intermediate:
                rrpv = rrip_.distantRrpv();
                break;
              case RtProtection::Protect:
                rrpv = 0;
                break;
            }
        } else {
            // GSPZTC/GSPZTC+TSE: maximum protection for render
            // targets to enable RT->TEX reuse through the LLC.
            rrpv = 0;
        }
        break;
      default:
        rrpv = rrip_.distantRrpv();
        break;
    }

    rrip_.fill(set, way, rrpv, ps);
    stateAt(set, way) = next_state;
}

inline void
GspcFamilyPolicy::onHit(std::uint32_t set, std::uint32_t way,
                        const AccessInfo &info)
{
    if (!auditActive()) {
        onHitImpl(set, way, info);
        return;
    }
    const BlockState prev = stateAt(set, way);
    onHitImpl(set, way, info);
    auditBlockTransition(prev, stateAt(set, way), info.pstream(), false);
}

inline void
GspcFamilyPolicy::onHitImpl(std::uint32_t set, std::uint32_t way,
                            const AccessInfo &info)
{
    const bool sample = isSampleSetAt(set, params_.sampleLog2);
    const PolicyStream ps = info.pstream();
    BlockState &state = stateAt(set, way);

    if (metrics_)
        ++stateHits_[static_cast<std::size_t>(state)];

    if (sample)
        counters_.recordAccess();

    if (ps == PolicyStream::Texture) {
        if (state == BlockState::RenderTarget) {
            if (metrics_)
                ++rtConsume_;
            // RT->TEX consumption: the block becomes a texture block
            // and (re)enters epoch E0 (Figure 10).
            if (sample) {
                counters_.recordRtConsume();
                counters_.recordTexFillAgg();
                counters_.recordTexFillEpoch(0);
            }
            state = BlockState::TexE0;
            rrip_.set(set, way, sample ? 0 : texE0Rrpv());
            return;
        }

        if (state == BlockState::TexE0) {
            if (sample) {
                counters_.recordTexHitAgg();
                counters_.recordTexHitEpoch(0);
                counters_.recordTexFillEpoch(1);
            }
            state = BlockState::TexE1;
            std::uint8_t rrpv = 0;
            if (!sample && variant_ != GspcVariant::Gspztc) {
                rrpv = counters_.texDistantEpoch(1, t_) ? rrip_.maxRrpv()
                                                        : 0;
            }
            rrip_.set(set, way, rrpv);
            return;
        }

        if (state == BlockState::TexE1) {
            if (sample) {
                counters_.recordTexHitAgg();
                counters_.recordTexHitEpoch(1);
            }
            state = BlockState::TexE2Plus;
        } else {
            // E>=2 stays E>=2.
            if (sample)
                counters_.recordTexHitAgg();
            state = BlockState::TexE2Plus;
        }
        rrip_.set(set, way, 0);
        return;
    }

    if (ps == PolicyStream::RenderTarget) {
        // RT hit (blending), or the application reuses an existing
        // surface as a new render target: state 11, RRPV 0.
        state = BlockState::RenderTarget;
        rrip_.set(set, way, 0);
        return;
    }

    if (ps == PolicyStream::Z && sample)
        counters_.recordZHit();

    rrip_.set(set, way, 0);
}

inline bool
GspcFamilyPolicy::shouldBypass(std::uint32_t set,
                               const AccessInfo &info) const
{
    if (!params_.bypassDeadFills)
        return false;
    // Sample sets must keep allocating or the counters starve.
    if (isSampleSetAt(set, params_.sampleLog2))
        return false;
    switch (info.pstream()) {
      case PolicyStream::Texture:
        return (variant_ == GspcVariant::Gspztc)
            ? counters_.texDistantAgg(t_)
            : counters_.texDistantEpoch(0, t_);
      case PolicyStream::Z:
        return counters_.zDistant(t_);
      default:
        return false;
    }
}

inline void
GspcFamilyPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    // The RT bit / state is conceptually cleared on eviction; the
    // next fill rewrites it, but reset keeps introspection honest.
    stateAt(set, way) = BlockState::TexE0;
}

} // namespace gllc

#endif // GLLC_CORE_GSPC_FAMILY_HH
