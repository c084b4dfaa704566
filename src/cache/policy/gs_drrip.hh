/**
 * @file
 * Graphics stream-aware DRRIP (GS-DRRIP), the paper's adaptation of
 * thread-aware DRRIP [Jaleel+, PACT'08] to the four graphics streams.
 *
 * Each policy stream (Z, TEX, RT, Rest) duels independently: it has
 * its own pair of leader-set families and its own PSEL counter, so a
 * stream can choose SRRIP-style insertion while another chooses
 * BRRIP-style.  An access only votes in a leader set of its own
 * stream; in every other set it follows its stream's PSEL.
 */

#ifndef GLLC_CACHE_POLICY_GS_DRRIP_HH
#define GLLC_CACHE_POLICY_GS_DRRIP_HH

#include <array>
#include <cstdint>

#include "cache/policy/drrip.hh"
#include "cache/rrip.hh"

namespace gllc
{

class GsDrripPolicy final : public ReplacementPolicy
{
  public:
    explicit GsDrripPolicy(unsigned bits = 2);

    void configure(std::uint32_t sets, std::uint32_t ways) override;

    std::uint32_t
    selectVictim(std::uint32_t set) override
    {
        return rrip_.selectVictim(set);
    }

    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &info) override;

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const AccessInfo &) override
    {
        rrip_.set(set, way, 0);
    }

    const FillHistogram *fillHistogram() const override;
    std::string name() const override;

    /** Audit hook: RRPV ranges, per-stream PSEL ranges, throttles. */
    void auditInvariants(std::uint32_t set) const override;

    /** Metrics hook: per-stream duel fills + PSEL trajectories. */
    void flushMetrics(const std::string &prefix) const override;

    int decisionRrpv(std::uint32_t set,
                     std::uint32_t way) const override;

    /** Test-only: one stream's mutable PSEL (corruption tests). */
    DuelCounter &
    debugPsel(PolicyStream stream)
    {
        return psel_[static_cast<std::size_t>(stream)];
    }

    static PolicyFactory factory(unsigned bits = 2);

  private:
    unsigned bits_;
    RripState rrip_;
    std::array<BrripThrottle, kNumPolicyStreams> throttle_;
    std::array<DuelCounter, kNumPolicyStreams> psel_;
    bool metrics_;
    std::array<DuelStats, kNumPolicyStreams> duel_;
};

inline void
GsDrripPolicy::onFill(std::uint32_t set, std::uint32_t way,
                      const AccessInfo &info)
{
    const auto stream = static_cast<std::size_t>(info.pstream());
    const DuelRole role = duelRole(set, static_cast<unsigned>(stream));

    bool use_brrip;
    switch (role) {
      case DuelRole::SrripLeader:
        psel_[stream].up();
        use_brrip = false;
        break;
      case DuelRole::BrripLeader:
        psel_[stream].down();
        use_brrip = true;
        break;
      default:
        use_brrip = psel_[stream].upperHalf();
        break;
    }

    const std::uint8_t rrpv = use_brrip
        ? throttle_[stream].insertionRrpv(rrip_)
        : rrip_.distantRrpv();
    rrip_.fill(set, way, rrpv, info.pstream());
    if (metrics_)
        duel_[stream].recordFill(role, use_brrip, psel_[stream]);
}

} // namespace gllc

#endif // GLLC_CACHE_POLICY_GS_DRRIP_HH
