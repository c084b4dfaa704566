/**
 * @file
 * Dynamic re-reference interval prediction (DRRIP) [Jaleel+, ISCA'10]
 * — the paper's baseline policy.
 *
 * Set-dueling chooses between SRRIP insertion (RRPV 2^n - 2) and
 * BRRIP insertion (RRPV 2^n - 1, with a 1/32 long-interval throttle).
 * One group of leader sets always inserts SRRIP-style, another always
 * BRRIP-style; a PSEL counter counts their misses and follower sets
 * copy the winner.
 */

#ifndef GLLC_CACHE_POLICY_DRRIP_HH
#define GLLC_CACHE_POLICY_DRRIP_HH

#include <array>
#include <cstdint>

#include "cache/rrip.hh"
#include "common/sat_counter.hh"

namespace gllc
{

/** Leader-set classification shared by DRRIP and GS-DRRIP. */
enum class DuelRole : std::uint8_t
{
    SrripLeader,
    BrripLeader,
    Follower,
};

/**
 * Leader-set mapping: within each 64-set constituency, set offset
 * `2 * group` leads SRRIP and offset `2 * group + 33` leads BRRIP for
 * dueling group `group` (DRRIP uses one group; GS-DRRIP one per
 * stream).  The +33 skew keeps the two leader families apart.
 */
inline DuelRole
duelRole(std::uint32_t set, unsigned group)
{
    const std::uint32_t offset = set & 63u;
    if (offset == 2u * group)
        return DuelRole::SrripLeader;
    if (offset == (2u * group + 33u) % 64u)
        return DuelRole::BrripLeader;
    return DuelRole::Follower;
}

/**
 * Audit the leader-set families of @p groups dueling groups: within
 * each 64-set constituency every group must own exactly one SRRIP
 * and one BRRIP leader offset, and no offset may lead for two
 * different (group, family) pairs — the sample families must be
 * disjoint or the duels would vote on each other's fills.  No-op
 * unless auditActive().
 */
void auditDuelFamilies(unsigned groups, const char *component);

/** Shared BRRIP insertion throttle: distant 1 time in 32. */
class BrripThrottle
{
  public:
    /** RRPV to use for the next BRRIP-style insertion. */
    std::uint8_t
    insertionRrpv(const RripState &rrip)
    {
        if (++count_ >= 32) {
            count_ = 0;
            return rrip.distantRrpv();
        }
        return rrip.maxRrpv();
    }

    /** Fills since the last distant insertion (audit: always < 32). */
    std::uint32_t count() const { return count_; }

  private:
    std::uint32_t count_ = 0;
};

/**
 * Set-dueling telemetry shared by DRRIP and GS-DRRIP: per-role fill
 * counters and a 16-bucket trajectory of where the PSEL counter sat
 * at each fill.  Maintained only while metricsActive().
 */
struct DuelStats
{
    static constexpr std::size_t kTrackBuckets = 16;

    std::uint64_t srripLeaderMisses = 0;
    std::uint64_t brripLeaderMisses = 0;
    std::uint64_t followerSrripFills = 0;
    std::uint64_t followerBrripFills = 0;

    /** Fills observed with PSEL in each sixteenth of its range. */
    std::array<std::uint64_t, kTrackBuckets> pselTrack{};

    /** Record one fill made under @p role with PSEL at @p psel. */
    void recordFill(DuelRole role, bool used_brrip,
                    const DuelCounter &psel);

    /** Publish under prefix ("...duel."): counters + trajectory. */
    void flush(const std::string &prefix,
               const DuelCounter &psel) const;
};

class DrripPolicy final : public ReplacementPolicy
{
  public:
    /** @param bits RRPV width (2 baseline, 4 in Figure 14). */
    explicit DrripPolicy(unsigned bits = 2);

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

    /** Audit hook: RRPV ranges, PSEL range, throttle period. */
    void auditInvariants(std::uint32_t set) const override;

    /** Metrics hook: duel-role fills + PSEL trajectory. */
    void flushMetrics(const std::string &prefix) const override;

    int decisionRrpv(std::uint32_t set,
                     std::uint32_t way) const override;

    /** Test-only: the mutable PSEL counter (corruption tests). */
    DuelCounter &debugPsel() { return psel_; }

    static PolicyFactory factory(unsigned bits = 2);

  private:
    unsigned bits_;
    RripState rrip_;
    BrripThrottle throttle_;
    DuelCounter psel_;
    bool metrics_;
    DuelStats duel_;
};

inline void
DrripPolicy::onFill(std::uint32_t set, std::uint32_t way,
                    const AccessInfo &info)
{
    // A fill is a miss: leader-set misses steer the PSEL duel.  A
    // miss in an SRRIP leader votes against SRRIP (psel up) and vice
    // versa; followers copy whichever family has fewer misses.
    const DuelRole role = duelRole(set, 0);
    bool use_brrip;
    switch (role) {
      case DuelRole::SrripLeader:
        psel_.up();
        use_brrip = false;
        break;
      case DuelRole::BrripLeader:
        psel_.down();
        use_brrip = true;
        break;
      default:
        use_brrip = psel_.upperHalf();
        break;
    }

    const std::uint8_t rrpv = use_brrip
        ? throttle_.insertionRrpv(rrip_)
        : rrip_.distantRrpv();
    rrip_.fill(set, way, rrpv, info.pstream());
    if (metrics_)
        duel_.recordFill(role, use_brrip, psel_);
}

} // namespace gllc

#endif // GLLC_CACHE_POLICY_DRRIP_HH
