#include "cache/policy/drrip.hh"

#include "common/audit.hh"
#include "common/metrics.hh"

namespace gllc
{

void
DuelStats::recordFill(DuelRole role, bool used_brrip,
                      const DuelCounter &psel)
{
    switch (role) {
      case DuelRole::SrripLeader:
        ++srripLeaderMisses;
        break;
      case DuelRole::BrripLeader:
        ++brripLeaderMisses;
        break;
      default:
        if (used_brrip)
            ++followerBrripFills;
        else
            ++followerSrripFills;
        break;
    }
    const std::size_t bucket =
        static_cast<std::size_t>(psel.value()) * kTrackBuckets
        / (static_cast<std::size_t>(psel.max()) + 1);
    ++pselTrack[bucket];
}

void
DuelStats::flush(const std::string &prefix,
                 const DuelCounter &psel) const
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    if (srripLeaderMisses > 0)
        reg.addCounter(prefix + "srrip_leader_misses",
                       srripLeaderMisses);
    if (brripLeaderMisses > 0)
        reg.addCounter(prefix + "brrip_leader_misses",
                       brripLeaderMisses);
    if (followerSrripFills > 0)
        reg.addCounter(prefix + "follower_srrip_fills",
                       followerSrripFills);
    if (followerBrripFills > 0)
        reg.addCounter(prefix + "follower_brrip_fills",
                       followerBrripFills);
    for (std::size_t b = 0; b < kTrackBuckets; ++b) {
        if (pselTrack[b] > 0)
            reg.recordValue(prefix + "psel_track",
                            static_cast<std::int64_t>(b),
                            pselTrack[b]);
    }
    reg.recordValue(prefix + "psel_final",
                    static_cast<std::int64_t>(psel.value()));
}

void
auditDuelFamilies(unsigned groups, const char *component)
{
    if (!auditActive())
        return;
    // owner[offset] = first (group, family) claiming the offset.
    int owner[64];
    for (int &o : owner)
        o = -1;
    for (unsigned g = 0; g < groups; ++g) {
        unsigned srrip = 0;
        unsigned brrip = 0;
        for (std::uint32_t offset = 0; offset < 64; ++offset) {
            const DuelRole role = duelRole(offset, g);
            if (role == DuelRole::Follower)
                continue;
            const int id = static_cast<int>(2 * g)
                + (role == DuelRole::BrripLeader ? 1 : 0);
            GLLC_AUDIT_CHECK(component, "duel-disjoint",
                             owner[offset] < 0,
                             "set offset %u leads for duel id %d and "
                             "duel id %d; leader families overlap",
                             offset, owner[offset], id);
            owner[offset] = id;
            if (role == DuelRole::SrripLeader)
                ++srrip;
            else
                ++brrip;
        }
        GLLC_AUDIT_CHECK(component, "duel-coverage",
                         srrip == 1 && brrip == 1,
                         "group %u owns %u SRRIP and %u BRRIP leader "
                         "offsets per constituency, expected 1 and 1",
                         g, srrip, brrip);
    }
}

DrripPolicy::DrripPolicy(unsigned bits)
    : bits_(bits), rrip_(bits), psel_(10), metrics_(metricsActive())
{
}

void
DrripPolicy::configure(std::uint32_t sets, std::uint32_t ways)
{
    rrip_.configure(sets, ways);
    auditDuelFamilies(1, "DrripPolicy");
}

void
DrripPolicy::auditInvariants(std::uint32_t set) const
{
    if (!auditActive())
        return;
    rrip_.auditSet(set, "DrripPolicy");
    GLLC_AUDIT_CHECK("DrripPolicy", "psel-range", psel_.inRange(),
                     "PSEL holds %u > max %u", psel_.value(),
                     psel_.max());
    GLLC_AUDIT_CHECK("DrripPolicy", "brrip-throttle",
                     throttle_.count() < 32,
                     "BRRIP throttle count %u escaped its 1/32 period",
                     throttle_.count());
}

const FillHistogram *
DrripPolicy::fillHistogram() const
{
    return &rrip_.histogram();
}

void
DrripPolicy::flushMetrics(const std::string &prefix) const
{
    duel_.flush(prefix + "duel.", psel_);
}

int
DrripPolicy::decisionRrpv(std::uint32_t set, std::uint32_t way) const
{
    return static_cast<int>(rrip_.get(set, way));
}

std::string
DrripPolicy::name() const
{
    return "DRRIP-" + std::to_string(bits_);
}

PolicyFactory
DrripPolicy::factory(unsigned bits)
{
    return [bits] { return std::make_unique<DrripPolicy>(bits); };
}

} // namespace gllc
