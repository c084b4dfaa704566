#include "cache/policy/gs_drrip.hh"

#include "common/audit.hh"
#include "common/metrics.hh"

namespace gllc
{

GsDrripPolicy::GsDrripPolicy(unsigned bits)
    : bits_(bits), rrip_(bits),
      psel_{DuelCounter(10), DuelCounter(10), DuelCounter(10),
            DuelCounter(10)},
      metrics_(metricsActive())
{
}

void
GsDrripPolicy::configure(std::uint32_t sets, std::uint32_t ways)
{
    rrip_.configure(sets, ways);
    auditDuelFamilies(static_cast<unsigned>(kNumPolicyStreams),
                      "GsDrripPolicy");
}

void
GsDrripPolicy::auditInvariants(std::uint32_t set) const
{
    if (!auditActive())
        return;
    rrip_.auditSet(set, "GsDrripPolicy");
    for (std::size_t s = 0; s < kNumPolicyStreams; ++s) {
        GLLC_AUDIT_CHECK(
            "GsDrripPolicy", "psel-range", psel_[s].inRange(),
            "PSEL[%s] holds %u > max %u",
            policyStreamName(static_cast<PolicyStream>(s)).c_str(),
            psel_[s].value(), psel_[s].max());
        GLLC_AUDIT_CHECK(
            "GsDrripPolicy", "brrip-throttle",
            throttle_[s].count() < 32,
            "BRRIP throttle[%s] count %u escaped its 1/32 period",
            policyStreamName(static_cast<PolicyStream>(s)).c_str(),
            throttle_[s].count());
    }
}

const FillHistogram *
GsDrripPolicy::fillHistogram() const
{
    return &rrip_.histogram();
}

void
GsDrripPolicy::flushMetrics(const std::string &prefix) const
{
    for (std::size_t s = 0; s < kNumPolicyStreams; ++s) {
        duel_[s].flush(prefix + "duel."
                           + policyStreamName(
                               static_cast<PolicyStream>(s))
                           + ".",
                       psel_[s]);
    }
}

int
GsDrripPolicy::decisionRrpv(std::uint32_t set,
                            std::uint32_t way) const
{
    return static_cast<int>(rrip_.get(set, way));
}

std::string
GsDrripPolicy::name() const
{
    return "GS-DRRIP-" + std::to_string(bits_);
}

PolicyFactory
GsDrripPolicy::factory(unsigned bits)
{
    return [bits] { return std::make_unique<GsDrripPolicy>(bits); };
}

} // namespace gllc
