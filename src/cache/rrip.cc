#include "cache/rrip.hh"

#include "common/audit.hh"
#include "common/logging.hh"

namespace gllc
{

RripState::RripState(unsigned bits)
    : max_(static_cast<std::uint8_t>((1u << bits) - 1))
{
    GLLC_ASSERT(bits >= 1 && bits <= 4);
}

void
RripState::configure(std::uint32_t sets, std::uint32_t ways)
{
    sets_ = sets;
    ways_ = ways;
    // Slack past the last row for the victim scan's 16-byte chunks.
    rrpv_.assign(static_cast<std::size_t>(sets) * ways + kByteScanSlack,
                 max_);
}

void
RripState::auditVictim(std::uint32_t set, std::uint32_t victim) const
{
    if (!auditActive())
        return;
    // Exactly-one-way selection: the victim is the lowest-numbered
    // way at max RRPV (Section 1).
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    GLLC_AUDIT_CHECK("RripState", "victim-tie-break",
                     victim < ways_ && rrpv_[base + victim] == max_,
                     "victim way %u of set %u is not at max rrpv",
                     victim, set);
    for (std::uint32_t lo = 0; lo < victim && lo < ways_; ++lo) {
        GLLC_AUDIT_CHECK("RripState", "victim-tie-break",
                         rrpv_[base + lo] != max_,
                         "way %u at max rrpv below chosen victim "
                         "way %u", lo, victim);
    }
}

void
RripState::auditSet(std::uint32_t set, const char *component) const
{
    if (!auditActive())
        return;
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        GLLC_AUDIT_CHECK(component, "rrpv-range",
                         rrpv_[base + w] <= max_,
                         "set %u way %u holds rrpv %u > max %u",
                         set, w, rrpv_[base + w], max_);
    }
}

void
RripState::auditAll(const char *component) const
{
    if (!auditActive())
        return;
    for (std::uint32_t s = 0; s < sets_; ++s)
        auditSet(s, component);
}

} // namespace gllc
