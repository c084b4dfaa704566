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
    rrpv_.assign(static_cast<std::size_t>(sets) * ways, max_);
}

std::uint32_t
RripState::selectVictim(std::uint32_t set)
{
    // A corrupted RRPV above the policy width would make the aging
    // loop spin through a uint8 wrap-around before terminating;
    // audit the set before trusting it.
    auditSet(set, "RripState");

    std::uint8_t *row = &rrpv_[static_cast<std::size_t>(set) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (row[w] == max_) {
            if (auditActive()) {
                // Exactly-one-way selection: the victim is the
                // lowest-numbered way at max RRPV (Section 1).
                for (std::uint32_t lo = 0; lo < w; ++lo) {
                    GLLC_AUDIT_CHECK(
                        "RripState", "victim-tie-break",
                        row[lo] != max_,
                        "way %u at max rrpv below chosen victim "
                        "way %u", lo, w);
                }
            }
            return w;
        }
    }

    // No way at max: unit-step aging would raise every way until the
    // highest reaches max, so add that gap in one pass.  The victim
    // is the lowest way that was at the top.
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (row[w] > row[victim])
            victim = w;
    }
    const std::uint8_t gap = max_ - row[victim];
    for (std::uint32_t w = 0; w < ways_; ++w)
        row[w] += gap;
    return victim;
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
