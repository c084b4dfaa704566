/**
 * @file
 * Single-bit not-recently-used replacement (Figure 1 baseline).
 *
 * Each block has one reference bit, set on fill and on hit.  The
 * victim is the lowest-numbered way with a clear bit; when every bit
 * in the set is set, all bits are cleared first.
 */

#ifndef GLLC_CACHE_POLICY_NRU_HH
#define GLLC_CACHE_POLICY_NRU_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "cache/replacement.hh"
#include "common/byte_scan.hh"

namespace gllc
{

class NruPolicy final : public ReplacementPolicy
{
  public:
    void configure(std::uint32_t sets, std::uint32_t ways) override;

    /** One vector compare finds the first clear bit. */
    std::uint32_t
    selectVictim(std::uint32_t set) override
    {
        std::uint8_t *row = &referenced_[index(set, 0)];
        const std::uint32_t victim = firstByteEqual(row, ways_, 0);
        if (victim != ways_)
            return victim;
        std::memset(row, 0, ways_);
        return 0;
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const AccessInfo &) override
    {
        referenced_[index(set, way)] = 1;
    }

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const AccessInfo &) override
    {
        referenced_[index(set, way)] = 1;
    }

    std::string name() const override { return "NRU"; }

    /** Reference bit of (set, way) (tests/introspection). */
    bool
    referenced(std::uint32_t set, std::uint32_t way) const
    {
        return referenced_[index(set, way)] != 0;
    }

    static PolicyFactory factory();

  private:
    std::size_t
    index(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }

    std::uint32_t ways_ = 0;

    /** One byte per frame, plus slack for the victim scan. */
    std::vector<std::uint8_t> referenced_;
};

} // namespace gllc

#endif // GLLC_CACHE_POLICY_NRU_HH
