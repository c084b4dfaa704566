/**
 * @file
 * Static re-reference interval prediction (SRRIP) [Jaleel+, ISCA'10].
 *
 * Every fill is inserted at the distant RRPV (2^n - 2); hits promote
 * to zero.  The GSPC sample sets run exactly this policy (Table 2).
 */

#ifndef GLLC_CACHE_POLICY_SRRIP_HH
#define GLLC_CACHE_POLICY_SRRIP_HH

#include <cstdint>

#include "cache/rrip.hh"

namespace gllc
{

class SrripPolicy final : public ReplacementPolicy
{
  public:
    /** @param bits RRPV width (2 in the paper's baseline). */
    explicit SrripPolicy(unsigned bits = 2);

    void configure(std::uint32_t sets, std::uint32_t ways) override;

    std::uint32_t
    selectVictim(std::uint32_t set) override
    {
        return rrip_.selectVictim(set);
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const AccessInfo &info) override
    {
        rrip_.fill(set, way, rrip_.distantRrpv(), info.pstream());
    }

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const AccessInfo &) override
    {
        rrip_.set(set, way, 0);
    }

    const FillHistogram *fillHistogram() const override;
    std::string name() const override;

    int
    decisionRrpv(std::uint32_t set, std::uint32_t way) const override
    {
        return static_cast<int>(rrip_.get(set, way));
    }

    static PolicyFactory factory(unsigned bits = 2);

  private:
    unsigned bits_;
    RripState rrip_;
};

} // namespace gllc

#endif // GLLC_CACHE_POLICY_SRRIP_HH
