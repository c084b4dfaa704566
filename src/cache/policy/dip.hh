/**
 * @file
 * Dynamic insertion policy (DIP) [Qureshi+, ISCA'07].
 *
 * Cited in Section 1.1.1: set dueling chooses between MRU insertion
 * (plain LRU) and bimodal insertion (BIP: insert at the LRU position
 * except 1/32 of the time), eliminating single-use blocks early.
 * Included as an extra baseline for the policy lineup.
 */

#ifndef GLLC_CACHE_POLICY_DIP_HH
#define GLLC_CACHE_POLICY_DIP_HH

#include <cstdint>
#include <vector>

#include "cache/policy/drrip.hh"
#include "cache/replacement.hh"
#include "common/sat_counter.hh"

namespace gllc
{

class DipPolicy final : public ReplacementPolicy
{
  public:
    DipPolicy();

    void configure(std::uint32_t sets, std::uint32_t ways) override;
    std::uint32_t selectVictim(std::uint32_t set) override;
    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &info) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    std::string name() const override { return "DIP"; }

    static PolicyFactory factory();

  private:
    /** Assign the MRU stamp. */
    void touchMru(std::uint32_t set, std::uint32_t way);

    /** Assign a below-LRU stamp (next in line for eviction). */
    void touchLru(std::uint32_t set, std::uint32_t way);

    std::uint32_t ways_ = 0;
    std::uint64_t clock_;
    std::vector<std::uint64_t> stamp_;
    DuelCounter psel_;
    std::uint32_t bipCount_ = 0;
};

} // namespace gllc

#endif // GLLC_CACHE_POLICY_DIP_HH
