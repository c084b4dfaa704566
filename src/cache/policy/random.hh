/**
 * @file
 * Random replacement — a sanity baseline for tests and ablations.
 */

#ifndef GLLC_CACHE_POLICY_RANDOM_HH
#define GLLC_CACHE_POLICY_RANDOM_HH

#include <cstdint>

#include "cache/replacement.hh"
#include "common/rng.hh"

namespace gllc
{

class RandomPolicy final : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed = 1);

    void configure(std::uint32_t sets, std::uint32_t ways) override;
    std::uint32_t selectVictim(std::uint32_t set) override;
    void onFill(std::uint32_t, std::uint32_t,
                const AccessInfo &) override {}
    void onHit(std::uint32_t, std::uint32_t, const AccessInfo &) override
    {}
    std::string name() const override { return "Random"; }

    static PolicyFactory factory(std::uint64_t seed = 1);

  private:
    std::uint32_t ways_ = 0;
    Rng rng_;
};

} // namespace gllc

#endif // GLLC_CACHE_POLICY_RANDOM_HH
