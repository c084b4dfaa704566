/**
 * @file
 * Least-recently-used replacement.
 *
 * Four state bits per block at 16 ways, so LRU is the iso-overhead
 * comparison point for GSPC in Figure 14.  Implemented with per-block
 * monotonically increasing timestamps.
 */

#ifndef GLLC_CACHE_POLICY_LRU_HH
#define GLLC_CACHE_POLICY_LRU_HH

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"

namespace gllc
{

class LruPolicy final : public ReplacementPolicy
{
  public:
    void configure(std::uint32_t sets, std::uint32_t ways) override;
    std::uint32_t selectVictim(std::uint32_t set) override;
    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &info) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    std::string name() const override { return "LRU"; }

    static PolicyFactory factory();

  private:
    void touch(std::uint32_t set, std::uint32_t way);

    std::uint32_t ways_ = 0;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamp_;
};

} // namespace gllc

#endif // GLLC_CACHE_POLICY_LRU_HH
