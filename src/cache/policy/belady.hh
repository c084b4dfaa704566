/**
 * @file
 * Belady's optimal replacement [Belady, 1966; Mattson+, 1970].
 *
 * Used throughout Section 2 of the paper to bound the opportunity:
 * on every replacement, evict the block whose next reference lies
 * farthest in the future (or never comes).  The future knowledge is
 * supplied as a per-access "next use" index, precomputed from the
 * frame trace by buildNextUseOracle().
 */

#ifndef GLLC_CACHE_POLICY_BELADY_HH
#define GLLC_CACHE_POLICY_BELADY_HH

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"

namespace gllc
{

/**
 * For each access i in the trace, compute the index of the next
 * access to the same 64 B block, or kNever.  One backward pass.
 */
std::vector<std::uint64_t>
buildNextUseOracle(const std::vector<MemAccess> &trace);

class BeladyPolicy final : public ReplacementPolicy
{
  public:
    /** Replay supplies next-use indices (buildNextUseOracle()). */
    static constexpr bool kNeedsOracle = true;

    void configure(std::uint32_t sets, std::uint32_t ways) override;
    std::uint32_t selectVictim(std::uint32_t set) override;
    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &info) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    std::string name() const override { return "Belady"; }

    /**
     * Test-only: overwrite a block's recorded next-use index so the
     * audit's victim checks can be exercised.
     */
    void
    debugForceNextUse(std::uint32_t set, std::uint32_t way,
                      std::uint64_t next_use)
    {
        nextUse_[static_cast<std::size_t>(set) * ways_ + way] = next_use;
    }

    static PolicyFactory factory();

  private:
    std::uint32_t ways_ = 0;
    /** Next-use trace index of the block resident in each frame. */
    std::vector<std::uint64_t> nextUse_;
};

} // namespace gllc

#endif // GLLC_CACHE_POLICY_BELADY_HH
