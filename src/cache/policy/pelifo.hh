/**
 * @file
 * Pseudo-LIFO: probabilistic escape LIFO [Chaudhuri, MICRO'09] —
 * the paper's reference [5], "a light-weight dead block prediction
 * technique that ... relies only on the fill order of the cache
 * blocks within a cache set".
 *
 * Simplified implementation (documented approximation): each set is
 * viewed as a fill stack (position 0 = most recently filled).  A
 * global histogram learns at which stack positions hits still occur;
 * the deepest position that still collects a meaningful share of
 * hits is the *escape point*.  Victims are taken from just below
 * the escape point — near the top of the fill stack — so the deep,
 * proven-useful bottom of the stack survives streaming/thrashing
 * traffic (the hallmark LIFO behaviour).
 */

#ifndef GLLC_CACHE_POLICY_PELIFO_HH
#define GLLC_CACHE_POLICY_PELIFO_HH

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"

namespace gllc
{

class PeLifoPolicy final : public ReplacementPolicy
{
  public:
    PeLifoPolicy();

    void configure(std::uint32_t sets, std::uint32_t ways) override;
    std::uint32_t selectVictim(std::uint32_t set) override;
    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &info) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    std::string name() const override { return "peLIFO"; }

    static PolicyFactory factory();

    /** Current escape point (deepest hit-carrying position). */
    std::uint32_t escapePoint() const;

    /** Fill-stack position of a way: 0 = most recently filled. */
    std::uint32_t stackPosition(std::uint32_t set,
                                std::uint32_t way) const;

  private:
    std::uint32_t ways_ = 0;
    std::uint64_t fillClock_ = 0;

    /** Per-block fill sequence number (higher = newer). */
    std::vector<std::uint64_t> fillSeq_;

    /** Hits observed at each fill-stack position. */
    std::vector<std::uint64_t> positionHits_;
    std::uint64_t totalHits_ = 0;
};

} // namespace gllc

#endif // GLLC_CACHE_POLICY_PELIFO_HH
