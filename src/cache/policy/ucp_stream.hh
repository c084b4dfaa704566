/**
 * @file
 * Utility-based cache partitioning by graphics stream (UCP)
 * [Qureshi & Patt, MICRO'06], applied to the four policy streams.
 *
 * Section 1.1.1 argues that explicit partitioning "cannot be applied
 * directly to the 3D graphics streams, which have significant
 * inter-stream data sharing"; this implementation exists to test
 * that argument (see bench/ext_partitioning).  Each stream owns a
 * UMON: an auxiliary tag directory over the sample sets recording
 * LRU stack-position hit counts.  Every repartition period, a greedy
 * lookahead allocation assigns ways to streams by marginal utility;
 * replacement is LRU constrained to evict from streams that exceed
 * their allocation.
 */

#ifndef GLLC_CACHE_POLICY_UCP_STREAM_HH
#define GLLC_CACHE_POLICY_UCP_STREAM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cache/replacement.hh"

namespace gllc
{

class UcpStreamPolicy final : public ReplacementPolicy
{
  public:
    /** @param repartition_period accesses between reallocations */
    explicit UcpStreamPolicy(std::uint32_t repartition_period = 65536);

    void configure(std::uint32_t sets, std::uint32_t ways) override;
    std::uint32_t selectVictim(std::uint32_t set) override;
    void onFill(std::uint32_t set, std::uint32_t way,
                const AccessInfo &info) override;
    void onHit(std::uint32_t set, std::uint32_t way,
               const AccessInfo &info) override;
    void onEvict(std::uint32_t set, std::uint32_t way) override;
    std::string name() const override { return "UCP-stream"; }

    static PolicyFactory factory();

    /** Current way allocation per policy stream (introspection). */
    const std::array<std::uint32_t, kNumPolicyStreams> &
    allocation() const
    {
        return allocation_;
    }

  private:
    /** Auxiliary tag directory of one stream over the sample sets. */
    struct Umon
    {
        /** LRU-ordered tags per monitored set (most recent first). */
        std::vector<std::vector<Addr>> sets;

        /** Hits at each stack position. */
        std::vector<std::uint64_t> positionHits;

        /** Record an access; @return true on ATD hit. */
        void access(std::uint32_t sample_index, Addr tag,
                    std::uint32_t ways);

        void halve();
    };

    void repartition();

    /** Marginal utility of giving @p stream ways (a, b]. */
    std::uint64_t utility(const Umon &umon, std::uint32_t from,
                          std::uint32_t to) const;

    std::uint32_t ways_ = 0;
    std::uint32_t period_;
    std::uint64_t accesses_ = 0;

    /** Stream owning each block frame. */
    std::vector<std::uint8_t> owner_;
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 0;

    /** sample-set index per set, or -1. */
    std::vector<std::int32_t> sampleIndex_;

    std::array<Umon, kNumPolicyStreams> umon_;
    std::array<std::uint32_t, kNumPolicyStreams> allocation_{};
};

} // namespace gllc

#endif // GLLC_CACHE_POLICY_UCP_STREAM_HH
