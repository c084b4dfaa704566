/**
 * @file
 * Replacement-policy interface for the banked LLC model.
 *
 * One policy instance manages one LLC bank (GSPC's learning counters
 * are per bank, Section 3).  The cache owns the tag store; policies
 * own whatever per-block replacement state they need, sized in
 * configure().  Invalid ways are always filled first by the cache,
 * so selectVictim() only runs on full sets.
 */

#ifndef GLLC_CACHE_REPLACEMENT_HH
#define GLLC_CACHE_REPLACEMENT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "trace/access.hh"

namespace gllc
{

/** Sentinel next-use index meaning "never referenced again". */
constexpr std::uint64_t kNever = ~static_cast<std::uint64_t>(0);

/**
 * Everything a policy may inspect about the access being serviced.
 *
 * nextUse is only populated when the driving simulator was asked to
 * build a future-knowledge oracle (Belady); online policies must not
 * depend on it.
 */
struct AccessInfo
{
    const MemAccess *access = nullptr;

    /** Global position of this access in the frame trace. */
    std::uint64_t index = 0;

    /** Trace index of the next access to the same block, or kNever. */
    std::uint64_t nextUse = kNever;

    StreamType stream() const { return access->stream; }
    PolicyStream pstream() const { return policyStream(access->stream); }
};

/**
 * Histogram of insertion RRPVs per policy stream, exposed by the
 * RRIP-family policies so Figure 8 (fraction of RT/TEX fills at
 * RRPV=3 under DRRIP) can be reproduced for any of them.
 */
struct FillHistogram
{
    static constexpr unsigned kMaxRrpv = 16;

    std::array<std::array<std::uint64_t, kMaxRrpv>, kNumPolicyStreams>
        counts{};

    void
    record(PolicyStream s, unsigned rrpv)
    {
        ++counts[static_cast<std::size_t>(s)][rrpv];
    }

    std::uint64_t
    fills(PolicyStream s) const
    {
        std::uint64_t total = 0;
        for (const auto c : counts[static_cast<std::size_t>(s)])
            total += c;
        return total;
    }

    std::uint64_t
    fillsAt(PolicyStream s, unsigned rrpv) const
    {
        return counts[static_cast<std::size_t>(s)][rrpv];
    }

    void
    merge(const FillHistogram &other)
    {
        for (std::size_t s = 0; s < kNumPolicyStreams; ++s)
            for (unsigned r = 0; r < kMaxRrpv; ++r)
                counts[s][r] += other.counts[s][r];
    }
};

/**
 * Replacement policy for one cache bank.
 *
 * Every policy class in src/ is declared final and listed in
 * ConcretePolicies (analysis/policy_types.hh): replay then calls its
 * hooks on the concrete class, so the calls bind statically and the
 * header-visible bodies inline.  Classes outside that list work
 * unchanged through the virtual hooks.
 */
class ReplacementPolicy
{
  public:
    /**
     * Compile-time trait: replay must supply AccessInfo::nextUse from
     * the future-knowledge oracle.  A class that needs it hides this
     * with true; only BeladyPolicy does.
     */
    static constexpr bool kNeedsOracle = false;

    virtual ~ReplacementPolicy() = default;

    /** Size internal state for a bank of the given geometry. */
    virtual void configure(std::uint32_t sets, std::uint32_t ways) = 0;

    /** Choose a victim way in a full set. */
    virtual std::uint32_t selectVictim(std::uint32_t set) = 0;

    /** A block was just installed in (set, way). */
    virtual void onFill(std::uint32_t set, std::uint32_t way,
                        const AccessInfo &info) = 0;

    /** The access hit the valid block in (set, way). */
    virtual void onHit(std::uint32_t set, std::uint32_t way,
                       const AccessInfo &info) = 0;

    /** The valid block in (set, way) is about to be evicted. */
    virtual void
    onEvict(std::uint32_t set, std::uint32_t way)
    {
        (void)set;
        (void)way;
    }

    /** Insertion-RRPV histogram, if this policy keeps one. */
    virtual const FillHistogram *fillHistogram() const { return nullptr; }

    /**
     * Consulted on a miss before allocation: returning true makes
     * the access bypass the cache entirely (serviced by DRAM, no
     * fill, no eviction).  Bypass-capable policies (e.g. GSPC+B)
     * override this; the default always allocates, as the paper's
     * LLC does ("a miss in the LLC always fills the requested
     * block").
     */
    virtual bool
    shouldBypass(std::uint32_t set, const AccessInfo &info) const
    {
        (void)set;
        (void)info;
        return false;
    }

    /**
     * True when shouldBypass() can ever return true for this
     * instance as configured.  BankedLlc samples this once per bank
     * at construction so the miss path skips the shouldBypass()
     * virtual call for the (common) policies that never bypass.
     * Must be conservative: a policy returning false here promises
     * shouldBypass() always returns false.
     */
    virtual bool mayBypass() const { return false; }

    /**
     * Audit-layer hook: re-validate this policy's structural
     * invariants for one set (called by BankedLlc after every access
     * it services when auditActive()).  Implementations report
     * violations through GLLC_AUDIT_CHECK / auditFail() and must not
     * mutate any state: an audited run stays bit-identical to an
     * unaudited one.
     */
    virtual void
    auditInvariants(std::uint32_t set) const
    {
        (void)set;
    }

    /**
     * Metrics hook: publish this policy instance's internal counters
     * (PSEL trajectories, signature-table outcomes, epoch-FSM
     * occupancy, ...) into the MetricsRegistry under names starting
     * with @p prefix (e.g. "policy.GSPC.bank0.").  Called once per
     * replay when metricsActive(); never on the access path.
     */
    virtual void
    flushMetrics(const std::string &prefix) const
    {
        (void)prefix;
    }

    /**
     * Decision-log hook: the current RRPV of (set, way), or -1 when
     * this policy keeps no RRPVs.  Read-only; called right after
     * onFill()/onHit() when GLLC_DECISION_TRACE is live.
     */
    virtual int
    decisionRrpv(std::uint32_t set, std::uint32_t way) const
    {
        (void)set;
        (void)way;
        return -1;
    }

    /**
     * Decision-log hook: static name of the Figure-10 epoch state of
     * (set, way) for GSPC-family policies, nullptr otherwise.
     */
    virtual const char *
    decisionState(std::uint32_t set, std::uint32_t way) const
    {
        (void)set;
        (void)way;
        return nullptr;
    }

    virtual std::string name() const = 0;
};

/** Factory producing one policy instance per LLC bank. */
using PolicyFactory =
    std::function<std::unique_ptr<ReplacementPolicy>()>;

} // namespace gllc

#endif // GLLC_CACHE_REPLACEMENT_HH
