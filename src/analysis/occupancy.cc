#include "analysis/occupancy.hh"

#include "analysis/policy_types.hh"
#include "common/logging.hh"

namespace gllc
{

namespace
{

/** Observer maintaining per-stream resident block counts. */
class OccupancyObserver
{
  public:
    /** @param frames the observed LLC's geometry().totalBlocks() */
    explicit OccupancyObserver(std::size_t frames) : owner_(frames) {}

    void
    onMissAt(const MemAccess &access, std::size_t frame)
    {
        // The cache will fill this frame.
        owner_[frame] = access.stream;
        ++counts_[static_cast<std::size_t>(access.stream)];
    }

    void
    onHitAt(const MemAccess &access, std::size_t frame)
    {
        // Ownership follows use: a texture hit to a render target
        // re-attributes the block (dynamic texturing).
        StreamType &owner = owner_[frame];
        if (owner == access.stream)
            return;
        --counts_[static_cast<std::size_t>(owner)];
        owner = access.stream;
        ++counts_[static_cast<std::size_t>(owner)];
    }

    void onBypass(const MemAccess &) {}

    void
    onEvictAt(Addr, std::size_t frame)
    {
        --counts_[static_cast<std::size_t>(owner_[frame])];
    }

    const std::array<std::uint32_t, kNumStreams> &
    counts() const
    {
        return counts_;
    }

  private:
    /** Owning stream of each frame's resident block. */
    std::vector<StreamType> owner_;
    std::array<std::uint32_t, kNumStreams> counts_{};
};

} // namespace

std::vector<OccupancySample>
trackOccupancy(const FrameTrace &trace, const PolicySpec &spec,
               const LlcConfig &llc_config,
               std::uint32_t sample_count)
{
    GLLC_ASSERT(sample_count >= 1);

    LlcConfig config = llc_config;
    if (spec.uncachedDisplay)
        config.uncachedDisplay = true;
    BankedLlc llc(config, spec.factory);

    OccupancyObserver observer(llc.geometry().totalBlocks());

    const std::uint64_t period = std::max<std::uint64_t>(
        1, trace.accesses.size() / sample_count);

    std::vector<OccupancySample> samples;
    withPolicyClass(llc, [&](auto policy_class) {
        using Policy = typename decltype(policy_class)::type;
        std::vector<std::uint64_t> next_use;
        if constexpr (Policy::kNeedsOracle)
            next_use = buildNextUseOracle(trace.accesses);

        for (std::size_t i = 0; i < trace.accesses.size(); ++i) {
            llc.access<Policy>(
                trace.accesses[i], i,
                Policy::kNeedsOracle ? next_use[i] : kNever, observer);
            const bool last = (i + 1 == trace.accesses.size());
            if (((i + 1) % period == 0
                 && samples.size() + 1 < sample_count)
                || last) {
                OccupancySample s;
                s.accessIndex = i + 1;
                s.blocks = observer.counts();
                samples.push_back(s);
            }
        }
    });
    return samples;
}

} // namespace gllc
