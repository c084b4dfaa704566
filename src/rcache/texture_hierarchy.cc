#include "rcache/texture_hierarchy.hh"

#include "common/logging.hh"

namespace gllc
{

TextureHierarchy::TextureHierarchy(const TextureHierarchyConfig &config)
    : config_(config)
{
    GLLC_ASSERT(config.samplers > 0 && config.samplersPerCluster > 0);
    const std::uint32_t clusters =
        (config.samplers + config.samplersPerCluster - 1)
        / config.samplersPerCluster;

    for (std::uint32_t i = 0; i < config.samplers; ++i) {
        l1_.push_back(std::make_unique<SmallCache>(
            "TEX-L1." + std::to_string(i), config.l1Blocks,
            config.l1Ways, /*write_allocate=*/false));
    }
    for (std::uint32_t i = 0; i < clusters; ++i) {
        l2_.push_back(std::make_unique<SmallCache>(
            "TEX-L2." + std::to_string(i), config.l2Blocks,
            config.l2Ways, /*write_allocate=*/false));
    }
    l3_ = std::make_unique<SmallCache>("TEX-L3", config.l3Blocks,
                                       config.l3Ways,
                                       /*write_allocate=*/false);
}

int
TextureHierarchy::read(Addr addr, std::uint32_t sampler,
                       std::uint32_t cycle, std::vector<MemAccess> &out)
{
    GLLC_ASSERT(sampler < config_.samplers);
    scratch_.clear();

    if (l1_[sampler]->access(addr, false, StreamType::Texture, cycle,
                             scratch_)) {
        return 1;
    }

    const std::uint32_t cluster = sampler / config_.samplersPerCluster;
    scratch_.clear();
    if (l2_[cluster]->access(addr, false, StreamType::Texture, cycle,
                             scratch_)) {
        return 2;
    }

    scratch_.clear();
    if (l3_->access(addr, false, StreamType::Texture, cycle, scratch_))
        return 3;

    out.emplace_back(blockAlign(addr), StreamType::Texture, false,
                     cycle);
    return 4;
}

void
TextureHierarchy::invalidate()
{
    // Read-only levels hold no dirty data, so a flush discards
    // everything without traffic.
    std::vector<MemAccess> sink;
    for (auto &c : l1_)
        c->flush(0, sink);
    for (auto &c : l2_)
        c->flush(0, sink);
    l3_->flush(0, sink);
    GLLC_ASSERT(sink.empty());
}

const SmallCacheStats &
TextureHierarchy::l1Stats(std::uint32_t sampler) const
{
    GLLC_ASSERT(sampler < l1_.size());
    return l1_[sampler]->stats();
}

const SmallCacheStats &
TextureHierarchy::l2Stats(std::uint32_t cluster) const
{
    GLLC_ASSERT(cluster < l2_.size());
    return l2_[cluster]->stats();
}

std::vector<const SmallCache *>
TextureHierarchy::caches() const
{
    std::vector<const SmallCache *> all;
    for (const auto &c : l1_)
        all.push_back(c.get());
    for (const auto &c : l2_)
        all.push_back(c.get());
    all.push_back(l3_.get());
    return all;
}

} // namespace gllc
