#include "rcache/texture_hierarchy.hh"

#include "common/logging.hh"

namespace gllc
{

TextureHierarchy::TextureHierarchy(const TextureHierarchyConfig &config)
    : config_(config),
      l3_("TEX-L3", config.l3Blocks, config.l3Ways,
          /*write_allocate=*/false)
{
    GLLC_ASSERT(config.samplers > 0 && config.samplersPerCluster > 0);
    const std::uint32_t clusters =
        (config.samplers + config.samplersPerCluster - 1)
        / config.samplersPerCluster;

    l1_.reserve(config.samplers);
    for (std::uint32_t i = 0; i < config.samplers; ++i) {
        l1_.emplace_back("TEX-L1." + std::to_string(i), config.l1Blocks,
                         config.l1Ways, /*write_allocate=*/false);
        clusterOf_.push_back(i / config.samplersPerCluster);
    }
    l2_.reserve(clusters);
    for (std::uint32_t i = 0; i < clusters; ++i) {
        l2_.emplace_back("TEX-L2." + std::to_string(i), config.l2Blocks,
                         config.l2Ways, /*write_allocate=*/false);
    }
}

void
TextureHierarchy::invalidate()
{
    // Read-only levels hold no dirty data, so a flush discards
    // everything without traffic.
    std::vector<MemAccess> sink;
    for (SmallCache &c : l1_)
        c.flush(0, sink);
    for (SmallCache &c : l2_)
        c.flush(0, sink);
    l3_.flush(0, sink);
    GLLC_ASSERT(sink.empty());
}

const SmallCacheStats &
TextureHierarchy::l1Stats(std::uint32_t sampler) const
{
    GLLC_ASSERT(sampler < l1_.size());
    return l1_[sampler].stats();
}

const SmallCacheStats &
TextureHierarchy::l2Stats(std::uint32_t cluster) const
{
    GLLC_ASSERT(cluster < l2_.size());
    return l2_[cluster].stats();
}

std::vector<const SmallCache *>
TextureHierarchy::caches() const
{
    std::vector<const SmallCache *> all;
    for (const SmallCache &c : l1_)
        all.push_back(&c);
    for (const SmallCache &c : l2_)
        all.push_back(&c);
    all.push_back(&l3_);
    return all;
}

} // namespace gllc
