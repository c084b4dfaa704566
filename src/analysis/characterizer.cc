#include "analysis/characterizer.hh"

#include "common/logging.hh"
#include "common/stats.hh"

namespace gllc
{

double
Characterization::texDeathRatio(unsigned k) const
{
    GLLC_ASSERT(k + 1 < kEpochs);
    if (texReach[k] == 0)
        return 0.0;
    return 1.0
        - static_cast<double>(texReach[k + 1])
            / static_cast<double>(texReach[k]);
}

double
Characterization::zDeathRatio(unsigned k) const
{
    GLLC_ASSERT(k + 1 < kEpochs);
    if (zReach[k] == 0)
        return 0.0;
    return 1.0
        - static_cast<double>(zReach[k + 1])
            / static_cast<double>(zReach[k]);
}

double
Characterization::rtConsumptionRate() const
{
    return safeRatio(static_cast<double>(rtConsumptions),
                     static_cast<double>(rtProductions));
}

void
Characterization::merge(const Characterization &other)
{
    interTexHits += other.interTexHits;
    intraTexHits += other.intraTexHits;
    rtProductions += other.rtProductions;
    rtConsumptions += other.rtConsumptions;
    for (unsigned k = 0; k < kEpochs; ++k) {
        texEpochHits[k] += other.texEpochHits[k];
        texReach[k] += other.texReach[k];
        zReach[k] += other.zReach[k];
    }
}

void
Characterizer::startTexLifetime(BlockMeta &meta)
{
    meta.kind = Kind::Texture;
    meta.hits = 0;
    ++stats_.texReach[0];
}

void
Characterizer::startZLifetime(BlockMeta &meta)
{
    meta.kind = Kind::Z;
    meta.hits = 0;
    ++stats_.zReach[0];
}

void
Characterizer::installInto(BlockMeta &meta, const MemAccess &access)
{
    meta = BlockMeta{};
    switch (policyStream(access.stream)) {
      case PolicyStream::Texture:
        startTexLifetime(meta);
        break;
      case PolicyStream::Z:
        startZLifetime(meta);
        break;
      case PolicyStream::RenderTarget:
        meta.rtBit = true;
        ++stats_.rtProductions;
        break;
      default:
        break;
    }
}

void
Characterizer::hitBlock(BlockMeta &meta, PolicyStream ps)
{
    if (ps == PolicyStream::Texture) {
        if (meta.rtBit) {
            // Inter-stream reuse: render target consumed as texture.
            ++stats_.interTexHits;
            ++stats_.rtConsumptions;
            meta.rtBit = false;
            startTexLifetime(meta);
            return;
        }
        if (meta.kind != Kind::Texture) {
            // A texture hit to a block brought in by another stream
            // (rare aliasing): treat as the start of a texture
            // lifetime that immediately enjoys its E0 hit.
            startTexLifetime(meta);
        }
        const unsigned epoch = std::min<unsigned>(
            meta.hits, Characterization::kEpochs - 1);
        ++stats_.texEpochHits[epoch];
        ++stats_.intraTexHits;
        if (meta.hits + 1u < Characterization::kEpochs)
            ++stats_.texReach[meta.hits + 1];
        if (meta.hits < 0xff)
            ++meta.hits;
        return;
    }

    if (ps == PolicyStream::RenderTarget) {
        if (!meta.rtBit) {
            // The application reuses the surface as a render target
            // again: a fresh production.
            meta.rtBit = true;
            ++stats_.rtProductions;
        }
        // Blending hits do not advance texture/Z epochs; the block
        // stops being a texture/Z block.
        meta.kind = Kind::None;
        meta.hits = 0;
        return;
    }

    if (ps == PolicyStream::Z) {
        if (meta.kind != Kind::Z)
            startZLifetime(meta);
        if (meta.hits + 1u < Characterization::kEpochs)
            ++stats_.zReach[meta.hits + 1];
        if (meta.hits < 0xff)
            ++meta.hits;
        return;
    }
}

} // namespace gllc
