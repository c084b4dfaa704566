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

} // namespace gllc
