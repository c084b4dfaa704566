#include "cache/policy/ship_mem.hh"

#include <array>

#include "common/audit.hh"
#include "common/metrics.hh"

namespace gllc
{

ShipMemPolicy::ShipMemPolicy(unsigned bits)
    : rrip_(bits), metrics_(metricsActive())
{
}

void
ShipMemPolicy::configure(std::uint32_t sets, std::uint32_t ways)
{
    ways_ = ways;
    rrip_.configure(sets, ways);
    blocks_.assign(static_cast<std::size_t>(sets) * ways, BlockState{});
    // Start counters weakly confident of reuse so cold regions are
    // not immediately condemned.
    table_.assign(kTableEntries, SatCounter(3, 1));
}

void
ShipMemPolicy::auditInvariants(std::uint32_t set) const
{
    if (!auditActive())
        return;
    rrip_.auditSet(set, "ShipMemPolicy");
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const BlockState &b = blocks_[base + w];
        GLLC_AUDIT_CHECK("ShipMemPolicy", "signature-range",
                         b.signature < kTableEntries,
                         "set %u way %u holds signature 0x%x outside "
                         "the 14-bit region id",
                         set, w, b.signature);
        GLLC_AUDIT_CHECK("ShipMemPolicy", "counter-range",
                         table_[b.signature].inRange(),
                         "region counter 0x%x holds %u > max %u",
                         b.signature, table_[b.signature].value(),
                         table_[b.signature].max());
    }
}

const FillHistogram *
ShipMemPolicy::fillHistogram() const
{
    return &rrip_.histogram();
}

void
ShipMemPolicy::flushMetrics(const std::string &prefix) const
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    if (fillsDead_ > 0)
        reg.addCounter(prefix + "ship.fills_dead", fillsDead_);
    if (fillsLive_ > 0)
        reg.addCounter(prefix + "ship.fills_live", fillsLive_);
    if (evictsReused_ > 0)
        reg.addCounter(prefix + "ship.evicts_reused", evictsReused_);
    if (evictsDead_ > 0)
        reg.addCounter(prefix + "ship.evicts_dead", evictsDead_);

    // Final distribution of the 3-bit region counters: how confident
    // the table ended up across its 16K regions.
    std::array<std::uint64_t, 8> levels{};
    for (const SatCounter &c : table_)
        ++levels[c.value() & 7u];
    for (std::size_t v = 0; v < levels.size(); ++v) {
        if (levels[v] > 0)
            reg.recordValue(prefix + "ship.table_final",
                            static_cast<std::int64_t>(v), levels[v]);
    }
}

PolicyFactory
ShipMemPolicy::factory(unsigned bits)
{
    return [bits] { return std::make_unique<ShipMemPolicy>(bits); };
}

} // namespace gllc
