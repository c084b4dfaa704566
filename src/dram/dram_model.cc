#include "dram/dram_model.hh"

#include <bit>
#include <string>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace gllc
{

DramConfig
DramConfig::ddr3_1600()
{
    DramConfig c;
    c.name = "DDR3-1600 15-15-15";
    c.clockMhz = 800.0;
    c.tCas = c.tRcd = c.tRp = 15;
    return c;
}

DramConfig
DramConfig::ddr3_1867()
{
    DramConfig c;
    c.name = "DDR3-1867 10-10-10";
    c.clockMhz = 933.0;
    c.tCas = c.tRcd = c.tRp = 10;
    c.tWtr = 9;
    c.tRefi = 7277;  // 7.8 us at 933 MHz
    c.tRfc = 243;    // 260 ns at 933 MHz
    return c;
}

DramConfig
DramConfig::gddr5()
{
    DramConfig c;
    c.name = "GDDR5-5000";
    c.channels = 4;
    c.banksPerChannel = 16;
    c.clockMhz = 1250.0;
    c.tCas = 18;
    c.tRcd = 18;
    c.tRp = 18;
    c.rowBytes = 2048;
    c.tWtr = 12;
    c.tRefi = 9750;   // 7.8 us at 1250 MHz
    c.tRfc = 325;     // 260 ns at 1250 MHz
    return c;
}

DramModel::DramModel(const DramConfig &config)
    : config_(config)
{
    const std::uint32_t blocks_per_row = config.rowBytes / kBlockBytes;
    GLLC_ASSERT(std::has_single_bit(config.channels));
    GLLC_ASSERT(std::has_single_bit(config.banksPerChannel));
    GLLC_ASSERT(std::has_single_bit(blocks_per_row));
    channelMask_ = config.channels - 1;
    bankMask_ = config.banksPerChannel - 1;
    bankShift_ = static_cast<std::uint32_t>(
        std::countr_zero(config.banksPerChannel));
    rowSequenceShift_ = static_cast<std::uint32_t>(
        std::countr_zero(config.channels)
        + std::countr_zero(blocks_per_row));
}

DramModel::Schedule::Schedule(const DramModel &model)
    : model_(model),
      banks_(static_cast<std::size_t>(model.config_.channels)
             * model.config_.banksPerChannel),
      channels_(model.config_.channels),
      metrics_(metricsActive())
{
    // tRefi == 0 disables refresh: no start reaches the boundary.
    for (ChannelState &channel : channels_) {
        channel.nextRefresh = model.config_.tRefi != 0
            ? model.config_.tRefi
            : ~0ull;
    }
    if (metrics_) {
        channelStats_.resize(channels_.size());
        bankRequests_.resize(banks_.size(), 0);
    }
}

DramStats
DramModel::Schedule::finish() const
{
    if (faultsActive()
        && faultFires(FaultSite::DramSimulate, mix64(stats_.requests)))
        throwInjectedFault(FaultSite::DramSimulate);
    if (metrics_)
        model_.flushMetrics(stats_, channelStats_, bankRequests_);
    return stats_;
}

DramStats
DramModel::simulate(const std::vector<DramRequest> &requests)
{
    Schedule schedule(*this);
    for (const DramRequest &req : requests)
        schedule.service(req.addr, req.arrival, req.isWrite);
    return schedule.finish();
}

void
DramModel::flushMetrics(
    const DramStats &stats,
    const std::vector<DramStats> &channel_stats,
    const std::vector<std::uint64_t> &bank_requests) const
{
    auto &reg = MetricsRegistry::instance();

    auto flushOne = [&reg](const std::string &p, const DramStats &s) {
        if (s.requests)
            reg.addCounter(p + "requests", s.requests);
        if (s.reads)
            reg.addCounter(p + "reads", s.reads);
        if (s.writes)
            reg.addCounter(p + "writes", s.writes);
        if (s.rowHits)
            reg.addCounter(p + "row_hits", s.rowHits);
        if (s.rowMisses)
            reg.addCounter(p + "row_misses", s.rowMisses);
        if (s.rowConflicts)
            reg.addCounter(p + "row_conflicts", s.rowConflicts);
    };

    flushOne("dram.", stats);
    if (stats.refreshes)
        reg.addCounter("dram.refreshes", stats.refreshes);
    if (stats.turnarounds)
        reg.addCounter("dram.turnarounds", stats.turnarounds);
    if (stats.busBusyCycles)
        reg.addCounter("dram.bus_busy_cycles", stats.busBusyCycles);
    reg.maxGauge("dram.max_finish_cycle",
                 static_cast<double>(stats.finishCycle));

    const std::uint32_t nbank = config_.banksPerChannel;
    for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
        const std::string p = "dram.ch" + std::to_string(ch) + ".";
        flushOne(p, channel_stats[ch]);
        // Bank-level parallelism: request distribution over banks.
        const std::string bname = p + "bank_requests";
        for (std::uint32_t b = 0; b < nbank; ++b) {
            const std::uint64_t n =
                bank_requests[static_cast<std::size_t>(ch) * nbank + b];
            if (n)
                reg.recordValue(bname, static_cast<std::int64_t>(b),
                                n);
        }
    }
}

} // namespace gllc
