/**
 * @file
 * DDR3 channel/bank timing model.
 *
 * Section 4: "We model a dual channel DDR3-1600 memory system.  The
 * DRAM part is 8-way banked with a burst length of eight and
 * 15-15-15 (tCAS-tRCD-tRP) latency parameters."  The sensitivity
 * study (Figure 17) additionally uses DDR3-1867 10-10-10.
 *
 * The model services LLC misses and writebacks in arrival order per
 * channel, tracking per-bank row buffers and the shared data bus, so
 * both the latency seen by individual requests and the total busy
 * time (the bandwidth bound on a memory-bound frame) fall out.
 */

#ifndef GLLC_DRAM_DRAM_MODEL_HH
#define GLLC_DRAM_DRAM_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace gllc
{

/** Timing/geometry parameters of the DRAM system. */
struct DramConfig
{
    std::string name = "DDR3-1600 15-15-15";

    std::uint32_t channels = 2;
    std::uint32_t banksPerChannel = 8;

    /** Memory clock in MHz (data rate is 2x). */
    double clockMhz = 800.0;

    /** Transfers per burst; 8 x 8 B = one 64 B block. */
    std::uint32_t burstLength = 8;

    std::uint32_t tCas = 15;
    std::uint32_t tRcd = 15;
    std::uint32_t tRp = 15;

    /** Row-buffer (page) size per bank. */
    std::uint32_t rowBytes = 8192;

    /**
     * Write-to-read turnaround penalty on a channel's data bus
     * (tWTR-like): charged when a read follows a write.
     */
    std::uint32_t tWtr = 8;

    /** Refresh interval (0 disables refresh modelling). */
    std::uint32_t tRefi = 6240;  ///< 7.8 us at 800 MHz

    /** All-bank refresh occupancy. */
    std::uint32_t tRfc = 208;    ///< 260 ns at 800 MHz

    /** Dual-channel DDR3-1600 15-15-15 (the baseline). */
    static DramConfig ddr3_1600();

    /** Dual-channel DDR3-1867 10-10-10 (Figure 17 upper panel). */
    static DramConfig ddr3_1867();

    /**
     * GDDR5-class memory (extension): four 64-bit channels at a
     * 1250 MHz command clock — the discrete-GPU memory system the
     * paper's Section 4 contrasts with the LLC's efficiency.
     */
    static DramConfig gddr5();

    /** Bus cycles one burst occupies the data bus. */
    std::uint32_t burstCycles() const { return burstLength / 2; }

    /** Peak bandwidth in bytes per memory-clock cycle (all channels). */
    double
    peakBytesPerCycle() const
    {
        return static_cast<double>(channels) * 16.0;  // 8 B x 2/cycle
    }
};

/** One request presented to the DRAM system. */
struct DramRequest
{
    Addr addr = 0;
    /** Arrival time in DRAM clock cycles. */
    std::uint64_t arrival = 0;
    bool isWrite = false;
};

/** Aggregate results of servicing a request sequence. */
struct DramStats
{
    std::uint64_t requests = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;

    /**
     * Row misses that found a different row open (paid precharge +
     * activate); the remaining misses only paid the activate.
     */
    std::uint64_t rowConflicts = 0;

    /** Refresh windows the schedule crossed. */
    std::uint64_t refreshes = 0;

    /** Write-to-read bus turnarounds charged. */
    std::uint64_t turnarounds = 0;

    /** Cycle the last request completed. */
    std::uint64_t finishCycle = 0;

    /** Sum over requests of (completion - arrival). */
    std::uint64_t totalLatency = 0;

    /** Data-bus busy cycles summed over channels. */
    std::uint64_t busBusyCycles = 0;

    double
    averageLatency() const
    {
        return requests == 0
            ? 0.0
            : static_cast<double>(totalLatency)
                / static_cast<double>(requests);
    }
};

/**
 * The DDR3 timing model.
 *
 * Addresses map to (channel, bank, row) by shifts and masks: block
 * numbers interleave across channels, each bank row holds
 * rowBytes / kBlockBytes consecutive blocks of one channel, and
 * consecutive rows rotate across the banks.  Channels, banks per
 * channel and blocks per row must therefore be powers of two.
 */
class DramModel
{
  public:
    class Schedule;

    explicit DramModel(const DramConfig &config);

    /**
     * Service @p requests, which must be sorted by arrival time, on
     * a fresh Schedule.
     */
    DramStats simulate(const std::vector<DramRequest> &requests);

    const DramConfig &config() const { return config_; }

    /// @name Address mapping (exposed for tests)
    /// @{
    std::uint32_t
    channelOf(Addr addr) const
    {
        // Block-interleaved channels maximize delivered bandwidth on
        // streaming access patterns.
        return static_cast<std::uint32_t>(blockNumber(addr))
            & channelMask_;
    }

    std::uint32_t
    bankOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(rowSequence(addr))
            & bankMask_;
    }

    std::uint64_t
    rowOf(Addr addr) const
    {
        return rowSequence(addr) >> bankShift_;
    }
    /// @}

  private:
    /** Index of @p addr's row among its channel's rows, all banks. */
    std::uint64_t
    rowSequence(Addr addr) const
    {
        return blockNumber(addr) >> rowSequenceShift_;
    }

    /**
     * Flush aggregate and per-channel counters plus the per-channel
     * bank-request distribution into the metrics registry under
     * "dram."; called by Schedule::finish() when metricsActive().
     */
    void flushMetrics(
        const DramStats &stats,
        const std::vector<DramStats> &channel_stats,
        const std::vector<std::uint64_t> &bank_requests) const;

    DramConfig config_;

    std::uint32_t channelMask_ = 0;
    std::uint32_t bankMask_ = 0;
    std::uint32_t bankShift_ = 0;

    /** log2(channels) + log2(blocks per row). */
    std::uint32_t rowSequenceShift_ = 0;
};

/**
 * The servicing state of one request stream: per-bank row buffers,
 * per-channel data bus, write-to-read turnaround and refresh
 * windows.  A caller that produces requests on the fly services
 * each as it is produced, so the stream is never materialized;
 * DramModel::simulate() runs the same step over a vector.
 */
class DramModel::Schedule
{
  public:
    /** An empty schedule on @p model, which must outlive it. */
    explicit Schedule(const DramModel &model);

    /** Service one request; arrivals must be non-decreasing. */
    void service(Addr addr, std::uint64_t arrival, bool is_write);

    /**
     * End the stream: check the dram.simulate fault site, keyed on
     * the number of requests serviced (so the same stream fails at
     * any thread count, however it was fed), flush the metrics when
     * they are on, and return the stats.
     */
    DramStats finish() const;

  private:
    struct BankState
    {
        std::uint64_t row = ~0ull;
        std::uint64_t ready = 0;
        bool open = false;
    };

    struct ChannelState
    {
        /** Cycle the data bus frees up. */
        std::uint64_t busFree = 0;

        /**
         * First cycle of the next tREFI window: a request starting
         * at or after it triggers a refresh.
         */
        std::uint64_t nextRefresh = 0;

        bool lastWasWrite = false;
    };

    const DramModel &model_;
    std::vector<BankState> banks_;
    std::vector<ChannelState> channels_;

    /**
     * Per-channel stats + per-(channel, bank) request counts (the
     * bank-level-parallelism view), kept only while metrics are on.
     */
    bool metrics_ = false;
    std::vector<DramStats> channelStats_;
    std::vector<std::uint64_t> bankRequests_;

    DramStats stats_;
    std::uint64_t lastArrival_ = 0;
};

inline void
DramModel::Schedule::service(Addr addr, std::uint64_t arrival,
                             bool is_write)
{
    GLLC_ASSERT(arrival >= lastArrival_);
    lastArrival_ = arrival;

    const DramConfig &c = model_.config_;
    const std::uint32_t ch = model_.channelOf(addr);
    const std::uint32_t bk = model_.bankOf(addr);
    const std::uint64_t row = model_.rowOf(addr);
    const std::size_t nbank = c.banksPerChannel;
    BankState &bank = banks_[ch * nbank + bk];
    ChannelState &channel = channels_[ch];

    std::uint64_t start = std::max(arrival, bank.ready);

    // All-bank refresh: when the schedule crosses a tREFI boundary
    // the channel stalls for tRFC and every row closes.  The window
    // is only computed when one is crossed.
    if (start >= channel.nextRefresh) {
        channel.nextRefresh = (start / c.tRefi + 1) * c.tRefi;
        ++stats_.refreshes;
        start += c.tRfc;
        for (std::size_t b = 0; b < nbank; ++b)
            banks_[ch * nbank + b].open = false;
    }

    // Row misses pay precharge + activate before the CAS; row hits
    // pipeline CAS-to-CAS at the burst rate, so the bank is only
    // occupied for the burst.
    std::uint64_t cas_ready = start;
    if (bank.open && bank.row == row) {
        ++stats_.rowHits;
        if (metrics_)
            ++channelStats_[ch].rowHits;
    } else {
        ++stats_.rowMisses;
        if (bank.open)
            ++stats_.rowConflicts;
        if (metrics_) {
            ++channelStats_[ch].rowMisses;
            if (bank.open)
                ++channelStats_[ch].rowConflicts;
        }
        cas_ready += (bank.open ? c.tRp : 0) + c.tRcd;
        bank.open = true;
        bank.row = row;
    }

    const std::uint64_t data_ready = cas_ready + c.tCas;
    std::uint64_t bus_earliest = channel.busFree;
    if (!is_write && channel.lastWasWrite) {
        // Write-to-read turnaround on the shared data bus.
        bus_earliest += c.tWtr;
        ++stats_.turnarounds;
    }
    channel.lastWasWrite = is_write;
    const std::uint64_t bus_start = std::max(data_ready, bus_earliest);
    const std::uint64_t completion = bus_start + c.burstCycles();

    channel.busFree = completion;
    // The bank can accept the next CAS one burst after this one; the
    // data return (tCAS) overlaps with it.
    bank.ready = cas_ready + c.burstCycles();
    stats_.busBusyCycles += c.burstCycles();

    ++stats_.requests;
    if (is_write)
        ++stats_.writes;
    else
        ++stats_.reads;
    stats_.finishCycle = std::max(stats_.finishCycle, completion);
    stats_.totalLatency += completion - arrival;

    if (metrics_) {
        DramStats &cs = channelStats_[ch];
        ++cs.requests;
        if (is_write)
            ++cs.writes;
        else
            ++cs.reads;
        ++bankRequests_[ch * nbank + bk];
    }
}

} // namespace gllc

#endif // GLLC_DRAM_DRAM_MODEL_HH
