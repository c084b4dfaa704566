/**
 * @file
 * Frame-time model.
 *
 * GPUs hide memory latency with massive thread-level parallelism
 * (Section 5.3: "it is necessary to save a significantly large
 * volume of LLC misses to achieve reasonable performance
 * improvements"), so a frame's time is modelled as the maximum of
 * the machine's throughput bounds plus a small exposed-latency term:
 *
 *   frame = max(compute, sampler, LLC occupancy, DRAM schedule)
 *           + sum(miss latency) / (thread contexts * overlap)
 *
 * The DRAM schedule bound comes from the event-driven DDR3 model
 * (dram/) fed with the replay's misses and writebacks; the arrival
 * process is stretched over the execution-bound frame time.
 */

#ifndef GLLC_GPU_TIMING_MODEL_HH
#define GLLC_GPU_TIMING_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/banked_llc.hh"
#include "dram/dram_model.hh"
#include "gpu/gpu_config.hh"
#include "trace/frame_trace.hh"

namespace gllc
{

/** Timing breakdown of one frame on one machine configuration. */
struct FrameTiming
{
    /// @name Throughput bounds, in GPU core cycles
    /// @{
    double computeCycles = 0;
    double samplerCycles = 0;
    double llcCycles = 0;
    double dramCycles = 0;
    /// @}

    /** Exposed memory latency after thread overlap. */
    double exposedCycles = 0;

    /** Resulting frame time in GPU core cycles. */
    double frameCycles = 0;

    /** Frames per second at the simulated scale. */
    double fps = 0;

    /** DRAM row-buffer hit rate achieved. */
    double rowHitRate = 0;
};

/**
 * The frame-time model, fed one DRAM-bound request at a time in
 * trace order.
 *
 * The throughput bounds need only the frame's work and its LLC
 * access count, so they, and with them the stretch of the arrival
 * process, are fixed at construction.  Each request's arrival is
 * then stamped from its cycle and clamped monotone, and the request
 * is serviced on the DRAM schedule at once: a replay can feed its
 * misses in as it produces them, with no trace in between.
 */
class FrameTimer
{
  public:
    /**
     * @param work the frame's work counters
     * @param llc_accesses the LLC accesses the replay will make
     * @param config the machine; must outlive the timer
     */
    FrameTimer(const FrameWork &work, std::uint64_t llc_accesses,
               const GpuConfig &config);

    /** Not copyable: schedule_ refers to dram_. */
    FrameTimer(const FrameTimer &) = delete;
    FrameTimer &operator=(const FrameTimer &) = delete;

    /**
     * Interleave the display engine's scan-out reads with the
     * requests, over the window that ends at the arrival of
     * @p last_cycle, the largest cycle stamp of the frame's DRAM
     * traffic.  Call before the first request, and only when
     * config.scanoutEnabled().
     */
    void scanOutUntil(std::uint32_t last_cycle);

    /** Service one DRAM-bound request stamped @p cycle. */
    void
    request(Addr addr, bool is_write, std::uint32_t cycle)
    {
        // Trace order is service order; keep arrivals monotone even
        // if cycle stamps repeat.
        const std::uint64_t arrival = std::max(arrivalOf(cycle), last_);
        last_ = arrival;
        scanOutBefore(arrival);
        schedule_.service(addr, arrival, is_write);
    }

    /**
     * Service the remaining scan-out reads, end the DRAM schedule
     * (where the dram.simulate fault site fires) and evaluate the
     * frame time; @p llc_stats are the replay's statistics.
     */
    FrameTiming finish(const LlcStats &llc_stats);

  private:
    static constexpr std::uint64_t kNoScanOut = ~0ull;

    /** Arrival, in DRAM cycles, of GPU cycle @p cycle. */
    std::uint64_t
    arrivalOf(std::uint32_t cycle) const
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(cycle) * stretch_ * gpuToDram_);
    }

    /**
     * Service the scan-out reads arriving strictly before @p limit;
     * a request goes ahead of a scan-out read with the same arrival.
     */
    void
    scanOutBefore(std::uint64_t limit)
    {
        while (scanAt_ < limit)
            scanOutNext();
    }

    /** Arrival of scan-out read @p b, or kNoScanOut past the last. */
    std::uint64_t scanArrival(std::uint64_t b) const;

    /** Service the next scan-out read. */
    void scanOutNext();

    const GpuConfig &config_;

    /** The bounds known before any request is serviced. */
    FrameTiming bounds_;

    /** max(compute, sampler, LLC) bounds. */
    double base_ = 0;

    double gpuToDram_ = 0;
    double stretch_ = 0;

    DramModel dram_;
    DramModel::Schedule schedule_;
    std::uint64_t last_ = 0;

    /// @name Scan-out reads
    /// @{
    std::uint64_t scanBlocks_ = 0;
    double scanWindow_ = 0;
    /** Index and arrival of the next read. */
    std::uint64_t scanNext_ = 0;
    std::uint64_t scanAt_ = kNoScanOut;
    /// @}
};

/**
 * Evaluate the frame-time model on a collected trace.
 *
 * @param work the frame's work counters
 * @param llc_stats replay statistics (access/hit/miss volumes)
 * @param dram_trace DRAM-bound accesses in trace order, cycle-stamped
 * @param config the machine
 */
FrameTiming timeFrame(const FrameWork &work, const LlcStats &llc_stats,
                      const std::vector<MemAccess> &dram_trace,
                      const GpuConfig &config);

} // namespace gllc

#endif // GLLC_GPU_TIMING_MODEL_HH
