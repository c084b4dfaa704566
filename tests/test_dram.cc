/**
 * @file
 * Unit tests for the DDR3 timing model.
 */

#include <gtest/gtest.h>

#include "dram/dram_model.hh"

using namespace gllc;

namespace
{

std::vector<DramRequest>
reqs(std::initializer_list<Addr> blocks, std::uint64_t spacing = 0)
{
    std::vector<DramRequest> r;
    std::uint64_t t = 0;
    for (const Addr b : blocks) {
        r.push_back(DramRequest{b * kBlockBytes, t, false});
        t += spacing;
    }
    return r;
}

} // namespace

TEST(DramConfig, Presets)
{
    const DramConfig base = DramConfig::ddr3_1600();
    EXPECT_EQ(base.tCas, 15u);
    EXPECT_EQ(base.tRcd, 15u);
    EXPECT_EQ(base.tRp, 15u);
    EXPECT_DOUBLE_EQ(base.clockMhz, 800.0);
    EXPECT_EQ(base.channels, 2u);
    EXPECT_EQ(base.banksPerChannel, 8u);
    EXPECT_EQ(base.burstCycles(), 4u);

    const DramConfig fast = DramConfig::ddr3_1867();
    EXPECT_EQ(fast.tCas, 10u);
    EXPECT_DOUBLE_EQ(fast.clockMhz, 933.0);

    const DramConfig gddr = DramConfig::gddr5();
    EXPECT_EQ(gddr.channels, 4u);
    EXPECT_EQ(gddr.banksPerChannel, 16u);
    EXPECT_EQ(gddr.rowBytes, 2048u);
    // Double the DDR3-1600 peak bandwidth per cycle.
    EXPECT_DOUBLE_EQ(gddr.peakBytesPerCycle(), 64.0);
}

TEST(Dram, Gddr5HigherPeakThroughputOnParallelStreams)
{
    // Spread requests across channels/banks: GDDR5's 4 channels
    // finish a bandwidth-bound batch in fewer *nanoseconds* than
    // dual-channel DDR3 despite longer latencies.
    std::vector<DramRequest> r;
    for (Addr i = 0; i < 4000; ++i)
        r.push_back(DramRequest{i * kBlockBytes, 0, false});
    DramModel ddr3(DramConfig::ddr3_1600());
    DramModel gddr(DramConfig::gddr5());
    const double ddr3_ns =
        static_cast<double>(ddr3.simulate(r).finishCycle) / 0.8;
    const double gddr_ns =
        static_cast<double>(gddr.simulate(r).finishCycle) / 1.25;
    EXPECT_LT(gddr_ns, ddr3_ns);
}

TEST(DramMap, ChannelsInterleaveByBlock)
{
    const DramModel dram(DramConfig::ddr3_1600());
    EXPECT_EQ(dram.channelOf(0), 0u);
    EXPECT_EQ(dram.channelOf(64), 1u);
    EXPECT_EQ(dram.channelOf(128), 0u);
}

TEST(DramMap, RowHolds8KPerChannelStride)
{
    const DramModel dram(DramConfig::ddr3_1600());
    // Two blocks in the same channel within one row.
    EXPECT_EQ(dram.rowOf(0), dram.rowOf(128));
    EXPECT_EQ(dram.bankOf(0), dram.bankOf(128));
}

TEST(DramMap, BanksRotateAcrossRows)
{
    const DramModel dram(DramConfig::ddr3_1600());
    // One row spans rowBytes * channels of address space.
    const Addr next_row = 8192 * 2;
    EXPECT_NE(dram.bankOf(0), dram.bankOf(next_row));
}

TEST(Dram, SingleRequestLatency)
{
    DramModel dram(DramConfig::ddr3_1600());
    const DramStats s = dram.simulate(reqs({0}));
    // Cold bank: tRCD + tCAS + burst = 15 + 15 + 4.
    EXPECT_EQ(s.finishCycle, 34u);
    EXPECT_EQ(s.requests, 1u);
    EXPECT_EQ(s.rowMisses, 1u);
    EXPECT_EQ(s.totalLatency, 34u);
}

TEST(Dram, RowHitIsFasterThanRowMiss)
{
    DramModel dram(DramConfig::ddr3_1600());
    // Same row twice: second request is a row hit.
    const DramStats s = dram.simulate(reqs({0, 2}));
    EXPECT_EQ(s.rowHits, 1u);
    EXPECT_EQ(s.rowMisses, 1u);
    // Row hit pipelines: total far below two full activations.
    EXPECT_LT(s.finishCycle, 2u * 34u);
}

TEST(Dram, ConflictPaysPrecharge)
{
    const DramConfig config = DramConfig::ddr3_1600();
    DramModel dram(config);
    // Same channel + bank, different row: the second request must
    // precharge (tRP) then activate.
    const Addr blocks_per_row = config.rowBytes / kBlockBytes;
    const Addr conflict =
        blocks_per_row * config.channels * config.banksPerChannel;
    const DramStats s = dram.simulate(reqs({0, conflict}));
    EXPECT_EQ(s.rowMisses, 2u);
    // Request 2 queues behind the bank (ready at 19), pays
    // tRP + tRCD + tCAS and a burst: 19 + 15 + 15 + 15 + 4 = 68.
    EXPECT_EQ(s.finishCycle, 68u);
}

TEST(Dram, ChannelsWorkInParallel)
{
    DramModel dram(DramConfig::ddr3_1600());
    // Blocks 0 and 1 sit in different channels: both finish at the
    // single-request latency.
    const DramStats s = dram.simulate(reqs({0, 1}));
    EXPECT_EQ(s.finishCycle, 34u);
}

TEST(Dram, BusSerializesRowHitStream)
{
    DramModel dram(DramConfig::ddr3_1600());
    // Many row hits to one channel: throughput bounded by the burst
    // occupancy of the data bus (4 cycles each).
    std::vector<DramRequest> r;
    for (Addr i = 0; i < 64; ++i)
        r.push_back(DramRequest{i * 2 * kBlockBytes, 0, false});
    const DramStats s = dram.simulate(r);
    EXPECT_GE(s.finishCycle, 34u + 63u * 4u);
    EXPECT_EQ(s.busBusyCycles, 64u * 4u);
}

TEST(Dram, LateArrivalsShiftSchedule)
{
    DramModel dram(DramConfig::ddr3_1600());
    const DramStats s = dram.simulate(reqs({0, 2}, 1000));
    // Second request arrives at cycle 1000 and finds its row open.
    EXPECT_EQ(s.rowHits, 1u);
    EXPECT_EQ(s.finishCycle, 1000u + 15u + 4u);
}

TEST(Dram, ReadsAndWritesCounted)
{
    DramModel dram(DramConfig::ddr3_1600());
    std::vector<DramRequest> r;
    r.push_back(DramRequest{0, 0, false});
    r.push_back(DramRequest{64, 0, true});
    const DramStats s = dram.simulate(r);
    EXPECT_EQ(s.reads, 1u);
    EXPECT_EQ(s.writes, 1u);
}

TEST(Dram, AverageLatencyComputed)
{
    DramModel dram(DramConfig::ddr3_1600());
    const DramStats s = dram.simulate(reqs({0}));
    EXPECT_DOUBLE_EQ(s.averageLatency(), 34.0);
    const DramStats empty = dram.simulate({});
    EXPECT_DOUBLE_EQ(empty.averageLatency(), 0.0);
}

TEST(Dram, FasterPartFinishesSooner)
{
    std::vector<DramRequest> r;
    for (Addr i = 0; i < 200; ++i)
        r.push_back(DramRequest{i * 577 * kBlockBytes, i, false});

    DramModel slow(DramConfig::ddr3_1600());
    DramModel fast(DramConfig::ddr3_1867());
    EXPECT_LT(fast.simulate(r).finishCycle,
              slow.simulate(r).finishCycle);
}

TEST(Dram, WriteToReadTurnaroundCharged)
{
    DramModel dram(DramConfig::ddr3_1600());
    std::vector<DramRequest> r;
    // Same channel (even blocks): write then read.
    r.push_back(DramRequest{0, 0, true});
    r.push_back(DramRequest{2 * kBlockBytes, 0, false});
    const DramStats s = dram.simulate(r);
    EXPECT_EQ(s.turnarounds, 1u);

    // Read then write pays nothing extra.
    std::vector<DramRequest> rw;
    rw.push_back(DramRequest{0, 0, false});
    rw.push_back(DramRequest{2 * kBlockBytes, 0, true});
    const DramStats s2 = dram.simulate(rw);
    EXPECT_EQ(s2.turnarounds, 0u);
}

TEST(Dram, RefreshStallsLongSchedules)
{
    DramConfig config = DramConfig::ddr3_1600();
    DramModel dram(config);
    // Two requests straddling a tREFI boundary on one channel.
    std::vector<DramRequest> r;
    r.push_back(DramRequest{0, 0, false});
    r.push_back(DramRequest{2 * kBlockBytes, config.tRefi + 5, false});
    const DramStats s = dram.simulate(r);
    EXPECT_EQ(s.refreshes, 1u);
    // The refreshed channel closed its rows: the second request is a
    // row miss despite matching the open row.
    EXPECT_EQ(s.rowMisses, 2u);
}

TEST(Dram, RefreshDisabledWhenTRefiZero)
{
    DramConfig config = DramConfig::ddr3_1600();
    config.tRefi = 0;
    DramModel dram(config);
    std::vector<DramRequest> r;
    r.push_back(DramRequest{0, 0, false});
    r.push_back(DramRequest{2 * kBlockBytes, 100000, false});
    const DramStats s = dram.simulate(r);
    EXPECT_EQ(s.refreshes, 0u);
    EXPECT_EQ(s.rowHits, 1u);
}

TEST(DramDeath, ArrivalsMustBeMonotone)
{
#ifdef GLLC_DISABLE_ASSERTS
    GTEST_SKIP() << "GLLC_ASSERT compiled out (-DGLLC_ASSERTS=OFF)";
#else
    DramModel dram(DramConfig::ddr3_1600());
    std::vector<DramRequest> r;
    r.push_back(DramRequest{0, 10, false});
    r.push_back(DramRequest{64, 5, false});
    EXPECT_DEATH(dram.simulate(r), "");
#endif
}

TEST(DramDeath, RowBlocksMustBePowerOfTwo)
{
#ifdef GLLC_DISABLE_ASSERTS
    GTEST_SKIP() << "GLLC_ASSERT compiled out (-DGLLC_ASSERTS=OFF)";
#else
    // The (channel, bank, row) mapping is shifts and masks, so a row
    // must hold a power-of-two number of blocks.
    DramConfig config = DramConfig::ddr3_1600();
    config.rowBytes = 3 * kBlockBytes;
    EXPECT_DEATH(DramModel{config}, "");
#endif
}
