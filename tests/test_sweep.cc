/**
 * @file
 * Tests for the sweep engine (SweepConfig/SweepResult): serial and
 * parallel execution bit-identity, determinism across thread counts
 * and frame windows, the aggregation methods, and the CSV/JSON
 * export.  Fault injection, quarantine and checkpoint/resume live
 * in test_sweep_fault.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "analysis/report.hh"
#include "analysis/sweep.hh"

using namespace gllc;

namespace
{

/** RAII environment setup: 2 frames at scale 8 keeps tests fast. */
class SweepEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::setenv("GLLC_FRAMES", "2", 1);
        ::setenv("GLLC_SCALE", "8", 1);
        ::unsetenv("GLLC_THREADS");
    }

    void
    TearDown() override
    {
        ::unsetenv("GLLC_FRAMES");
        ::unsetenv("GLLC_SCALE");
        ::unsetenv("GLLC_THREADS");
    }
};

/** Field-by-field bit-identity of two completed sweeps. */
void
expectCellsIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.cells().size(), b.cells().size());
    for (std::size_t i = 0; i < a.cells().size(); ++i) {
        const SweepCell &ca = a.cells()[i];
        const SweepCell &cb = b.cells()[i];
        EXPECT_EQ(ca.key.app, cb.key.app) << "cell " << i;
        EXPECT_EQ(ca.key.frameIndex, cb.key.frameIndex) << "cell " << i;
        EXPECT_EQ(ca.key.policy, cb.key.policy) << "cell " << i;

        const LlcStats &sa = ca.result.stats;
        const LlcStats &sb = cb.result.stats;
        for (std::size_t s = 0; s < kNumStreams; ++s) {
            EXPECT_EQ(sa.stream[s].accesses, sb.stream[s].accesses);
            EXPECT_EQ(sa.stream[s].hits, sb.stream[s].hits);
            EXPECT_EQ(sa.stream[s].misses, sb.stream[s].misses);
            EXPECT_EQ(sa.stream[s].bypasses, sb.stream[s].bypasses);
        }
        EXPECT_EQ(sa.writebacks, sb.writebacks) << "cell " << i;
        EXPECT_EQ(sa.evictions, sb.evictions) << "cell " << i;

        EXPECT_EQ(ca.result.characterization,
                  cb.result.characterization)
            << "cell " << i;

        EXPECT_EQ(ca.result.fills.counts, cb.result.fills.counts)
            << "cell " << i;
    }
}

} // namespace

TEST_F(SweepEnv, RunsEveryFramePolicyPair)
{
    const SweepResult sweep =
        SweepConfig().policies({"DRRIP", "NRU"}).run();
    EXPECT_EQ(sweep.cells().size(), 4u);  // 2 frames x 2 policies
    EXPECT_EQ(sweep.scale().linear, 8u);
    // 8 MB scaled by 1/64 -> 128 KB.
    EXPECT_EQ(sweep.llcConfig().capacityBytes, 128u * 1024);
}

TEST_F(SweepEnv, CellsAreInDeterministicSweepOrder)
{
    const SweepResult sweep =
        SweepConfig().policies({"DRRIP", "NRU"}).threads(2).run();
    ASSERT_EQ(sweep.cells().size(), 4u);
    // Frames in frame-set order, policies in configured order
    // within each frame, regardless of completion order.
    EXPECT_EQ(sweep.cells()[0].key.policy, "DRRIP");
    EXPECT_EQ(sweep.cells()[1].key.policy, "NRU");
    EXPECT_EQ(sweep.cells()[0].key.app, sweep.cells()[1].key.app);
    EXPECT_EQ(sweep.cells()[2].key.policy, "DRRIP");
    EXPECT_EQ(sweep.cells()[3].key.policy, "NRU");
}

TEST_F(SweepEnv, SerialAndParallelAreBitIdentical)
{
    // Random stresses per-replay RNG seeding, Belady the oracle.
    const std::vector<std::string> policies{"DRRIP", "GSPC+UCD",
                                            "Random", "Belady"};
    const SweepResult serial = SweepConfig()
                                   .policies(policies)
                                   .characterize(true)
                                   .threads(1)
                                   .run();
    for (const unsigned nthreads : {2u, 8u}) {
        const SweepResult parallel = SweepConfig()
                                         .policies(policies)
                                         .characterize(true)
                                         .threads(nthreads)
                                         .run();
        EXPECT_EQ(parallel.threadsUsed(), nthreads);
        expectCellsIdentical(serial, parallel);
    }
}

TEST_F(SweepEnv, FrameWindowDoesNotChangeResults)
{
    const std::vector<std::string> policies{"DRRIP", "GSPC"};
    const SweepResult narrow = SweepConfig()
                                   .policies(policies)
                                   .threads(2)
                                   .frameWindow(1)
                                   .run();
    const SweepResult wide = SweepConfig()
                                 .policies(policies)
                                 .threads(2)
                                 .frameWindow(8)
                                 .run();
    expectCellsIdentical(narrow, wide);
}

TEST_F(SweepEnv, ThreadsEnvKnobIsHonoured)
{
    ::setenv("GLLC_THREADS", "3", 1);
    const SweepResult env_run =
        SweepConfig().policies({"DRRIP"}).run();
    EXPECT_EQ(env_run.threadsUsed(), 3u);
    ::setenv("GLLC_THREADS", "1", 1);
    const SweepResult serial =
        SweepConfig().policies({"DRRIP"}).run();
    EXPECT_EQ(serial.threadsUsed(), 1u);
    expectCellsIdentical(serial, env_run);
}

TEST_F(SweepEnv, SweepThreadsResolutionOrder)
{
    EXPECT_EQ(sweepThreads(5), 5u);
    ::setenv("GLLC_THREADS", "3", 1);
    EXPECT_EQ(sweepThreads(), 3u);
    EXPECT_EQ(sweepThreads(2), 2u);
    ::unsetenv("GLLC_THREADS");
    EXPECT_GE(sweepThreads(), 1u);
}

TEST_F(SweepEnv, TotalsGroupByApp)
{
    const SweepResult sweep =
        SweepConfig().policies({"DRRIP", "NRU"}).run();
    const auto totals = sweep.totalsByApp(missMetric);
    EXPECT_EQ(totals.size(), 2u);  // two apps (round-robin frame 0s)
    for (const auto &[app, row] : totals) {
        EXPECT_EQ(row.size(), 2u);
        EXPECT_GT(row.at("DRRIP"), 0.0);
    }
}

TEST_F(SweepEnv, NormalizedMeanOfBaselineIsOne)
{
    const SweepResult sweep =
        SweepConfig().policies({"DRRIP", "NRU"}).run();
    const auto means = sweep.meanNormalized(missMetric, "DRRIP");
    EXPECT_DOUBLE_EQ(means.at("DRRIP"), 1.0);
    EXPECT_GT(means.at("NRU"), 0.5);
    EXPECT_LT(means.at("NRU"), 2.0);
}

TEST_F(SweepEnv, AppOrderFollowsTable1)
{
    const SweepResult sweep =
        SweepConfig().policies({"DRRIP"}).run();
    const auto order = sweep.appOrder();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], paperApps()[0].name);
    EXPECT_EQ(order[1], paperApps()[1].name);
}

TEST_F(SweepEnv, PrintNormalizedTableRendersRows)
{
    const SweepResult sweep =
        SweepConfig().policies({"DRRIP", "NRU"}).run();
    std::ostringstream os;
    sweep.printNormalizedTable(os, "test table", missMetric, "DRRIP");
    const std::string out = os.str();
    EXPECT_NE(out.find("test table"), std::string::npos);
    EXPECT_NE(out.find("MEAN"), std::string::npos);
    EXPECT_NE(out.find(paperApps()[0].name), std::string::npos);
    // Baseline column is omitted.
    EXPECT_EQ(out.find("DRRIP  NRU"), std::string::npos);
}

TEST_F(SweepEnv, ObserverSeesCellsInSweepOrder)
{
    std::vector<std::string> seen;
    const SweepResult sweep =
        SweepConfig().policies({"DRRIP", "NRU"}).threads(4).run(
            [&seen](const SweepCell &cell, const FrameTrace &t) {
                seen.push_back(cell.key.policy);
                EXPECT_EQ(cell.result.stats.totalAccesses(),
                          t.accesses.size());
            });
    ASSERT_EQ(seen.size(), sweep.cells().size());
    EXPECT_EQ(seen, (std::vector<std::string>{"DRRIP", "NRU",
                                              "DRRIP", "NRU"}));
}

TEST_F(SweepEnv, DramTraceCollectionOnDemand)
{
    for (const unsigned nthreads : {1u, 2u}) {
        bool saw_dram = false;
        const SweepResult sweep =
            SweepConfig()
                .policies({"DRRIP"})
                .collectDramTrace(true)
                .threads(nthreads)
                .run([&saw_dram](const SweepCell &cell,
                                 const FrameTrace &) {
                    saw_dram |= !cell.result.dramTrace.empty();
                });
        EXPECT_TRUE(saw_dram) << nthreads << " threads";
        // But the retained cells drop the bulky traces.
        for (const SweepCell &cell : sweep.cells())
            EXPECT_TRUE(cell.result.dramTrace.empty());
    }
}

TEST_F(SweepEnv, RegistryFreePolicySpecsSweep)
{
    std::vector<PolicySpec> specs{policySpec("DRRIP"),
                                  policySpec("GSPC")};
    specs[1].name = "custom-name";
    const SweepResult sweep =
        SweepConfig().policySpecs(specs).run();
    EXPECT_EQ(sweep.policies(),
              (std::vector<std::string>{"DRRIP", "custom-name"}));
    EXPECT_EQ(sweep.cells()[1].key.policy, "custom-name");
}

TEST_F(SweepEnv, CsvExportHasHeaderAndOneRowPerCell)
{
    const SweepResult sweep =
        SweepConfig().policies({"DRRIP", "GSPC"}).run();
    std::ostringstream os;
    sweep.writeCsv(os);
    const std::string out = os.str();

    std::size_t lines = 0;
    for (const char c : out)
        lines += (c == '\n');
    EXPECT_EQ(lines, 1u + sweep.cells().size());
    EXPECT_EQ(out.find("app,frame,policy"), 0u);
    EXPECT_NE(out.find(",GSPC,"), std::string::npos);
}

TEST_F(SweepEnv, CsvValuesAreConsistent)
{
    const SweepResult sweep =
        SweepConfig().policies({"DRRIP"}).run();
    std::ostringstream os;
    writeSweepCsv(sweep, os);
    // The first data row's accesses field matches the cell.
    std::istringstream is(os.str());
    std::string header, row;
    std::getline(is, header);
    std::getline(is, row);
    const SweepCell &cell = sweep.cells().front();
    EXPECT_NE(row.find("," + std::to_string(
                           cell.result.stats.totalAccesses()) + ","),
              std::string::npos);
}

TEST_F(SweepEnv, UndeclaredCharacterizationIsAbsentNotZero)
{
    const SweepResult plain = SweepConfig().policies({"DRRIP"}).run();
    const SweepResult declared =
        SweepConfig().policies({"DRRIP"}).characterize(true).run();
    for (const SweepCell &cell : plain.cells())
        EXPECT_FALSE(cell.result.characterization.has_value());
    for (const SweepCell &cell : declared.cells())
        EXPECT_TRUE(cell.result.characterization.has_value());

    // CSV: the four characterization columns (and the error) are
    // empty; JSON: their keys are left out.
    std::ostringstream csv;
    writeSweepCsv(plain, csv);
    std::istringstream is(csv.str());
    std::string header, row;
    std::getline(is, header);
    std::getline(is, row);
    ASSERT_GE(row.size(), 5u);
    EXPECT_EQ(row.substr(row.size() - 5), ",,,,,");

    std::ostringstream json;
    writeSweepJson(plain, json);
    std::ostringstream declared_json;
    writeSweepJson(declared, declared_json);
    for (const char *key : {"\"rt_productions\"", "\"rt_consumptions\"",
                            "\"inter_tex_hits\"", "\"intra_tex_hits\""}) {
        EXPECT_EQ(json.str().find(key), std::string::npos) << key;
        EXPECT_NE(declared_json.str().find(key), std::string::npos)
            << key;
    }
}

TEST_F(SweepEnv, JsonExportHasConfigAndOneRecordPerCell)
{
    const SweepResult sweep =
        SweepConfig().policies({"DRRIP", "GSPC"}).run();
    std::ostringstream os;
    sweep.writeJson(os);
    const std::string out = os.str();

    EXPECT_EQ(out.front(), '{');
    EXPECT_NE(out.find("\"scale\": 8"), std::string::npos);
    EXPECT_NE(out.find("\"capacity_bytes\": 131072"),
              std::string::npos);
    EXPECT_NE(out.find("\"policies\": [\"DRRIP\", \"GSPC\"]"),
              std::string::npos);
    std::size_t records = 0;
    for (std::size_t pos = out.find("{\"app\":");
         pos != std::string::npos;
         pos = out.find("{\"app\":", pos + 1))
        ++records;
    EXPECT_EQ(records, sweep.cells().size());
}
