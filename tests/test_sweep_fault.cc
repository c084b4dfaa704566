/**
 * @file
 * Tests for the sweep engine's fault tolerance: the shared
 * cell-attempt policy, injected cell failures, retry/backoff,
 * quarantine reporting, and checkpoint/resume byte-identity.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cell_attempts.hh"
#include "analysis/checkpoint.hh"
#include "analysis/report.hh"
#include "analysis/sweep.hh"
#include "common/fault.hh"

using namespace gllc;

namespace
{

/** 2 frames at scale 8, injector disarmed on both sides. */
class SweepFaultEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::setenv("GLLC_FRAMES", "2", 1);
        ::setenv("GLLC_SCALE", "8", 1);
        ::unsetenv("GLLC_THREADS");
        ::unsetenv("GLLC_CHECKPOINT");
        ::unsetenv("GLLC_RESUME");
        configureFaults("");
    }

    void
    TearDown() override
    {
        ::unsetenv("GLLC_FRAMES");
        ::unsetenv("GLLC_SCALE");
        ::unsetenv("GLLC_THREADS");
        ::unsetenv("GLLC_CHECKPOINT");
        ::unsetenv("GLLC_RESUME");
        configureFaults("");
    }
};

/** The canonical sweep every test in this file runs. */
SweepConfig
baseConfig()
{
    return std::move(SweepConfig()
                         .policies({"DRRIP", "NRU"})
                         .backoffMs(0));
}

std::string
sweepJson(const SweepResult &result)
{
    std::ostringstream os;
    result.writeJson(os);
    return os.str();
}

std::string
tempJournal(const char *tag)
{
    return ::testing::TempDir() + "/gllc_sweep_" + tag + ".jsonl";
}

} // namespace

/** runAttempts over an attempt function failing until @p good. */
struct AttemptLog
{
    unsigned calls = 0;
    std::vector<std::pair<unsigned, std::string>> retries;

    AttemptsResult
    run(unsigned max_attempts, unsigned good)
    {
        return runAttempts(
            max_attempts, 0,
            [&](unsigned attempt) {
                ++calls;
                return attempt >= good
                    ? std::string()
                    : "failure " + std::to_string(attempt);
            },
            [&](unsigned attempt, const std::string &error) {
                retries.emplace_back(attempt, error);
            });
    }
};

TEST(CellAttempts, StopsAtTheFirstSuccess)
{
    AttemptLog log;
    const AttemptsResult result = log.run(5, 3);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.attempts, 3u);
    EXPECT_EQ(log.calls, 3u);
}

TEST(CellAttempts, OnRetryRunsOncePerReattempt)
{
    AttemptLog log;
    const AttemptsResult result = log.run(5, 3);
    ASSERT_EQ(log.retries.size(), result.attempts - 1);
    EXPECT_EQ(log.retries[0],
              std::make_pair(1u, std::string("failure 1")));
    EXPECT_EQ(log.retries[1],
              std::make_pair(2u, std::string("failure 2")));
}

TEST(CellAttempts, ExhaustionKeepsTheLastError)
{
    AttemptLog log;
    const AttemptsResult result = log.run(3, 100);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.attempts, 3u);
    EXPECT_EQ(result.error, "failure 3");
    EXPECT_EQ(log.calls, 3u);
    EXPECT_EQ(log.retries.size(), 2u);
}

TEST(CellAttempts, OneAttemptNeverRetries)
{
    AttemptLog log;
    const AttemptsResult result = log.run(1, 100);
    EXPECT_EQ(result.attempts, 1u);
    EXPECT_EQ(result.error, "failure 1");
    EXPECT_EQ(log.calls, 1u);
    EXPECT_TRUE(log.retries.empty());
}

TEST(CellAttempts, GuardedCallNamesWhatWasThrown)
{
    EXPECT_EQ(guardedCall([] {}), "");
    EXPECT_EQ(guardedCall([] { throw std::runtime_error("boom"); }),
              "boom");
    EXPECT_EQ(guardedCall([] { throw std::runtime_error(""); }),
              "unnamed exception");
    EXPECT_EQ(guardedCall([] { throw 42; }), "non-standard exception");
}

TEST_F(SweepFaultEnv, RetryRecoversAnInjectedThrow)
{
    const SweepResult clean = baseConfig().run();

    configureFaults("cell.throw:p=1,n=1");
    const SweepResult faulted =
        baseConfig().retries(2).threads(1).run();
    configureFaults("");

    EXPECT_TRUE(faulted.quarantined().empty());
    ASSERT_EQ(faulted.cells().size(), clean.cells().size());

    unsigned retried = 0;
    for (const SweepCell &cell : faulted.cells())
        retried += cell.attempts > 1 ? 1 : 0;
    EXPECT_EQ(retried, 1u);

    // The attempt that failed left no residue: results match a
    // clean run cell for cell (attempts differ, payloads must not).
    for (std::size_t i = 0; i < clean.cells().size(); ++i) {
        EXPECT_EQ(faulted.cells()[i].key.app, clean.cells()[i].key.app);
        EXPECT_EQ(faulted.cells()[i].key.policy,
                  clean.cells()[i].key.policy);
        EXPECT_EQ(
            faulted.cells()[i].result.stats.totalMisses(),
            clean.cells()[i].result.stats.totalMisses());
    }
}

TEST_F(SweepFaultEnv, ExhaustedRetriesLandInQuarantine)
{
    configureFaults("cell.throw:p=1");
    const SweepResult result = baseConfig().retries(1).run();
    configureFaults("");

    EXPECT_TRUE(result.cells().empty());
    ASSERT_EQ(result.quarantined().size(), 4u);
    for (const QuarantinedCell &q : result.quarantined()) {
        EXPECT_EQ(q.attempts, 2u);
        EXPECT_NE(q.error.find("cell.throw"), std::string::npos);
    }

    // The quarantine manifest reaches both export formats.
    std::ostringstream csv;
    result.writeCsv(csv);
    EXPECT_NE(csv.str().find(",quarantined,"), std::string::npos);
    const std::string json = sweepJson(result);
    EXPECT_NE(json.find("\"quarantined\": ["), std::string::npos);
    EXPECT_NE(json.find("cell.throw"), std::string::npos);

    // Aggregation over an all-quarantined sweep must not crash.
    std::ostringstream table;
    result.printNormalizedTable(table, "LLC misses", missMetric,
                                "DRRIP");
    EXPECT_NE(table.str().find("quarantined"), std::string::npos);
}

TEST_F(SweepFaultEnv, SurvivorsStillProduceCompleteResults)
{
    configureFaults("sim.access:p=1,n=1");
    const SweepResult result = baseConfig().retries(0).threads(1).run();
    configureFaults("");

    EXPECT_EQ(result.quarantined().size(), 1u);
    EXPECT_EQ(result.cells().size(), 3u);
    for (const SweepCell &cell : result.cells())
        EXPECT_GT(cell.result.stats.totalAccesses(), 0u);

    std::ostringstream table;
    result.printNormalizedTable(table, "LLC misses", missMetric,
                                "DRRIP");
    EXPECT_FALSE(table.str().empty());
}

TEST_F(SweepFaultEnv, InjectedDelayDoesNotChangeResults)
{
    const SweepResult clean = baseConfig().run();

    configureFaults("cell.delay:p=1,n=2");
    const SweepResult delayed =
        baseConfig().cellTimeoutMs(10).threads(2).run();
    configureFaults("");

    EXPECT_TRUE(delayed.quarantined().empty());
    EXPECT_EQ(sweepJson(delayed), sweepJson(clean));
}

TEST_F(SweepFaultEnv, CheckpointedRunMatchesPlainRun)
{
    const std::string path = tempJournal("plain");
    const std::string jsonA = sweepJson(baseConfig().run());
    const std::string jsonB =
        sweepJson(baseConfig().checkpoint(path).run());
    EXPECT_EQ(jsonA, jsonB);

    // The journal holds every cell of the finished sweep.
    Result<CheckpointContents> journal = loadCheckpoint(path);
    ASSERT_TRUE(journal.ok()) << journal.error().toString();
    EXPECT_EQ(journal.value().cells.size(), 4u);
    std::remove(path.c_str());
}

TEST_F(SweepFaultEnv, ResumeAfterKillIsByteIdentical)
{
    // Both journal shapes: cells with and without a characterization.
    for (const bool characterize : {false, true}) {
        SCOPED_TRACE(characterize ? "characterized" : "uncharacterized");
        const auto config = [characterize] {
            return std::move(baseConfig().characterize(characterize));
        };
        const std::string path = tempJournal("resume");
        const std::string uninterrupted = sweepJson(config().run());

        // Produce a full journal, then chop it after the first cell to
        // simulate a mid-run kill (the torn half-line included).
        sweepJson(config().checkpoint(path).run());
        std::vector<std::string> lines;
        {
            std::ifstream is(path, std::ios::binary);
            std::string line;
            while (std::getline(is, line))
                lines.push_back(line);
        }
        ASSERT_GE(lines.size(), 3u);
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os << lines[0] << '\n' << lines[1] << '\n';
            os << lines[2].substr(0, lines[2].size() / 2);
        }

        const SweepResult resumed =
            config().checkpoint(path).resume(true).run();
        EXPECT_EQ(resumed.restoredCells(), 1u);
        EXPECT_TRUE(resumed.quarantined().empty());
        EXPECT_EQ(sweepJson(resumed), uninterrupted);

        // After the resumed run the journal is complete and clean
        // again: the torn fragment was trimmed, not glued onto.
        Result<CheckpointContents> journal = loadCheckpoint(path);
        ASSERT_TRUE(journal.ok()) << journal.error().toString();
        EXPECT_EQ(journal.value().meta.characterize, characterize);
        EXPECT_EQ(journal.value().cells.size(), 4u);
        EXPECT_EQ(journal.value().skippedLines, 0u);
        std::remove(path.c_str());
    }
}

TEST_F(SweepFaultEnv, ResumeRestoresPolicyNamedWithJsonSpecials)
{
    // A registry-free policy whose name needs escaping: a quote, a
    // backslash and a newline.  The journal header must stay one
    // line and read back to the same name, or resume starts over.
    PolicySpec odd = policySpec("DRRIP");
    odd.name = "a\"b\\c\nd";
    const auto config = [&] {
        return std::move(
            SweepConfig().policySpecs({odd}).backoffMs(0));
    };
    const std::string path = tempJournal("escaped");
    const std::string uninterrupted =
        sweepJson(config().checkpoint(path).run());

    Result<CheckpointContents> journal = loadCheckpoint(path);
    ASSERT_TRUE(journal.ok()) << journal.error().toString();
    EXPECT_EQ(journal.value().meta.policies,
              std::vector<std::string>{odd.name});
    EXPECT_EQ(journal.value().skippedLines, 0u);

    const SweepResult resumed =
        config().checkpoint(path).resume(true).run();
    EXPECT_EQ(resumed.restoredCells(), 2u);
    EXPECT_EQ(sweepJson(resumed), uninterrupted);
    std::remove(path.c_str());
}

TEST_F(SweepFaultEnv, ResumeFromGarbageJournalRunsFully)
{
    const std::string path = tempJournal("garbage");
    {
        std::ofstream os(path, std::ios::binary);
        os << "not a journal at all\n";
    }
    const SweepResult result =
        baseConfig().checkpoint(path).resume(true).run();
    EXPECT_EQ(result.restoredCells(), 0u);
    EXPECT_EQ(result.cells().size(), 4u);

    // The unusable journal was restarted, not appended to.
    Result<CheckpointContents> journal = loadCheckpoint(path);
    ASSERT_TRUE(journal.ok()) << journal.error().toString();
    EXPECT_EQ(journal.value().cells.size(), 4u);
    std::remove(path.c_str());
}

TEST_F(SweepFaultEnv, CliArgsWireResumeAndCheckpoint)
{
    const char *argv[] = {"bench", "--checkpoint", "/tmp/x.jsonl",
                          "--resume", "--csv", "out.csv"};
    SweepConfig config;
    config.policies({"DRRIP"})
        .cliArgs(6, const_cast<char **>(argv));
    const SweepJobSpec spec = config.resolve();
    EXPECT_EQ(spec.checkpoint, "/tmp/x.jsonl");
    EXPECT_TRUE(spec.resume);
}

TEST_F(SweepFaultEnv, EnvKnobsFeedTheResolvers)
{
    ::setenv("GLLC_CELL_RETRIES", "5", 1);
    ::setenv("GLLC_CELL_BACKOFF_MS", "3", 1);
    ::setenv("GLLC_CELL_TIMEOUT_MS", "1234", 1);
    ::setenv("GLLC_CHECKPOINT", "/tmp/env.jsonl", 1);
    ::setenv("GLLC_RESUME", "1", 1);
    const SweepJobSpec spec = SweepConfig().resolve();
    EXPECT_EQ(spec.retries, 5u);
    EXPECT_EQ(spec.backoffMs, 3u);
    EXPECT_EQ(spec.cellTimeoutMs, 1234u);
    EXPECT_EQ(spec.checkpoint, "/tmp/env.jsonl");
    EXPECT_TRUE(spec.resume);

    // Builder overrides beat the environment.
    EXPECT_EQ(SweepConfig().retries(0).resolve().retries, 0u);
    EXPECT_FALSE(SweepConfig().resume(false).resolve().resume);
    ::unsetenv("GLLC_CELL_RETRIES");
    ::unsetenv("GLLC_CELL_BACKOFF_MS");
    ::unsetenv("GLLC_CELL_TIMEOUT_MS");
}

TEST_F(SweepFaultEnv, MismatchedJournalConfigurationIsFatal)
{
    const std::string path = tempJournal("mismatch");
    sweepJson(baseConfig().checkpoint(path).run());
    EXPECT_EXIT(SweepConfig()
                    .policies({"DRRIP"})
                    .checkpoint(path)
                    .resume(true)
                    .run(),
                ::testing::ExitedWithCode(1),
                "different sweep configuration");
    std::remove(path.c_str());
}

TEST_F(SweepFaultEnv, ResumeUnderTheOtherDeclarationIsFatal)
{
    // A journal's cells have the shape its declaration gave them;
    // resuming under the other one would mix the two.
    for (const bool characterize : {false, true}) {
        const std::string path = tempJournal("declaration");
        sweepJson(baseConfig()
                      .characterize(characterize)
                      .checkpoint(path)
                      .run());
        EXPECT_EXIT(baseConfig()
                        .characterize(!characterize)
                        .checkpoint(path)
                        .resume(true)
                        .run(),
                    ::testing::ExitedWithCode(1),
                    "different sweep configuration");
        std::remove(path.c_str());
    }
}
