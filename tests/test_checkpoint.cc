/**
 * @file
 * Tests for the sweep checkpoint journal: integer-exact cell round
 * trips, header/meta pinning, and torn-line tolerance.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/checkpoint.hh"
#include "analysis/sweep.hh"

using namespace gllc;

namespace
{

CheckpointMeta
sampleMeta()
{
    CheckpointMeta meta;
    meta.scaleLinear = 4;
    meta.llcBytes = 1ull << 20;
    meta.llcWays = 16;
    meta.llcBanks = 4;
    meta.policies = {"DRRIP", "GSPC \"quoted\""};
    meta.characterize = true;
    return meta;
}

/** A cell with every journaled field holding a distinctive value. */
SweepCell
sampleCell(std::uint32_t frame)
{
    SweepCell cell;
    cell.key = {"App\\One", frame, "DRRIP"};
    cell.attempts = 2;
    LlcStats &s = cell.result.stats;
    for (std::size_t i = 0; i < kNumStreams; ++i) {
        s.stream[i].accesses = 1000 + i * 17 + frame;
        s.stream[i].hits = 900 + i;
        s.stream[i].misses = 90 + i;
        s.stream[i].bypasses = 10 + i;
    }
    s.writebacks = 777 + frame;
    s.evictions = 888;
    Characterization &ch = cell.result.characterization.emplace();
    ch.interTexHits = 11;
    ch.intraTexHits = 22;
    ch.rtProductions = 33;
    ch.rtConsumptions = 44;
    for (unsigned k = 0; k < Characterization::kEpochs; ++k) {
        ch.texEpochHits[k] = 100 + k;
        ch.texReach[k] = 200 + k;
        ch.zReach[k] = 300 + k;
    }
    for (std::size_t p = 0; p < kNumPolicyStreams; ++p) {
        for (unsigned r = 0; r < FillHistogram::kMaxRrpv; ++r)
            cell.result.fills.counts[p][r] = p * 100 + r;
    }
    return cell;
}

void
expectCellEqual(const SweepCell &a, const SweepCell &b)
{
    EXPECT_EQ(a.key.app, b.key.app);
    EXPECT_EQ(a.key.frameIndex, b.key.frameIndex);
    EXPECT_EQ(a.key.policy, b.key.policy);
    EXPECT_EQ(a.attempts, b.attempts);
    for (std::size_t i = 0; i < kNumStreams; ++i) {
        EXPECT_EQ(a.result.stats.stream[i].accesses,
                  b.result.stats.stream[i].accesses);
        EXPECT_EQ(a.result.stats.stream[i].hits,
                  b.result.stats.stream[i].hits);
        EXPECT_EQ(a.result.stats.stream[i].misses,
                  b.result.stats.stream[i].misses);
        EXPECT_EQ(a.result.stats.stream[i].bypasses,
                  b.result.stats.stream[i].bypasses);
    }
    EXPECT_EQ(a.result.stats.writebacks, b.result.stats.writebacks);
    EXPECT_EQ(a.result.stats.evictions, b.result.stats.evictions);
    EXPECT_EQ(a.result.characterization, b.result.characterization);
    EXPECT_EQ(a.result.fills.counts, b.result.fills.counts);
}

std::string
tempJournal(const char *tag)
{
    return ::testing::TempDir() + "/gllc_ckpt_" + tag + ".jsonl";
}

} // namespace

TEST(Checkpoint, RoundTripsCellsExactly)
{
    const std::string path = tempJournal("roundtrip");
    const CheckpointMeta meta = sampleMeta();
    {
        CheckpointWriter writer(path, meta, false);
        writer.append(sampleCell(0));
        writer.append(sampleCell(1));
    }

    Result<CheckpointContents> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    const CheckpointContents &contents = loaded.value();
    EXPECT_EQ(contents.meta, meta);
    EXPECT_EQ(contents.skippedLines, 0u);
    ASSERT_EQ(contents.cells.size(), 2u);

    for (std::uint32_t frame = 0; frame < 2; ++frame) {
        const SweepCell want = sampleCell(frame);
        const auto it = contents.cells.find(want.key);
        ASSERT_NE(it, contents.cells.end()) << frame;
        expectCellEqual(it->second, want);
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, TornTailLineIsSkippedNotFatal)
{
    const std::string path = tempJournal("torn");
    {
        CheckpointWriter writer(path, sampleMeta(), false);
        writer.append(sampleCell(0));
        writer.append(sampleCell(1));
    }
    // Chop the file mid-way through the last line, as a kill during
    // a write would.
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        std::stringstream ss;
        ss << is.rdbuf();
        bytes = ss.str();
    }
    const std::size_t last_line = bytes.rfind("{\"app\":");
    ASSERT_NE(last_line, std::string::npos);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(last_line + 40));
    }

    Result<CheckpointContents> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_EQ(loaded.value().cells.size(), 1u);
    EXPECT_EQ(loaded.value().skippedLines, 1u);
    std::remove(path.c_str());
}

TEST(Checkpoint, CorruptedLineFailsItsChecksum)
{
    const std::string path = tempJournal("corrupt");
    {
        CheckpointWriter writer(path, sampleMeta(), false);
        writer.append(sampleCell(0));
    }
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        std::stringstream ss;
        ss << is.rdbuf();
        bytes = ss.str();
    }
    // Flip one digit inside the cell line's payload.
    const std::size_t pos = bytes.find("\"writebacks\":777");
    ASSERT_NE(pos, std::string::npos);
    bytes[pos + 14] = '9';
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }

    Result<CheckpointContents> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_TRUE(loaded.value().cells.empty());
    EXPECT_EQ(loaded.value().skippedLines, 1u);
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsIoError)
{
    Result<CheckpointContents> loaded =
        loadCheckpoint("/nonexistent/dir/journal.jsonl");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::Io);
}

TEST(Checkpoint, GarbageHeaderIsCorrupt)
{
    const std::string path = tempJournal("garbage");
    {
        std::ofstream os(path, std::ios::binary);
        os << "this is not a checkpoint\n";
    }
    Result<CheckpointContents> loaded = loadCheckpoint(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::Corrupt);
    std::remove(path.c_str());
}

TEST(Checkpoint, AppendModeKeepsExistingCells)
{
    const std::string path = tempJournal("append");
    const CheckpointMeta meta = sampleMeta();
    {
        CheckpointWriter writer(path, meta, false);
        writer.append(sampleCell(0));
    }
    {
        // Resume-style reopen: header must not be duplicated.
        CheckpointWriter writer(path, meta, true);
        writer.append(sampleCell(1));
    }
    Result<CheckpointContents> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_EQ(loaded.value().cells.size(), 2u);
    EXPECT_EQ(loaded.value().skippedLines, 0u);
    EXPECT_EQ(loaded.value().meta, meta);
    std::remove(path.c_str());
}

TEST(Checkpoint, MetaMismatchIsDetectable)
{
    const std::string path = tempJournal("meta");
    {
        CheckpointWriter writer(path, sampleMeta(), false);
    }
    CheckpointMeta other = sampleMeta();
    other.policies = {"NRU"};
    Result<CheckpointContents> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded.value().meta == sampleMeta());
    EXPECT_TRUE(loaded.value().meta != other);
    std::remove(path.c_str());
}

TEST(Checkpoint, ConcurrentAppendersTearNoLines)
{
    // Regression for the writer's thread-safety contract: the
    // sharded service path appends from several driver threads at
    // once; every journaled line must stay whole and checksummed.
    const std::string path = tempJournal("concurrent");
    constexpr unsigned kThreads = 8;
    constexpr std::uint32_t kCellsPerThread = 25;
    {
        CheckpointWriter writer(path, sampleMeta(), false);
        std::vector<std::thread> appenders;
        appenders.reserve(kThreads);
        for (unsigned t = 0; t < kThreads; ++t) {
            appenders.emplace_back([&writer, t] {
                for (std::uint32_t i = 0; i < kCellsPerThread; ++i)
                    writer.append(
                        sampleCell(t * kCellsPerThread + i));
            });
        }
        for (std::thread &t : appenders)
            t.join();
        writer.sync();
    }

    Result<CheckpointContents> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_EQ(loaded.value().skippedLines, 0u);
    ASSERT_EQ(loaded.value().cells.size(),
              static_cast<std::size_t>(kThreads) * kCellsPerThread);
    for (std::uint32_t f = 0; f < kThreads * kCellsPerThread; ++f) {
        const SweepCell want = sampleCell(f);
        const auto it = loaded.value().cells.find(want.key);
        ASSERT_NE(it, loaded.value().cells.end()) << f;
        expectCellEqual(it->second, want);
    }
    std::remove(path.c_str());
}

namespace
{

/**
 * checkpointCellLine(sampleCell(0)) with @p edit applied to its
 * checksummed prefix and the result sealed again, so only the shape
 * can make a reader refuse it.
 */
std::string
resealedCellLine(const std::function<void(std::string &)> &edit)
{
    std::string prefix = checkpointCellLine(sampleCell(0));
    prefix.pop_back();  // '\n'
    EXPECT_TRUE(unsealJournalLine(prefix));
    edit(prefix);
    return sealJournalLine(std::move(prefix));
}

/** Replace the one occurrence of @p from in @p text by @p to. */
void
replaceOnce(std::string &text, const std::string &from,
            const std::string &to)
{
    const std::size_t pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
}

/** Whether @p line parses as a characterized cell. */
bool
parses(const std::string &line)
{
    SweepCell cell;
    return parseCheckpointCellLine(line, true, cell);
}

/** sampleCell() without its characterization. */
SweepCell
uncharacterizedCell(std::uint32_t frame)
{
    SweepCell cell = sampleCell(frame);
    cell.result.characterization.reset();
    return cell;
}

} // namespace

TEST(Checkpoint, ResealedUnchangedLineParses)
{
    EXPECT_TRUE(parses(resealedCellLine([](std::string &) {})));
}

TEST(Checkpoint, ReorderedFieldsAreTorn)
{
    EXPECT_FALSE(parses(resealedCellLine([](std::string &s) {
        replaceOnce(s, "\"writebacks\":777,\"evictions\":888",
                    "\"evictions\":888,\"writebacks\":777");
    })));
}

TEST(Checkpoint, ExtraFieldIsTorn)
{
    EXPECT_FALSE(parses(
        resealedCellLine([](std::string &s) { s += ",\"extra\":1"; })));
}

TEST(Checkpoint, ShortFillsRowIsTorn)
{
    EXPECT_FALSE(parses(resealedCellLine([](std::string &s) {
        // Drop the last count of the last fills row.
        ASSERT_EQ(s.compare(s.size() - 2, 2, "]]"), 0);
        const std::size_t comma = s.rfind(',');
        s.erase(comma, s.size() - 2 - comma);
    })));
}

TEST(Checkpoint, WhitespaceBetweenTokensIsTorn)
{
    EXPECT_FALSE(parses(resealedCellLine([](std::string &s) {
        replaceOnce(s, "\"frame\":0", "\"frame\": 0");
    })));
}

TEST(Checkpoint, CounterOfTwoToTheFiftyThreeIsTorn)
{
    // The JSON reader holds numbers as doubles, exact below 2^53; a
    // counter beyond that cannot round-trip, so its cell is re-done.
    SweepCell cell = sampleCell(0);
    cell.result.stats.writebacks = (1ull << 53) - 1;
    EXPECT_TRUE(parses(checkpointCellLine(cell)));
    cell.result.stats.writebacks = 1ull << 53;
    EXPECT_FALSE(parses(checkpointCellLine(cell)));
}

TEST(Checkpoint, UncharacterizedCellLineRoundTrips)
{
    const SweepCell want = uncharacterizedCell(3);
    const std::string line = checkpointCellLine(want);
    EXPECT_EQ(line.find("\"chz\""), std::string::npos);
    EXPECT_EQ(line.find("\"tex_reach\""), std::string::npos);

    SweepCell got;
    ASSERT_TRUE(parseCheckpointCellLine(line, false, got));
    expectCellEqual(got, want);
    EXPECT_FALSE(got.result.characterization.has_value());
}

TEST(Checkpoint, LineOfTheOtherShapeIsTorn)
{
    SweepCell cell;
    EXPECT_FALSE(parseCheckpointCellLine(
        checkpointCellLine(uncharacterizedCell(0)), true, cell));
    EXPECT_FALSE(parseCheckpointCellLine(
        checkpointCellLine(sampleCell(0)), false, cell));
}

TEST(Checkpoint, DeclarationIsPartOfTheMeta)
{
    // A characterized header is the one written before the
    // declaration existed; an uncharacterized one says so, and the
    // two metas differ, so a resume under the other declaration is
    // refused like any other configuration mismatch.
    CheckpointMeta plain = sampleMeta();
    plain.characterize = false;
    for (const CheckpointMeta &meta : {sampleMeta(), plain}) {
        const std::string path = tempJournal("declared");
        {
            CheckpointWriter writer(path, meta, false);
            writer.append(meta.characterize ? sampleCell(0)
                                            : uncharacterizedCell(0));
        }
        std::string header;
        {
            std::ifstream is(path, std::ios::binary);
            std::getline(is, header);
        }
        EXPECT_EQ(header.find("characterize") == std::string::npos,
                  meta.characterize)
            << header;

        Result<CheckpointContents> loaded = loadCheckpoint(path);
        ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
        EXPECT_EQ(loaded.value().meta, meta);
        EXPECT_EQ(loaded.value().cells.size(), 1u);
        EXPECT_EQ(loaded.value().skippedLines, 0u);
        std::remove(path.c_str());
    }
    EXPECT_NE(sampleMeta(), plain);
}

TEST(CheckpointDeathTest, CellOfTheOtherShapeIsNotJournaled)
{
#ifdef GLLC_DISABLE_ASSERTS
    GTEST_SKIP() << "GLLC_ASSERT compiled out (-DGLLC_ASSERTS=OFF)";
#endif
    const std::string path = tempJournal("shape");
    EXPECT_DEATH(
        {
            CheckpointWriter writer(path, sampleMeta(), false);
            writer.append(uncharacterizedCell(0));
        },
        "does not have the journal's shape");
    std::remove(path.c_str());
}
