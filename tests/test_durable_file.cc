/**
 * @file
 * Tests for the durable-file module: the sealed journal's torn-tail
 * trim, header-once and disable-on-failure behaviour, and atomic
 * writes from racing threads.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/durable_file.hh"
#include "common/json.hh"

using namespace gllc;

namespace
{

/** A fresh (emptied) directory under TempDir(). */
std::string
freshDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "/gllc_durable_"
        + std::to_string(::getpid()) + "_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

const std::string kHeader = sealJournalLine("{\"test_journal\":1");

std::string
line(int n)
{
    return sealJournalLine("{\"n\":" + std::to_string(n));
}

/** The lines of the journal at @p path after its header. */
std::vector<std::string>
loadLines(const std::string &path, std::size_t &skipped)
{
    std::vector<std::string> lines;
    Result<std::size_t> loaded = loadSealed(
        path, "test journal",
        [](const std::string &header) {
            return sameSealedLine(kHeader, header);
        },
        [&lines](const std::string &text) {
            JsonValue doc;
            if (!parseSealedLine(text, doc))
                return false;
            lines.push_back(text + "\n");
            return true;
        });
    EXPECT_TRUE(loaded.ok()) << loaded.error().toString();
    skipped = loaded.ok() ? loaded.value() : 0;
    return lines;
}

} // namespace

TEST(SealedJournal, TornTailIsTrimmedOnOpen)
{
    const std::string path = freshDir("torn") + "/j.jsonl";
    {
        SealedJournal journal;
        ASSERT_TRUE(journal.open(path, false, kHeader, 1).ok());
        journal.append(line(1));
        journal.append(line(2));
    }
    // A writer killed mid-line leaves a fragment without '\n'.
    const std::string torn = line(3).substr(0, 9);
    std::ofstream(path, std::ios::binary | std::ios::app) << torn;
    std::size_t skipped = 0;
    EXPECT_EQ(loadLines(path, skipped).size(), 2u);
    EXPECT_EQ(skipped, 1u);

    {
        SealedJournal journal;
        ASSERT_TRUE(journal.open(path, true, kHeader, 1).ok());
        journal.append(line(4));
    }
    EXPECT_EQ(slurp(path), kHeader + line(1) + line(2) + line(4));
    EXPECT_EQ(loadLines(path, skipped),
              (std::vector<std::string>{line(1), line(2), line(4)}));
    EXPECT_EQ(skipped, 0u);

    // A file holding only a fragment trims to empty and so gets its
    // header.
    std::ofstream(path, std::ios::binary | std::ios::trunc) << torn;
    {
        SealedJournal journal;
        ASSERT_TRUE(journal.open(path, true, kHeader, 1).ok());
    }
    EXPECT_EQ(slurp(path), kHeader);
}

TEST(SealedJournal, HeaderIsWrittenExactlyOnceAcrossReopen)
{
    const std::string path = freshDir("header") + "/j.jsonl";
    for (int n = 1; n <= 3; ++n) {
        SealedJournal journal;
        ASSERT_TRUE(journal.open(path, true, kHeader, 16).ok());
        EXPECT_TRUE(journal.active());
        journal.append(line(n));
    }
    EXPECT_EQ(slurp(path), kHeader + line(1) + line(2) + line(3));

    // Truncate mode starts over, header included.
    {
        SealedJournal journal;
        ASSERT_TRUE(journal.open(path, false, kHeader, 16).ok());
        journal.append(line(9));
    }
    EXPECT_EQ(slurp(path), kHeader + line(9));

    SealedJournal journal;
    ASSERT_TRUE(journal.open(path, true, kHeader, 1).ok());
    Result<Unit> again = journal.open(path, true, kHeader, 1);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.error().code, ErrorCode::InvalidArgument);
}

/**
 * A write that fails disables the journal: later appends are dropped
 * without error, and the partial line it left is a torn tail that
 * the next open trims.  The child process appends under a 100-byte
 * file-size limit with SIGXFSZ ignored, so its write gets EFBIG.
 */
TEST(SealedJournal, FailedWriteDisablesTheJournal)
{
    const std::string path = freshDir("fail") + "/j.jsonl";
    const std::string long_line =
        sealJournalLine("{\"pad\":\"" + std::string(200, 'x') + "\"");

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        SealedJournal journal;
        if (!journal.open(path, false, kHeader, 1).ok()
            || !journal.active())
            std::_Exit(2);
        struct rlimit limit;
        limit.rlim_cur = limit.rlim_max = 100;
        std::signal(SIGXFSZ, SIG_IGN);
        if (::setrlimit(RLIMIT_FSIZE, &limit) != 0)
            std::_Exit(3);
        journal.append(long_line);
        const bool disabled = !journal.active();
        journal.append(line(1));  // dropped, not a crash
        std::_Exit(disabled ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "journal stayed active";

    const std::string left = slurp(path);
    EXPECT_EQ(left.size(), 100u);
    EXPECT_EQ(left.compare(0, kHeader.size(), kHeader), 0);
    std::size_t skipped = 0;
    EXPECT_TRUE(loadLines(path, skipped).empty());
    EXPECT_EQ(skipped, 1u);

    {
        SealedJournal journal;
        ASSERT_TRUE(journal.open(path, true, kHeader, 1).ok());
        journal.append(line(2));
    }
    EXPECT_EQ(slurp(path), kHeader + line(2));
}

TEST(WriteFileAtomically, RacingWritersUseDistinctTempsAndPublishOneFile)
{
    // Eight threads write one path at once.  Each holds its temp file
    // open until all eight exist, so a shared temp name would show as
    // fewer files; afterwards exactly one whole payload is published
    // and no temp file remains.
    const std::string dir = freshDir("race");
    const std::string path = dir + "/out.bin";
    constexpr int kWriters = 8;
    const auto payload = [](int t) {
        return std::string(256 << 10, static_cast<char>('a' + t));
    };
    const auto temp_files = [&dir] {
        std::vector<std::string> names;
        for (const auto &entry : std::filesystem::directory_iterator(dir))
            if (entry.path().filename().string().find(".tmp.")
                != std::string::npos)
                names.push_back(entry.path().filename().string());
        return names;
    };

    std::latch all_open(kWriters);
    std::latch counted(1);
    std::vector<std::string> seen_temps;
    std::vector<Result<Unit>> results(kWriters, Unit{});
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t] {
            results[t] = writeFileAtomically(path, [&](std::ostream &os) {
                all_open.arrive_and_wait();
                if (t == 0) {
                    seen_temps = temp_files();
                    counted.count_down();
                }
                counted.wait();
                os << payload(t);
            });
        });
    }
    for (std::thread &w : writers)
        w.join();

    for (const Result<Unit> &r : results)
        EXPECT_TRUE(r.ok()) << r.error().toString();
    EXPECT_EQ(seen_temps.size(), static_cast<std::size_t>(kWriters));
    for (const std::string &name : seen_temps)
        EXPECT_EQ(name.rfind("out.bin.tmp." + std::to_string(::getpid())
                                 + ".",
                             0),
                  0u)
            << name;
    const std::string published = slurp(path);
    ASSERT_EQ(published.size(), payload(0).size());
    EXPECT_EQ(published,
              payload(published.front() - 'a'));
    EXPECT_TRUE(temp_files().empty());
}
