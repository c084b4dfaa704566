/**
 * @file
 * Tests for the content-addressed sweep result store.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/result_store.hh"

using namespace gllc;

namespace
{

/** A fresh (emptied) store root — TempDir() outlives test runs. */
std::string
storeRoot(const std::string &tag)
{
    const std::string root =
        ::testing::TempDir() + "/gllc_store_" + tag;
    std::filesystem::remove_all(root);
    return root;
}

} // namespace

TEST(ResultStore, StoreLoadContainsRoundTrip)
{
    ResultStore store(storeRoot("roundtrip"));
    ASSERT_TRUE(store.enabled());

    const ResultKey key{UINT64_C(0x1111222233334444),
                        UINT64_C(0x5555666677778888)};
    EXPECT_FALSE(store.contains(key));
    EXPECT_FALSE(store.load(key).ok());

    const std::string payload =
        "{\"cells\":[1,2,3]}\nwith a second line\n";
    Result<Unit> stored = store.store(key, payload);
    ASSERT_TRUE(stored.ok()) << stored.error().toString();

    EXPECT_TRUE(store.contains(key));
    Result<std::string> back = store.load(key);
    ASSERT_TRUE(back.ok()) << back.error().toString();
    EXPECT_EQ(back.value(), payload);

    // The layout is part of the format: scripts and operators look
    // entries up by name.
    EXPECT_NE(store.path(key).find(
                  "tr1111222233334444-sp5555666677778888.json"),
              std::string::npos);
}

TEST(ResultStore, KeysAreIndependent)
{
    ResultStore store(storeRoot("independent"));
    const ResultKey a{1, 1};
    const ResultKey same_trace{1, 2};  // same traces, different spec
    ASSERT_TRUE(store.store(a, "payload-a").ok());
    EXPECT_TRUE(store.contains(a));
    EXPECT_FALSE(store.contains(same_trace));

    ASSERT_TRUE(store.store(same_trace, "payload-b").ok());
    EXPECT_EQ(store.load(a).value(), "payload-a");
    EXPECT_EQ(store.load(same_trace).value(), "payload-b");
}

TEST(ResultStore, OverwriteReplacesAtomically)
{
    ResultStore store(storeRoot("overwrite"));
    const ResultKey key{3, 4};
    ASSERT_TRUE(store.store(key, "old").ok());
    ASSERT_TRUE(store.store(key, "new").ok());
    EXPECT_EQ(store.load(key).value(), "new");
}

TEST(ResultStore, DisabledStoreIsInert)
{
    ResultStore store("");
    EXPECT_FALSE(store.enabled());
    const ResultKey key{9, 9};
    EXPECT_EQ(store.path(key), "");
    EXPECT_FALSE(store.contains(key));
    EXPECT_FALSE(store.load(key).ok());
    // store() succeeds as a no-op: a cache-less daemon is not an
    // error condition.
    EXPECT_TRUE(store.store(key, "payload").ok());
    EXPECT_FALSE(store.contains(key));
}

TEST(ResultStore, LoadOfAbsentKeyIsIo)
{
    ResultStore store(storeRoot("absent"));
    Result<std::string> got = store.load(ResultKey{7, 7});
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code, ErrorCode::Io);
}

/**
 * A write that fails only when the stream is flushed (the payload
 * fits in the stream buffer) must fail the store: nothing published
 * at path(key), no temp file left behind.  The child process writes
 * under a 100-byte file-size limit with SIGXFSZ ignored, so the
 * flush gets EFBIG.
 */
TEST(ResultStore, FailedFlushPublishesNothing)
{
    const std::string root = storeRoot("torn");
    ResultStore store(root);
    const ResultKey key{5, 6};
    ASSERT_TRUE(std::filesystem::create_directories(root));

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        struct rlimit limit;
        limit.rlim_cur = limit.rlim_max = 100;
        std::signal(SIGXFSZ, SIG_IGN);
        if (::setrlimit(RLIMIT_FSIZE, &limit) != 0)
            std::_Exit(2);
        const Result<Unit> stored =
            store.store(key, std::string(4096, 'x'));
        std::_Exit(stored.ok() ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "store() reported success";

    EXPECT_FALSE(std::filesystem::exists(store.path(key)));
    for (const auto &entry : std::filesystem::directory_iterator(root))
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "left behind: " << entry.path();
}
