/**
 * @file
 * Tests for frame-trace binary serialization: round trips, the
 * legacy fatal wrappers, and the hardened typed-error readers fed
 * with a truncation / bit-flip / bad-magic / bad-checksum corpus
 * (directly and through the fault injector).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/durable_file.hh"
#include "common/fault.hh"
#include "common/hash.hh"
#include "trace/trace_io.hh"

using namespace gllc;

namespace
{

FrameTrace
sampleTrace()
{
    FrameTrace t;
    t.name = "App/f3";
    t.app = "App";
    t.frameIndex = 3;
    t.work.shaderOps = 111;
    t.work.texelRequests = 222;
    t.work.pixelsShaded = 333;
    t.work.verticesShaded = 444;
    t.work.rawMemOps = 555;
    t.work.issueCycles = 666;
    for (Addr b = 0; b < 100; ++b) {
        t.accesses.emplace_back(
            b * kBlockBytes,
            static_cast<StreamType>(b % kNumStreams), b % 3 == 0,
            static_cast<std::uint32_t>(b * 7));
    }
    return t;
}

} // namespace

TEST(TraceIo, RoundTripPreservesEverything)
{
    const FrameTrace original = sampleTrace();
    std::stringstream buffer;
    writeTrace(original, buffer);
    const FrameTrace loaded = readTrace(buffer);

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.app, original.app);
    EXPECT_EQ(loaded.frameIndex, original.frameIndex);
    EXPECT_EQ(loaded.work.shaderOps, original.work.shaderOps);
    EXPECT_EQ(loaded.work.texelRequests, original.work.texelRequests);
    EXPECT_EQ(loaded.work.pixelsShaded, original.work.pixelsShaded);
    EXPECT_EQ(loaded.work.verticesShaded,
              original.work.verticesShaded);
    EXPECT_EQ(loaded.work.rawMemOps, original.work.rawMemOps);
    EXPECT_EQ(loaded.work.issueCycles, original.work.issueCycles);
    ASSERT_EQ(loaded.accesses.size(), original.accesses.size());
    for (std::size_t i = 0; i < loaded.accesses.size(); ++i) {
        EXPECT_EQ(loaded.accesses[i].addr, original.accesses[i].addr);
        EXPECT_EQ(loaded.accesses[i].stream,
                  original.accesses[i].stream);
        EXPECT_EQ(loaded.accesses[i].isWrite,
                  original.accesses[i].isWrite);
        EXPECT_EQ(loaded.accesses[i].cycle,
                  original.accesses[i].cycle);
    }
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    FrameTrace t;
    t.name = "empty";
    std::stringstream buffer;
    writeTrace(t, buffer);
    const FrameTrace loaded = readTrace(buffer);
    EXPECT_EQ(loaded.name, "empty");
    EXPECT_TRUE(loaded.accesses.empty());
}

TEST(TraceIo, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/gllc_trace.bin";
    const FrameTrace original = sampleTrace();
    writeTraceFile(original, path);
    const FrameTrace loaded = readTraceFile(path);
    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.accesses.size(), original.accesses.size());
    std::remove(path.c_str());
}

TEST(TraceIoDeath, BadMagicIsFatal)
{
    std::stringstream buffer;
    buffer << "NOTATRACEFILE-----------";
    EXPECT_EXIT(readTrace(buffer), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST(TraceIoDeath, TruncatedFileIsFatal)
{
    std::stringstream buffer;
    writeTrace(sampleTrace(), buffer);
    const std::string full = buffer.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_EXIT(readTrace(truncated), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(TraceIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(readTraceFile("/nonexistent/path/trace.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
}

// ---------------------------------------------------------------
// Typed-error readers: corrupt inputs must come back as errors,
// never as aborts and never as silently wrong data.
// ---------------------------------------------------------------

TEST(TraceIoTyped, MissingFileIsIoError)
{
    Result<FrameTrace> r =
        tryReadTraceFile("/nonexistent/path/trace.bin");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::Io);
    // The path rides in the context for quarantine reports.
    EXPECT_NE(r.error().context.find("/nonexistent/path/trace.bin"),
              std::string::npos);
}

TEST(TraceIoTyped, BadMagicIsTyped)
{
    std::stringstream buffer;
    buffer << "NOTATRACEFILE-----------";
    Result<FrameTrace> r = tryReadTrace(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::BadMagic);
}

TEST(TraceIoTyped, UnsupportedVersionIsTyped)
{
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    std::string bytes = good.str();
    bytes[7] = '9';  // version byte of "GLLCTRC3"
    std::stringstream buffer(bytes);
    Result<FrameTrace> r = tryReadTrace(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::BadVersion);
}

TEST(TraceIoTyped, TruncationAtEveryLengthIsAnError)
{
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    const std::string full = good.str();
    for (std::size_t len = 0; len < full.size(); ++len) {
        std::stringstream cut(full.substr(0, len));
        Result<FrameTrace> r = tryReadTrace(cut);
        ASSERT_FALSE(r.ok()) << "prefix length " << len;
        const ErrorCode code = r.error().code;
        EXPECT_TRUE(code == ErrorCode::Truncated
                    || code == ErrorCode::BadMagic
                    || code == ErrorCode::BadVersion
                    || code == ErrorCode::LimitExceeded
                    || code == ErrorCode::ChecksumMismatch)
            << "prefix length " << len << ": "
            << r.error().toString();
    }
}

TEST(TraceIoTyped, AnySingleBitFlipIsDetected)
{
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    const std::string full = good.str();
    // Flip one bit per byte position (cycling through the bits) and
    // demand a typed error every time: the checksums must leave no
    // silently-accepted corruption.
    for (std::size_t i = 0; i < full.size(); ++i) {
        std::string bytes = full;
        bytes[i] = static_cast<char>(
            static_cast<unsigned char>(bytes[i]) ^ (1u << (i % 8)));
        std::stringstream buffer(bytes);
        Result<FrameTrace> r = tryReadTrace(buffer);
        EXPECT_FALSE(r.ok()) << "flipped bit " << i % 8
                             << " of byte " << i;
    }
}

TEST(TraceIo, ReadsVersion2Files)
{
    // Version 2 is version 3's layout with an fnv1a64 record checksum.
    const FrameTrace original = sampleTrace();
    std::stringstream v3;
    writeTrace(original, v3);
    std::string bytes = v3.str();
    ASSERT_EQ(bytes[7], '3');
    bytes[7] = '2';
    const std::size_t record_bytes =
        original.accesses.size() * sizeof(MemAccess);
    const std::uint64_t record_hash =
        fnv1a64(original.accesses.data(), record_bytes);
    std::memcpy(&bytes[bytes.size() - sizeof(record_hash)],
                &record_hash, sizeof(record_hash));
    std::stringstream v2(bytes);
    Result<FrameTrace> loaded = tryReadTrace(v2);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    ASSERT_EQ(loaded.value().accesses.size(), original.accesses.size());
    EXPECT_EQ(loaded.value().accesses.back().addr,
              original.accesses.back().addr);

    bytes[bytes.size() - 16] ^= 0x40;
    std::stringstream rotten(bytes);
    Result<FrameTrace> bad = tryReadTrace(rotten);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::ChecksumMismatch);
}

TEST(TraceIoChecksum, LaneHashCatchesSingleAndPairedFlips)
{
    std::vector<unsigned char> buf(32 * 8 + 5);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i * 37 + 11);
    const std::uint64_t clean = laneHash64(buf.data(), buf.size());
    // Every single bit, the trailing partial word included.
    for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
        buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        EXPECT_NE(laneHash64(buf.data(), buf.size()), clean)
            << "bit " << bit;
        buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }
    // The same bit of two words of one lane: a plain xor-multiply
    // lane would let top-bit flips cancel.
    for (std::size_t bit = 0; bit < 64; ++bit) {
        for (const std::size_t word : {0u, 4u}) {
            buf[word * 8 + bit / 8] ^=
                static_cast<unsigned char>(1u << (bit % 8));
        }
        EXPECT_NE(laneHash64(buf.data(), buf.size()), clean)
            << "bit " << bit << " of words 0 and 4";
        for (const std::size_t word : {0u, 4u}) {
            buf[word * 8 + bit / 8] ^=
                static_cast<unsigned char>(1u << (bit % 8));
        }
    }
    // The length is hashed: a zero byte appended changes the sum.
    buf.push_back(0);
    EXPECT_NE(laneHash64(buf.data(), buf.size()), clean);
}

TEST(TraceIoTyped, CorruptRecordIsChecksumMismatch)
{
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    std::string bytes = good.str();
    // The record block sits before the trailing 8-byte checksum.
    bytes[bytes.size() - 16] ^= 0x40;
    std::stringstream buffer(bytes);
    Result<FrameTrace> r = tryReadTrace(buffer);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ChecksumMismatch);
}

TEST(TraceIoTyped, InjectedTruncationIsTypedAndAttributed)
{
    configureFaults("trace.truncate:p=1,n=1");
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    Result<FrameTrace> r = tryReadTrace(good);
    configureFaults("");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::Truncated);
    EXPECT_NE(r.error().context.find("injected"), std::string::npos);
}

TEST(TraceIoTyped, InjectedBitFlipIsCaughtByChecksum)
{
    configureFaults("trace.bitflip:p=1,n=1,seed=3");
    std::stringstream good;
    writeTrace(sampleTrace(), good);
    Result<FrameTrace> r = tryReadTrace(good);
    configureFaults("");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ChecksumMismatch);
}

TEST(TraceIoTyped, InjectorCorpusNeverCrashesTheReader)
{
    // Sustained low-probability corruption across many reads: every
    // outcome is either a clean trace or a typed error.
    configureFaults(
        "trace.bitflip:p=0.3,seed=11;trace.truncate:p=0.3,seed=12");
    const FrameTrace original = sampleTrace();
    std::size_t ok = 0, failed = 0;
    for (int i = 0; i < 64; ++i) {
        std::stringstream buffer;
        writeTrace(original, buffer);
        Result<FrameTrace> r = tryReadTrace(buffer);
        if (r.ok()) {
            ++ok;
            EXPECT_EQ(r.value().accesses.size(),
                      original.accesses.size());
        } else {
            ++failed;
        }
    }
    configureFaults("");
    EXPECT_GT(failed, 0u);
    EXPECT_EQ(ok + failed, 64u);
}

TEST(TraceIoAtomic, ConcurrentWritersNeverExposeATornFile)
{
    // Writers in several threads (standing in for workers sharing a
    // trace cache) publish the same trace to one path while a reader
    // loops over it: every read finds no file or the whole trace.
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir())
        / ("gllc_trace_atomic_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "tr.gltrc").string();

    FrameTrace trace = sampleTrace();
    for (Addr b = 0; b < 100000; ++b)
        trace.accesses.emplace_back(
            b * kBlockBytes, static_cast<StreamType>(b % kNumStreams),
            b % 5 == 0, static_cast<std::uint32_t>(b));
    std::stringstream expected;
    writeTrace(trace, expected);

    constexpr unsigned kWriters = 4;
    constexpr unsigned kWritesEach = 15;
    std::atomic<unsigned> writers_left{kWriters};
    std::vector<std::thread> writers;
    std::vector<Result<Unit>> results(kWriters * kWritesEach, Unit{});
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (unsigned i = 0; i < kWritesEach; ++i)
                results[w * kWritesEach + i] =
                    tryWriteTraceFile(trace, path);
            writers_left.fetch_sub(1);
        });
    }
    unsigned whole = 0;
    unsigned absent = 0;
    std::vector<std::string> bad;
    while (writers_left.load() > 0) {
        Result<FrameTrace> read = tryReadTraceFile(path);
        if (!read.ok()) {
            if (read.error().code == ErrorCode::Io)
                ++absent;
            else
                bad.push_back(read.error().toString());
            continue;
        }
        std::stringstream again;
        writeTrace(read.value(), again);
        if (again.str() == expected.str())
            ++whole;
        else
            bad.push_back("read a different trace");
    }
    for (std::thread &t : writers)
        t.join();

    EXPECT_TRUE(bad.empty()) << bad.size() << " bad reads, first: "
                             << bad.front();
    EXPECT_GT(whole + absent, 0u);
    for (const Result<Unit> &r : results)
        EXPECT_TRUE(r.ok()) << r.error().toString();
    Result<FrameTrace> final_read = tryReadTraceFile(path);
    ASSERT_TRUE(final_read.ok()) << final_read.error().toString();
    std::vector<std::string> leftovers;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        if (entry.path().filename() != "tr.gltrc")
            leftovers.push_back(entry.path().filename().string());
    EXPECT_TRUE(leftovers.empty()) << leftovers.front();
    fs::remove_all(dir);
}

TEST(TraceIoAtomic, FailedWriteLeavesNoTempFile)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir())
        / ("gllc_trace_atomic_fail_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir / "target");
    // rename() onto a non-empty directory fails after the temp file
    // is fully written: that temp file must be cleaned up.
    std::ofstream(dir / "target" / "keep") << "x";
    Result<Unit> written =
        tryWriteTraceFile(sampleTrace(), (dir / "target").string());
    EXPECT_FALSE(written.ok());
    std::vector<std::string> entries;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        entries.push_back(entry.path().filename().string());
    EXPECT_EQ(entries, std::vector<std::string>{"target"});
    fs::remove_all(dir);
}

TEST(TraceIoAtomic, RemoveTempFilesByWriterOrAll)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir())
        / ("gllc_trace_atomic_rm_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const char *name :
         {"a.gltrc.tmp.41.0", "b.gltrc.tmp.41.7", "a.gltrc.tmp.4.0",
          "a.gltrc.tmp.411.0", "a.gltrc"})
        std::ofstream(dir / name) << "x";
    const auto names = [&] {
        std::vector<std::string> out;
        for (const fs::directory_entry &entry :
             fs::directory_iterator(dir))
            out.push_back(entry.path().filename().string());
        std::sort(out.begin(), out.end());
        return out;
    };

    EXPECT_EQ(removeTempFiles(dir.string(), 41), 2u);
    EXPECT_EQ(names(), (std::vector<std::string>{
                           "a.gltrc", "a.gltrc.tmp.4.0",
                           "a.gltrc.tmp.411.0"}));
    EXPECT_EQ(removeTempFiles(dir.string()), 2u);
    EXPECT_EQ(names(), std::vector<std::string>{"a.gltrc"});
    EXPECT_EQ(removeTempFiles((dir / "missing").string()), 0u);
    fs::remove_all(dir);
}
