/**
 * @file
 * Wire-protocol tests for the gllcd sweep service: frame round
 * trips, hostile input (truncated, oversized, garbage) surfacing as
 * typed errors, and envelope / response-frame serialization.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>
#include <thread>

#include "service/protocol.hh"

using namespace gllc;

namespace
{

/** A connected socket pair closed on scope exit. */
struct SocketPair
{
    int fds[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }
    ~SocketPair()
    {
        closeWrite();
        if (fds[1] >= 0)
            ::close(fds[1]);
    }
    void
    closeWrite()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        fds[0] = -1;
    }
    int writer() const { return fds[0]; }
    int reader() const { return fds[1]; }
};

/** Write raw bytes, bypassing the framing layer. */
void
writeRaw(int fd, const std::string &bytes)
{
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
}

} // namespace

TEST(ServiceProtocol, FrameRoundTrip)
{
    SocketPair pair;
    const std::string payload = "{\"hello\":\"world\"}";
    ASSERT_TRUE(writeFrame(pair.writer(), payload).ok());
    ASSERT_TRUE(writeFrame(pair.writer(), "").ok());  // empty frame

    std::string got;
    Result<bool> read = readFrame(pair.reader(), got);
    ASSERT_TRUE(read.ok()) << read.error().toString();
    EXPECT_TRUE(read.value());
    EXPECT_EQ(got, payload);

    read = readFrame(pair.reader(), got);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read.value());
    EXPECT_EQ(got, "");
}

TEST(ServiceProtocol, CleanEofIsNotAnError)
{
    SocketPair pair;
    pair.closeWrite();
    std::string got;
    Result<bool> read = readFrame(pair.reader(), got);
    ASSERT_TRUE(read.ok()) << read.error().toString();
    EXPECT_FALSE(read.value());
}

TEST(ServiceProtocol, TruncatedHeaderIsTruncated)
{
    SocketPair pair;
    writeRaw(pair.writer(), std::string("\x00\x00", 2));
    pair.closeWrite();
    std::string got;
    Result<bool> read = readFrame(pair.reader(), got);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, ErrorCode::Truncated);
}

TEST(ServiceProtocol, TruncatedBodyIsTruncated)
{
    SocketPair pair;
    // Header promises 8 bytes; deliver 3 and hang up.
    writeRaw(pair.writer(),
             std::string("\x00\x00\x00\x08", 4) + "abc");
    pair.closeWrite();
    std::string got;
    Result<bool> read = readFrame(pair.reader(), got);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, ErrorCode::Truncated);
}

TEST(ServiceProtocol, OversizedFrameIsRejectedBeforeAllocation)
{
    SocketPair pair;
    // 0xFFFFFFFF-byte declared length: must be rejected from the
    // header alone, without waiting for (or allocating) the body.
    writeRaw(pair.writer(), std::string("\xff\xff\xff\xff", 4));
    std::string got;
    Result<bool> read = readFrame(pair.reader(), got);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, ErrorCode::LimitExceeded);

    const std::string big(kMaxFrameBytes + 1, 'x');
    Result<Unit> wrote = writeFrame(pair.writer(), big);
    ASSERT_FALSE(wrote.ok());
    EXPECT_EQ(wrote.error().code, ErrorCode::LimitExceeded);
}

TEST(ServiceProtocol, WriteToClosedPeerIsIo)
{
    SocketPair pair;
    ::close(pair.fds[1]);
    pair.fds[1] = -1;
    // SIGPIPE must already be ignored (clients and daemon both do
    // this); the test harness does it here.
    ::signal(SIGPIPE, SIG_IGN);
    Result<Unit> wrote =
        writeFrame(pair.writer(), std::string(1 << 16, 'x'));
    ASSERT_FALSE(wrote.ok());
    EXPECT_EQ(wrote.error().code, ErrorCode::Io);
}

TEST(ServiceProtocol, SubmitEnvelopeRoundTrip)
{
    Result<RequestEnvelope> env =
        parseRequestEnvelope(submitEnvelopeJson("acme", -3));
    ASSERT_TRUE(env.ok()) << env.error().toString();
    EXPECT_EQ(env.value().type, RequestType::Submit);
    EXPECT_EQ(env.value().tenant, "acme");
    EXPECT_EQ(env.value().priority, -3);
}

TEST(ServiceProtocol, V1StatusEnvelopeIsInvalidArgument)
{
    // The first status request is gone; status_v2 carries its
    // fields.  Its envelope is an unknown type, answered typed.
    Result<RequestEnvelope> env =
        parseRequestEnvelope("{\"gllcd\":1,\"type\":\"status\"}");
    ASSERT_FALSE(env.ok());
    EXPECT_EQ(env.error().code, ErrorCode::InvalidArgument);
}

TEST(ServiceProtocol, StatusV2EnvelopeRoundTrip)
{
    // StatusV2 shares the protocol version: a daemon that predates
    // it rejects it as a bad request, nothing worse.
    Result<RequestEnvelope> env =
        parseRequestEnvelope(statusV2EnvelopeJson());
    ASSERT_TRUE(env.ok()) << env.error().toString();
    EXPECT_EQ(env.value().type, RequestType::StatusV2);
    EXPECT_NE(statusV2EnvelopeJson().find("\"status_v2\""),
              std::string::npos);
}

TEST(ServiceProtocol, GarbageEnvelopeIsCorrupt)
{
    Result<RequestEnvelope> env =
        parseRequestEnvelope("this is not json");
    ASSERT_FALSE(env.ok());
    EXPECT_EQ(env.error().code, ErrorCode::Corrupt);
}

TEST(ServiceProtocol, ForeignDocumentIsBadMagic)
{
    Result<RequestEnvelope> env =
        parseRequestEnvelope("{\"type\":\"submit\"}");
    ASSERT_FALSE(env.ok());
    EXPECT_EQ(env.error().code, ErrorCode::BadMagic);
}

TEST(ServiceProtocol, FutureProtocolIsBadVersion)
{
    Result<RequestEnvelope> env = parseRequestEnvelope(
        "{\"gllcd\":99,\"type\":\"submit\"}");
    ASSERT_FALSE(env.ok());
    EXPECT_EQ(env.error().code, ErrorCode::BadVersion);
}

TEST(ServiceProtocol, UnknownRequestTypeIsInvalidArgument)
{
    Result<RequestEnvelope> env = parseRequestEnvelope(
        "{\"gllcd\":1,\"type\":\"dance\"}");
    ASSERT_FALSE(env.ok());
    EXPECT_EQ(env.error().code, ErrorCode::InvalidArgument);
}

TEST(ServiceProtocol, ResultHeaderRoundTrip)
{
    ResultHeader header;
    header.jobId = 42;
    header.cached = true;
    header.specHash = UINT64_C(0xdeadbeefcafef00d);
    header.traceHash = UINT64_C(0x0123456789abcdef);
    header.quarantined = 3;
    header.wallSeconds = 1.5;

    ResultHeader got;
    Error error;
    Result<bool> kind = parseResponseFrame(resultHeaderJson(header),
                                           got, error);
    ASSERT_TRUE(kind.ok()) << kind.error().toString();
    EXPECT_TRUE(kind.value());
    EXPECT_EQ(got.jobId, header.jobId);
    EXPECT_EQ(got.cached, header.cached);
    EXPECT_EQ(got.specHash, header.specHash);
    EXPECT_EQ(got.traceHash, header.traceHash);
    EXPECT_EQ(got.quarantined, header.quarantined);
    EXPECT_DOUBLE_EQ(got.wallSeconds, header.wallSeconds);
}

TEST(ServiceProtocol, ErrorFrameRoundTripPreservesCode)
{
    const Error sent{ErrorCode::LimitExceeded,
                     "frame of 100 MB exceeds the 64 MB cap"};
    ResultHeader header;
    Error got;
    Result<bool> kind =
        parseResponseFrame(errorFrameJson(sent), header, got);
    ASSERT_TRUE(kind.ok()) << kind.error().toString();
    EXPECT_FALSE(kind.value());
    EXPECT_EQ(got.code, ErrorCode::LimitExceeded);
    EXPECT_NE(got.context.find("64 MB cap"), std::string::npos);
}

TEST(ServiceProtocol, GarbageResponseFrameIsCorrupt)
{
    ResultHeader header;
    Error error;
    Result<bool> kind =
        parseResponseFrame("\x00\x01garbage", header, error);
    ASSERT_FALSE(kind.ok());
    EXPECT_EQ(kind.error().code, ErrorCode::Corrupt);
}

TEST(ServiceProtocol, ShedFrameRoundTrip)
{
    ShedInfo sent;
    sent.reason = "queue_full";
    sent.retryAfterMs = 700;

    ResultHeader header;
    Error error;
    ShedInfo got;
    Result<bool> kind = parseResponseFrame(shedFrameJson(sent),
                                           header, error, &got);
    ASSERT_TRUE(kind.ok()) << kind.error().toString();
    // A shed is "not a result": the caller sees a typed Overloaded
    // error plus the machine-readable reason and backoff hint.
    EXPECT_FALSE(kind.value());
    EXPECT_EQ(error.code, ErrorCode::Overloaded);
    EXPECT_EQ(got.reason, "queue_full");
    EXPECT_EQ(got.retryAfterMs, 700);

    // Callers that don't care about the details may pass no out
    // param and still get the typed error.
    kind = parseResponseFrame(shedFrameJson(sent), header, error);
    ASSERT_TRUE(kind.ok());
    EXPECT_FALSE(kind.value());
    EXPECT_EQ(error.code, ErrorCode::Overloaded);
}

TEST(ServiceProtocol, ReadFrameDeadlineCatchesSlowloris)
{
    SocketPair pair;
    // Two header bytes, then silence: without a deadline this read
    // would block forever; with one it must fail as Timeout, fast.
    writeRaw(pair.writer(), std::string("\x00\x00", 2));
    std::string got;
    const auto before = std::chrono::steady_clock::now();
    Result<bool> read = readFrame(pair.reader(), got, 50);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - before);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, ErrorCode::Timeout);
    EXPECT_GE(elapsed.count(), 45);
    EXPECT_LT(elapsed.count(), 5000);
}

TEST(ServiceProtocol, ReadFrameDeadlineCoversTheBodyToo)
{
    SocketPair pair;
    // A complete header promising 8 bytes, 3 delivered, then stall.
    writeRaw(pair.writer(),
             std::string("\x00\x00\x00\x08", 4) + "abc");
    std::string got;
    Result<bool> read = readFrame(pair.reader(), got, 50);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, ErrorCode::Timeout);
}

TEST(ServiceProtocol, WriteFrameDeadlineCatchesUnreadPeer)
{
    SocketPair pair;
    // The peer never reads, so the kernel buffers fill and the
    // write must time out rather than block the daemon forever.
    ::signal(SIGPIPE, SIG_IGN);
    Result<Unit> wrote = Unit{};
    for (int i = 0; i < 64 && wrote.ok(); ++i)
        wrote = writeFrame(pair.writer(),
                           std::string(1 << 20, 'x'), 50);
    ASSERT_FALSE(wrote.ok());
    EXPECT_EQ(wrote.error().code, ErrorCode::Timeout);
}

TEST(ServiceProtocol, ZeroTimeoutStaysFullyBlocking)
{
    // timeout_ms = 0 is the legacy contract: no deadline at all.
    // Deliver the frame from another thread after a pause longer
    // than any plausible accidental default.
    SocketPair pair;
    std::thread writer([&] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
        ASSERT_TRUE(writeFrame(pair.writer(), "late").ok());
    });
    std::string got;
    Result<bool> read = readFrame(pair.reader(), got, 0);
    writer.join();
    ASSERT_TRUE(read.ok()) << read.error().toString();
    EXPECT_TRUE(read.value());
    EXPECT_EQ(got, "late");
}

TEST(ServiceProtocol, PeerClosedSeesHangupAndLiveness)
{
    SocketPair pair;
    // A connected, quiet peer is not closed.
    EXPECT_FALSE(peerClosed(pair.reader()));
    // Buffered unread data alone must not read as a hangup.
    writeRaw(pair.writer(), "ping");
    EXPECT_FALSE(peerClosed(pair.reader()));
    // After the peer hangs up it must read as closed (even with
    // that data still buffered: the daemon's question is "is
    // anybody still waiting", not "is the buffer empty").
    pair.closeWrite();
    EXPECT_TRUE(peerClosed(pair.reader()));
}
