#include "service/protocol.hh"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hh"

namespace gllc
{

namespace
{

/**
 * A poll() budget: constructed from a timeout in milliseconds,
 * 0 (or negative) meaning unbounded.  Mirrors the raw-fd deadline
 * reader WorkerProcess::receive grew for hung workers — here it
 * bounds hostile or half-open clients.
 */
class Deadline
{
  public:
    explicit Deadline(int timeout_ms) : unbounded_(timeout_ms <= 0)
    {
        if (!unbounded_)
            end_ = std::chrono::steady_clock::now()
                   + std::chrono::milliseconds(timeout_ms);
    }

    /** poll() timeout argument: -1 = wait forever, >= 0 = budget. */
    int
    remainingMs() const
    {
        if (unbounded_)
            return -1;
        const long long left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                end_ - std::chrono::steady_clock::now())
                .count();
        if (left <= 0)
            return 0;
        return static_cast<int>(
            left > INT_MAX ? INT_MAX : left);
    }

  private:
    bool unbounded_;
    std::chrono::steady_clock::time_point end_;
};

/** How a deadline-bounded wait for fd readiness ended. */
enum class IoWait : std::uint8_t
{
    Ready,
    Timeout,
    Error
};

/** Wait for @p events on @p fd within the deadline. */
IoWait
waitForFd(int fd, short events, const Deadline &deadline)
{
    for (;;) {
        const int remaining = deadline.remainingMs();
        if (remaining == 0)
            return IoWait::Timeout;
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = events;
        const int n = ::poll(&pfd, 1, remaining);
        if (n > 0)
            return IoWait::Ready;
        if (n == 0)
            return IoWait::Timeout;
        if (errno != EINTR)
            return IoWait::Error;
    }
}

/** How a deadline-bounded exact-length transfer ended. */
enum class IoStatus : std::uint8_t
{
    Ok,       ///< all bytes transferred
    Eof,      ///< stream ended early (read side only)
    Timeout,  ///< deadline expired mid-transfer
    Error     ///< errno-level failure
};

/**
 * Read exactly @p len bytes within the deadline; @p got reports the
 * transferred count on Eof so framing errors can say how far the
 * stream reached.
 */
IoStatus
readFull(int fd, char *buf, std::size_t len,
         const Deadline &deadline, std::size_t &got)
{
    got = 0;
    while (got < len) {
        const IoWait wait = waitForFd(fd, POLLIN, deadline);
        if (wait == IoWait::Timeout)
            return IoStatus::Timeout;
        if (wait == IoWait::Error)
            return IoStatus::Error;
        // Non-blocking for the same reason as writeFull: a spurious
        // POLLIN must loop back to poll(), not block past the
        // deadline.
        const ssize_t n =
            ::recv(fd, buf + got, len - got, MSG_DONTWAIT);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN
                || errno == EWOULDBLOCK)
                continue;
            return IoStatus::Error;
        }
        if (n == 0)
            return IoStatus::Eof;
        got += static_cast<std::size_t>(n);
    }
    return IoStatus::Ok;
}

/** Write all of @p len bytes within the deadline. */
IoStatus
writeFull(int fd, const char *buf, std::size_t len,
          const Deadline &deadline)
{
    std::size_t done = 0;
    while (done < len) {
        const IoWait wait = waitForFd(fd, POLLOUT, deadline);
        if (wait == IoWait::Timeout)
            return IoStatus::Timeout;
        if (wait == IoWait::Error)
            return IoStatus::Error;
        // MSG_DONTWAIT matters: POLLOUT only promises *some* buffer
        // space, and a blocking write of more than that would stall
        // in the kernel until the peer drains it — past any
        // deadline.  Partial writes loop back through poll().
        const ssize_t n = ::send(fd, buf + done, len - done,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN
                || errno == EWOULDBLOCK)
                continue;
            return IoStatus::Error;
        }
        done += static_cast<std::size_t>(n);
    }
    return IoStatus::Ok;
}

/** Reverse of errorCodeName(); InvalidArgument for unknown names. */
ErrorCode
errorCodeFromName(const std::string &name)
{
    static constexpr ErrorCode kCodes[] = {
        ErrorCode::Io,           ErrorCode::BadMagic,
        ErrorCode::BadVersion,   ErrorCode::Truncated,
        ErrorCode::Corrupt,      ErrorCode::ChecksumMismatch,
        ErrorCode::LimitExceeded, ErrorCode::InvalidArgument,
        ErrorCode::Injected,     ErrorCode::CellFailed,
        ErrorCode::Timeout,      ErrorCode::Overloaded,
    };
    for (const ErrorCode code : kCodes) {
        if (name == errorCodeName(code))
            return code;
    }
    return ErrorCode::InvalidArgument;
}

/** Append %016x of @p v. */
void
appendHex64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    out += buf;
}

} // namespace

Result<Unit>
writeFrame(int fd, const std::string &payload, int timeout_ms)
{
    if (payload.size() > kMaxFrameBytes)
        return Error::format(ErrorCode::LimitExceeded,
                             "frame of %zu bytes exceeds %u cap",
                             payload.size(), kMaxFrameBytes);
    const Deadline deadline(timeout_ms);
    const std::uint32_t len =
        static_cast<std::uint32_t>(payload.size());
    char header[4] = {
        static_cast<char>((len >> 24) & 0xff),
        static_cast<char>((len >> 16) & 0xff),
        static_cast<char>((len >> 8) & 0xff),
        static_cast<char>(len & 0xff),
    };
    IoStatus wrote =
        writeFull(fd, header, sizeof(header), deadline);
    if (wrote == IoStatus::Ok)
        wrote = writeFull(fd, payload.data(), payload.size(),
                          deadline);
    if (wrote == IoStatus::Timeout)
        return Error::format(ErrorCode::Timeout,
                             "frame write exceeded %d ms deadline",
                             timeout_ms);
    if (wrote != IoStatus::Ok)
        return Error::format(ErrorCode::Io,
                             "frame write failed: %s",
                             std::strerror(errno));
    return Unit{};
}

Result<bool>
readFrame(int fd, std::string &payload, int timeout_ms)
{
    const Deadline deadline(timeout_ms);
    char header[4];
    std::size_t got = 0;
    const IoStatus read_header =
        readFull(fd, header, sizeof(header), deadline, got);
    if (read_header == IoStatus::Timeout)
        return Error::format(ErrorCode::Timeout,
                             "frame header not received within "
                             "%d ms (%zu of 4 bytes)",
                             timeout_ms, got);
    if (read_header == IoStatus::Error)
        return Error::format(ErrorCode::Io,
                             "frame header read failed: %s",
                             std::strerror(errno));
    if (read_header == IoStatus::Eof) {
        if (got == 0)
            return false;  // clean close between frames
        return Error::format(ErrorCode::Truncated,
                             "connection closed inside a frame "
                             "header (%zu of 4 bytes)",
                             got);
    }
    const std::uint32_t len =
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(header[0]))
         << 24)
        | (static_cast<std::uint32_t>(
               static_cast<unsigned char>(header[1]))
           << 16)
        | (static_cast<std::uint32_t>(
               static_cast<unsigned char>(header[2]))
           << 8)
        | static_cast<std::uint32_t>(
            static_cast<unsigned char>(header[3]));
    if (len > kMaxFrameBytes)
        return Error::format(ErrorCode::LimitExceeded,
                             "frame declares %u bytes, cap is %u",
                             len, kMaxFrameBytes);
    payload.resize(len);
    if (len > 0) {
        std::size_t body = 0;
        const IoStatus read_body =
            readFull(fd, payload.data(), len, deadline, body);
        if (read_body == IoStatus::Timeout)
            return Error::format(
                ErrorCode::Timeout,
                "frame body not received within %d ms "
                "(%zu of %u bytes)",
                timeout_ms, body, len);
        if (read_body == IoStatus::Error)
            return Error::format(ErrorCode::Io,
                                 "frame body read failed: %s",
                                 std::strerror(errno));
        if (read_body == IoStatus::Eof)
            return Error::format(
                ErrorCode::Truncated,
                "connection closed inside a frame body "
                "(%zu of %u bytes)",
                body, len);
    }
    return true;
}

Result<std::size_t>
readSomeDeadline(int fd, char *buf, std::size_t cap,
                 int timeout_ms)
{
    const Deadline deadline(timeout_ms);
    for (;;) {
        const IoWait wait = waitForFd(fd, POLLIN, deadline);
        if (wait == IoWait::Timeout)
            return Error::format(ErrorCode::Timeout,
                                 "no bytes readable within %d ms",
                                 timeout_ms);
        if (wait == IoWait::Error)
            return Error::format(ErrorCode::Io, "poll(): %s",
                                 std::strerror(errno));
        const ssize_t n = ::read(fd, buf, cap);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Error::format(ErrorCode::Io, "read(): %s",
                                 std::strerror(errno));
        }
        return static_cast<std::size_t>(n);
    }
}

Result<Unit>
writeAllDeadline(int fd, const char *buf, std::size_t len,
                 int timeout_ms)
{
    const Deadline deadline(timeout_ms);
    const IoStatus wrote = writeFull(fd, buf, len, deadline);
    if (wrote == IoStatus::Timeout)
        return Error::format(ErrorCode::Timeout,
                             "write exceeded %d ms deadline",
                             timeout_ms);
    if (wrote != IoStatus::Ok)
        return Error::format(ErrorCode::Io, "write failed: %s",
                             std::strerror(errno));
    return Unit{};
}

bool
peerClosed(int fd)
{
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 0) <= 0)
        return false;  // nothing pending: the peer is quiet, alive
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0)
        return true;
    if ((pfd.revents & POLLIN) != 0) {
        // Readable might mean pipelined client bytes, not a close:
        // peek without consuming and check for EOF specifically.
        char probe = 0;
        const ssize_t n =
            ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
        return n == 0;
    }
    return false;
}

std::string
submitEnvelopeJson(const std::string &tenant, int priority)
{
    std::string out = "{\"gllcd\":";
    out += std::to_string(kServiceProtocolVersion);
    out += ",\"type\":\"submit\",\"tenant\":\"";
    out += jsonEscape(tenant);
    out += "\",\"priority\":";
    out += std::to_string(priority);
    out += '}';
    return out;
}

std::string
statusV2EnvelopeJson()
{
    std::string out = "{\"gllcd\":";
    out += std::to_string(kServiceProtocolVersion);
    out += ",\"type\":\"status_v2\"}";
    return out;
}

Result<RequestEnvelope>
parseRequestEnvelope(const std::string &json)
{
    Result<JsonValue> parsed = parseJson(json);
    if (!parsed.ok())
        return parsed.error();
    const JsonValue doc = parsed.take();
    if (!doc.isObject())
        return Error(ErrorCode::BadMagic,
                     "request envelope must be a JSON object");
    const JsonValue *version = doc.find("gllcd");
    if (version == nullptr)
        return Error(ErrorCode::BadMagic,
                     "not a gllcd envelope (missing \"gllcd\")");
    Result<std::uint64_t> v = version->asU64("gllcd");
    if (!v.ok())
        return v.error();
    if (v.value() != kServiceProtocolVersion)
        return Error::format(
            ErrorCode::BadVersion,
            "protocol version %llu unsupported (speaking %u)",
            static_cast<unsigned long long>(v.value()),
            kServiceProtocolVersion);

    RequestEnvelope env;
    const JsonValue *type = doc.find("type");
    if (type == nullptr)
        return Error(ErrorCode::InvalidArgument,
                     "envelope missing \"type\"");
    Result<std::string> type_name = type->asString("type");
    if (!type_name.ok())
        return type_name.error();
    if (type_name.value() == "submit")
        env.type = RequestType::Submit;
    else if (type_name.value() == "status_v2")
        env.type = RequestType::StatusV2;
    else
        return Error::format(ErrorCode::InvalidArgument,
                             "unknown request type \"%s\"",
                             type_name.value().c_str());

    if (const JsonValue *tenant = doc.find("tenant")) {
        Result<std::string> name = tenant->asString("tenant");
        if (!name.ok())
            return name.error();
        env.tenant = name.take();
        if (env.tenant.empty())
            return Error(ErrorCode::InvalidArgument,
                         "tenant must be nonempty");
    }
    if (const JsonValue *priority = doc.find("priority")) {
        if (!priority->isNumber())
            return Error(ErrorCode::InvalidArgument,
                         "priority: expected a number");
        const double p = priority->number();
        if (p < -1000.0 || p > 1000.0)
            return Error(ErrorCode::InvalidArgument,
                         "priority out of range [-1000, 1000]");
        env.priority = static_cast<int>(p);
    }
    return env;
}

std::string
resultHeaderJson(const ResultHeader &header)
{
    std::string out = "{\"gllcd\":";
    out += std::to_string(kServiceProtocolVersion);
    out += ",\"type\":\"result\",\"job\":";
    out += std::to_string(header.jobId);
    out += ",\"cached\":";
    out += header.cached ? "true" : "false";
    out += ",\"spec_hash\":\"";
    appendHex64(out, header.specHash);
    out += "\",\"trace_hash\":\"";
    appendHex64(out, header.traceHash);
    out += "\",\"quarantined\":";
    out += std::to_string(header.quarantined);
    out += ",\"wall_seconds\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", header.wallSeconds);
    out += buf;
    out += '}';
    return out;
}

std::string
errorFrameJson(const Error &error)
{
    std::string out = "{\"gllcd\":";
    out += std::to_string(kServiceProtocolVersion);
    out += ",\"type\":\"error\",\"code\":\"";
    out += errorCodeName(error.code);
    out += "\",\"message\":\"";
    out += jsonEscape(error.context);
    out += "\"}";
    return out;
}

std::string
shedFrameJson(const ShedInfo &shed)
{
    std::string out = "{\"gllcd\":";
    out += std::to_string(kServiceProtocolVersion);
    out += ",\"type\":\"shed\",\"reason\":\"";
    out += jsonEscape(shed.reason);
    out += "\",\"retry_after_ms\":";
    out += std::to_string(shed.retryAfterMs);
    out += '}';
    return out;
}

Result<bool>
parseResponseFrame(const std::string &json, ResultHeader &header,
                   Error &error, ShedInfo *shed)
{
    Result<JsonValue> parsed = parseJson(json);
    if (!parsed.ok())
        return parsed.error();
    const JsonValue doc = parsed.take();
    const JsonValue *type =
        doc.isObject() ? doc.find("type") : nullptr;
    if (type == nullptr)
        return Error(ErrorCode::BadMagic,
                     "response frame has no \"type\"");
    Result<std::string> type_name = type->asString("type");
    if (!type_name.ok())
        return type_name.error();

    if (type_name.value() == "error") {
        const JsonValue *code = doc.find("code");
        const JsonValue *message = doc.find("message");
        if (code == nullptr || message == nullptr)
            return Error(ErrorCode::Corrupt,
                         "error frame needs code and message");
        Result<std::string> code_name = code->asString("code");
        if (!code_name.ok())
            return code_name.error();
        Result<std::string> text = message->asString("message");
        if (!text.ok())
            return text.error();
        error = Error(errorCodeFromName(code_name.value()),
                      text.take());
        return false;
    }
    if (type_name.value() == "shed") {
        const JsonValue *reason = doc.find("reason");
        if (reason == nullptr)
            return Error(ErrorCode::Corrupt,
                         "shed frame needs a reason");
        Result<std::string> why = reason->asString("reason");
        if (!why.ok())
            return why.error();
        int retry_after_ms = 0;
        if (const JsonValue *retry = doc.find("retry_after_ms")) {
            if (!retry->isNumber())
                return Error(ErrorCode::Corrupt,
                             "retry_after_ms: expected a number");
            retry_after_ms = static_cast<int>(retry->number());
        }
        if (shed != nullptr) {
            shed->reason = why.value();
            shed->retryAfterMs = retry_after_ms;
        }
        error = Error::format(
            ErrorCode::Overloaded,
            "daemon shed the job (%s); retry after %d ms",
            why.value().c_str(), retry_after_ms);
        return false;
    }
    if (type_name.value() != "result")
        return Error::format(ErrorCode::InvalidArgument,
                             "unexpected response type \"%s\"",
                             type_name.value().c_str());

    const JsonValue *job = doc.find("job");
    const JsonValue *cached = doc.find("cached");
    const JsonValue *quarantined = doc.find("quarantined");
    if (job == nullptr || cached == nullptr
        || quarantined == nullptr)
        return Error(ErrorCode::Corrupt,
                     "result frame missing job/cached/quarantined");
    Result<std::uint64_t> job_id = job->asU64("job");
    if (!job_id.ok())
        return job_id.error();
    header.jobId = job_id.value();
    Result<bool> was_cached = cached->asBool("cached");
    if (!was_cached.ok())
        return was_cached.error();
    header.cached = was_cached.value();
    Result<std::uint64_t> quarantine_count =
        quarantined->asU64("quarantined");
    if (!quarantine_count.ok())
        return quarantine_count.error();
    header.quarantined =
        static_cast<std::uint32_t>(quarantine_count.value());
    if (const JsonValue *spec_hash = doc.find("spec_hash")) {
        Result<std::string> hex = spec_hash->asString("spec_hash");
        if (!hex.ok())
            return hex.error();
        header.specHash = std::strtoull(hex.value().c_str(),
                                        nullptr, 16);
    }
    if (const JsonValue *trace_hash = doc.find("trace_hash")) {
        Result<std::string> hex =
            trace_hash->asString("trace_hash");
        if (!hex.ok())
            return hex.error();
        header.traceHash = std::strtoull(hex.value().c_str(),
                                         nullptr, 16);
    }
    if (const JsonValue *wall = doc.find("wall_seconds")) {
        if (!wall->isNumber())
            return Error(ErrorCode::Corrupt,
                         "wall_seconds: expected a number");
        header.wallSeconds = wall->number();
    }
    return true;
}

} // namespace gllc
