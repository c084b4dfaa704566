#include "service/client.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/fd_hygiene.hh"

namespace gllc
{

Result<ServiceClient>
ServiceClient::connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        return Error::format(ErrorCode::InvalidArgument,
                             "socket path too long: %s",
                             path.c_str());
    std::signal(SIGPIPE, SIG_IGN);
    const int fd = openStreamSocket(AF_UNIX);
    if (fd < 0)
        return Error::format(ErrorCode::Io, "socket(): %s",
                             std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr))
        != 0) {
        const Error err =
            Error::format(ErrorCode::Io, "cannot connect to %s: %s",
                          path.c_str(), std::strerror(errno));
        ::close(fd);
        return err;
    }
    return ServiceClient(fd);
}

Result<ServiceClient>
ServiceClient::connectTcp(int port)
{
    std::signal(SIGPIPE, SIG_IGN);
    const int fd = openStreamSocket(AF_INET);
    if (fd < 0)
        return Error::format(ErrorCode::Io, "socket(): %s",
                             std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr))
        != 0) {
        const Error err = Error::format(
            ErrorCode::Io, "cannot connect to port %d: %s", port,
            std::strerror(errno));
        ::close(fd);
        return err;
    }
    return ServiceClient(fd);
}

ServiceClient::~ServiceClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

ServiceClient::ServiceClient(ServiceClient &&other) noexcept
    : fd_(other.fd_)
{
    other.fd_ = -1;
}

ServiceClient &
ServiceClient::operator=(ServiceClient &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

Result<SubmitOutcome>
ServiceClient::submit(const SweepJobSpec &spec,
                      const std::string &tenant, int priority,
                      ShedInfo *shed)
{
    Result<Unit> sent =
        writeFrame(fd_, submitEnvelopeJson(tenant, priority));
    if (sent.ok())
        sent = writeFrame(fd_, spec.toJson());
    if (!sent.ok()) {
        // The daemon may have answered before reading the request —
        // a connection-limit shed writes its frame and hangs up
        // immediately, which makes our writes fail with EPIPE.  A
        // buffered early answer beats the write error.
        std::string early;
        Result<bool> got = readFrame(fd_, early, 1000);
        if (got.ok() && got.value()) {
            SubmitOutcome outcome;
            Error daemon_error;
            Result<bool> is_result = parseResponseFrame(
                early, outcome.header, daemon_error, shed);
            if (is_result.ok() && !is_result.value())
                return daemon_error;
        }
        return sent.error();
    }

    std::string response;
    Result<bool> got = readFrame(fd_, response);
    if (!got.ok())
        return got.error();
    if (!got.value())
        return Error(ErrorCode::Truncated,
                     "daemon closed the connection before "
                     "answering");
    SubmitOutcome outcome;
    Error daemon_error;
    Result<bool> is_result = parseResponseFrame(
        response, outcome.header, daemon_error, shed);
    if (!is_result.ok())
        return is_result.error();
    if (!is_result.value())
        return daemon_error;

    Result<bool> payload = readFrame(fd_, outcome.payload);
    if (!payload.ok())
        return payload.error();
    if (!payload.value())
        return Error(ErrorCode::Truncated,
                     "daemon closed the connection before the "
                     "result payload");
    return outcome;
}

namespace
{

/** Shared request/response round trip of both status flavours. */
Result<std::string>
statusRoundTrip(int fd, const std::string &envelope)
{
    Result<Unit> sent = writeFrame(fd, envelope);
    if (!sent.ok())
        return sent.error();
    std::string response;
    Result<bool> got = readFrame(fd, response);
    if (!got.ok())
        return got.error();
    if (!got.value())
        return Error(ErrorCode::Truncated,
                     "daemon closed the connection before "
                     "answering");
    return response;
}

} // namespace

Result<std::string>
ServiceClient::statusV2()
{
    return statusRoundTrip(fd_, statusV2EnvelopeJson());
}

} // namespace gllc
