#include "service/exposition.hh"

#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "service/fd_hygiene.hh"
#include "service/protocol.hh"

namespace gllc
{

namespace
{

/** A slow or hostile scraper may hold the fd this long, no more. */
constexpr int kRequestTimeoutMs = 2000;

/** Request lines longer than this are nobody's scrape. */
constexpr std::size_t kMaxRequestBytes = 8192;

/** Write all bytes, best effort (the scraper may hang up early). */
void
writeAll(int fd, const std::string &bytes)
{
    (void)writeAllDeadline(fd, bytes.data(), bytes.size(),
                           kRequestTimeoutMs);
}

std::string
httpResponse(const char *status, const char *content_type,
             const std::string &body)
{
    std::string out = "HTTP/1.1 ";
    out += status;
    out += "\r\nContent-Type: ";
    out += content_type;
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

} // namespace

MetricsHttpServer::~MetricsHttpServer()
{
    stop();
}

Result<Unit>
MetricsHttpServer::start(int port, BodyFn metrics_text,
                         BodyFn status_json)
{
    if (running_.load())
        return Error(ErrorCode::InvalidArgument,
                     "exposition server already started");
    const int fd = openStreamSocket(AF_INET);
    if (fd < 0)
        return Error::format(ErrorCode::Io, "socket(): %s",
                             std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr))
            != 0
        || ::listen(fd, 4) != 0) {
        const Error err = Error::format(
            ErrorCode::Io, "cannot listen on metrics port %d: %s",
            port, std::strerror(errno));
        ::close(fd);
        return err;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len)
        == 0)
        boundPort_ = ntohs(bound.sin_port);

    metricsText_ = std::move(metrics_text);
    statusJson_ = std::move(status_json);
    listenFd_ = fd;
    running_.store(true);
    thread_ = std::thread([this] { serveLoop(); });
    return Unit{};
}

void
MetricsHttpServer::stop()
{
    if (!running_.exchange(false))
        return;
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    listenFd_ = -1;
    if (thread_.joinable())
        thread_.join();
    boundPort_ = -1;
}

void
MetricsHttpServer::serveLoop()
{
    while (running_.load()) {
        const int fd = acceptConnection(listenFd_);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;  // listener closed by stop()
        }
        serveOne(fd);
        ::close(fd);
    }
}

void
MetricsHttpServer::serveOne(int fd)
{
    // Read until the end of the request head; we never want a body.
    std::string request;
    char chunk[1024];
    while (request.find("\r\n\r\n") == std::string::npos
           && request.size() < kMaxRequestBytes) {
        Result<std::size_t> n = readSomeDeadline(
            fd, chunk, sizeof(chunk), kRequestTimeoutMs);
        if (!n.ok() || n.value() == 0)
            return;  // timeout, error, or early hangup: just drop
        request.append(chunk, n.value());
    }

    const std::size_t line_end = request.find("\r\n");
    const std::string line = request.substr(
        0, line_end == std::string::npos ? request.size() : line_end);
    if (line.compare(0, 4, "GET ") != 0) {
        writeAll(fd, httpResponse("405 Method Not Allowed",
                                  "text/plain; charset=utf-8",
                                  "only GET is served\n"));
        return;
    }
    const std::size_t path_end = line.find(' ', 4);
    const std::string path =
        line.substr(4, path_end == std::string::npos
                           ? std::string::npos
                           : path_end - 4);
    if (path == "/metrics") {
        writeAll(fd, httpResponse(
                         "200 OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         metricsText_()));
    } else if (path == "/status") {
        writeAll(fd, httpResponse("200 OK",
                                  "application/json; charset=utf-8",
                                  statusJson_()));
    } else {
        writeAll(fd, httpResponse("404 Not Found",
                                  "text/plain; charset=utf-8",
                                  "serving /metrics and /status\n"));
    }
}

} // namespace gllc
