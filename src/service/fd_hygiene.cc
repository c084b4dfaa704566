#include "service/fd_hygiene.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace gllc
{

int
openStreamSocket(int domain)
{
    return ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
}

int
acceptConnection(int listen_fd)
{
    return ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
}

Result<PipedChild>
spawnPiped(const std::string &exe, const std::vector<std::string> &argv)
{
    // Everything the child needs is built before fork(): between fork
    // and exec only async-signal-safe calls are allowed.
    std::vector<char *> args;
    args.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    const long open_max = ::sysconf(_SC_OPEN_MAX);
    const int fd_limit = open_max > 0 && open_max < 65536
        ? static_cast<int>(open_max)
        : 65536;

    int to_child[2];
    int from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0)
        return Error::format(ErrorCode::Io, "pipe2(): %s",
                             std::strerror(errno));
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
        const Error err = Error::format(ErrorCode::Io, "pipe2(): %s",
                                        std::strerror(errno));
        ::close(to_child[0]);
        ::close(to_child[1]);
        return err;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        const Error err = Error::format(ErrorCode::Io, "fork(): %s",
                                        std::strerror(errno));
        for (const int fd : {to_child[0], to_child[1], from_child[0],
                             from_child[1]})
            ::close(fd);
        return err;
    }
    if (pid == 0) {
        // Child.  The dup2 copies drop FD_CLOEXEC; then every fd
        // above 2 goes, including any a library opened without
        // O_CLOEXEC on another thread.
        ::dup2(to_child[0], 0);
        ::dup2(from_child[1], 1);
        if (::syscall(SYS_close_range, 3u, ~0u, 0u) != 0) {
            for (int fd = 3; fd < fd_limit; ++fd)
                ::close(fd);
        }
        ::execv(exe.c_str(), args.data());
        ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    PipedChild child;
    child.pid = pid;
    child.stdinFd = to_child[1];
    child.stdoutFd = from_child[0];
    return child;
}

} // namespace gllc
