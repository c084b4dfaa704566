/**
 * @file
 * The one place the service creates fds a child process could
 * inherit, and the one place it creates child processes.
 *
 * The daemon forks workers from several shard threads at once.  A
 * worker that inherits another worker's stdin write end keeps that
 * sibling from ever seeing EOF, so its reap blocks; a worker holding a
 * listening socket keeps the port alive after the daemon exits.  So
 * every socket and pipe here is created close-on-exec, and a spawned
 * child additionally closes every fd above 2 before exec: it starts
 * with exactly stdin, stdout and stderr, whatever the daemon has open.
 * The bare-fd lint checker keeps raw socket/accept/pipe/fork calls in
 * src/service/ confined to this file.
 */

#ifndef GLLC_SERVICE_FD_HYGIENE_HH
#define GLLC_SERVICE_FD_HYGIENE_HH

#include <string>
#include <sys/types.h>
#include <vector>

#include "common/result.hh"

namespace gllc
{

/** A SOCK_STREAM socket of @p domain, close-on-exec; -1 + errno. */
int openStreamSocket(int domain);

/** accept4() a connection close-on-exec; -1 + errno. */
int acceptConnection(int listen_fd);

/** A spawned child and the parent's ends of its stdio pipes. */
struct PipedChild
{
    pid_t pid = -1;
    int stdinFd = -1;   ///< write end of the child's stdin
    int stdoutFd = -1;  ///< read end of the child's stdout
};

/**
 * fork() + execv(@p exe, @p argv) with the child's stdin and stdout on
 * fresh pipes and stderr shared; the child holds fds 0, 1 and 2 only.
 * Io when the pipes or the fork fail; an exec failure shows up as the
 * child exiting 127.  The caller owns the returned fds and must reap
 * the pid.
 */
[[nodiscard]] Result<PipedChild>
spawnPiped(const std::string &exe, const std::vector<std::string> &argv);

} // namespace gllc

#endif // GLLC_SERVICE_FD_HYGIENE_HH
