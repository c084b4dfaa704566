/**
 * @file
 * Client side of the gllcd protocol: connect, submit, status.
 *
 * A thin, synchronous wrapper over the framed protocol — one
 * connection, sequential requests.  Submit blocks until the daemon
 * answers (jobs can run for minutes; the socket is the natural
 * place to wait) and hands back the exact report bytes the daemon
 * serves, plus the result header describing where they came from
 * (fresh run vs. result store, quarantine count).
 */

#ifndef GLLC_SERVICE_CLIENT_HH
#define GLLC_SERVICE_CLIENT_HH

#include <string>

#include "analysis/job_spec.hh"
#include "service/protocol.hh"

namespace gllc
{

/** What a submit yielded. */
struct SubmitOutcome
{
    ResultHeader header;

    /** Exact writeSweepJson() bytes of the result. */
    std::string payload;
};

/** One connection to a gllcd daemon. */
class ServiceClient
{
  public:
    /** Connect over a Unix-domain socket. */
    [[nodiscard]] static Result<ServiceClient>
    connectUnix(const std::string &path);

    /** Connect to a loopback TCP port. */
    [[nodiscard]] static Result<ServiceClient>
    connectTcp(int port);

    ~ServiceClient();

    ServiceClient(ServiceClient &&other) noexcept;
    ServiceClient &operator=(ServiceClient &&other) noexcept;
    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /**
     * Submit a job and wait for its result.  Daemon-side failures
     * (invalid spec, execution failure) come back as the daemon's
     * typed Error; transport failures as Io/Truncated.  A daemon
     * shedding load answers with an Overloaded error; when @p shed
     * is non-null it also receives the typed reason and the
     * daemon's retry-after hint, so callers can back off smartly.
     */
    [[nodiscard]] Result<SubmitOutcome>
    submit(const SweepJobSpec &spec,
           const std::string &tenant = "default",
           int priority = 0, ShedInfo *shed = nullptr);

    /**
     * Fetch the telemetry status document (raw JSON): queue depth
     * per priority class, counters, latency quantiles — what
     * gllc-top renders.
     */
    [[nodiscard]] Result<std::string> statusV2();

  private:
    explicit ServiceClient(int fd) : fd_(fd) {}

    int fd_ = -1;
};

} // namespace gllc

#endif // GLLC_SERVICE_CLIENT_HH
