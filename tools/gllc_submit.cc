/**
 * gllc-submit: submit a sweep job to a gllcd daemon (or run it
 * locally) and write the result JSON.
 *
 * Usage:
 *   gllc-submit (--socket PATH | --port N | --local)
 *               [--policies A,B,C] [--llc-bytes N]
 *               [--tenant NAME] [--priority N] [--out PATH]
 *               [--retries N] [--backoff-ms N]
 *   gllc-submit (--socket PATH | --port N) --status
 *
 * --status prints the daemon's status_v2 document (protocol.hh).
 *
 * The job is built exactly the way the bench harnesses build
 * sweeps: frames and scale come from the environment (GLLC_FRAMES,
 * GLLC_SCALE), then SweepConfig::resolve() pins every default into
 * a serializable SweepJobSpec.  --local runs the same spec
 * in-process through SweepConfig::fromSpec(spec).run() and writes
 * the same writeSweepJson() bytes — CI diffs the two outputs to
 * prove the service is byte-faithful.
 *
 * A daemon that is down (connection refused) or shedding load
 * (typed shed frame) is retried with jittered exponential backoff:
 * --retries N attempts (default 5, 0 disables retry) spaced from
 * --backoff-ms (default 100) doubling per attempt, never less than
 * the daemon's own retry-after hint.
 *
 * Exit status: 0 on a clean result, 75 (EX_TEMPFAIL, matching the
 * bench harnesses) when the result contains quarantined cells, 69
 * (EX_UNAVAILABLE) when every retry was refused or shed — scripts
 * can tell "the service turned us away" from "cells quarantined" —
 * and 1 on any hard failure.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/report.hh"
#include "analysis/sweep.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "service/client.hh"

namespace
{

/** Split a comma-separated list. */
std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        if (end > pos)
            out.push_back(csv.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

/** Retries turned away by an unavailable daemon end in this. */
constexpr int kExitUnavailable = 69;  // EX_UNAVAILABLE

/** Exponential-backoff ceiling between attempts. */
constexpr int kMaxBackoffMs = 10000;

/**
 * Jittered exponential backoff: --backoff-ms doubled per attempt,
 * scaled by a uniform [0.5, 1.5) factor so a shed thundering herd
 * does not reconverge, floored at the daemon's retry-after hint.
 */
int
backoffDelayMs(int base_ms, int attempt, int retry_after_ms,
               gllc::Rng &rng)
{
    double delay = static_cast<double>(base_ms);
    for (int i = 0; i < attempt; ++i)
        delay *= 2.0;
    delay *= 0.5 + rng.uniform();
    const int jittered = static_cast<int>(
        std::min(delay, static_cast<double>(kMaxBackoffMs)));
    return std::max(jittered, retry_after_ms);
}

/** Write @p payload to @p path ("" or "-" = stdout). */
bool
writeOutput(const std::string &path, const std::string &payload)
{
    if (path.empty() || path == "-") {
        std::cout << payload;
        return true;
    }
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        gllc::warn("cannot write %s", path.c_str());
        return false;
    }
    os << payload;
    return os.good();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gllc;

    std::string socket_path;
    int port = -1;
    bool local = false;
    bool status = false;
    std::string tenant = "gllc-submit";
    int priority = 0;
    std::string out_path;
    std::vector<std::string> policies{"DRRIP+UCD", "GSPC+UCD"};
    std::uint64_t llc_bytes = 8ull << 20;
    int retries = 5;
    int backoff_ms = 100;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--local") {
            local = true;
            continue;
        }
        if (flag == "--status") {
            status = true;
            continue;
        }
        if (i + 1 >= argc)
            fatal("%s requires a value", flag.c_str());
        const std::string value = argv[++i];
        if (flag == "--socket")
            socket_path = value;
        else if (flag == "--port")
            port = std::atoi(value.c_str());
        else if (flag == "--policies")
            policies = splitList(value);
        else if (flag == "--llc-bytes")
            llc_bytes = std::strtoull(value.c_str(), nullptr, 0);
        else if (flag == "--tenant")
            tenant = value;
        else if (flag == "--priority")
            priority = std::atoi(value.c_str());
        else if (flag == "--out")
            out_path = value;
        else if (flag == "--retries")
            retries = std::atoi(value.c_str());
        else if (flag == "--backoff-ms")
            backoff_ms = std::atoi(value.c_str());
        else
            fatal("unknown flag %s", flag.c_str());
    }

    if (!local && socket_path.empty() && port < 0)
        fatal("need --socket, --port, or --local");

    if (status) {
        Result<ServiceClient> client =
            socket_path.empty()
                ? ServiceClient::connectTcp(port)
                : ServiceClient::connectUnix(socket_path);
        if (!client.ok())
            fatal("%s", client.error().toString().c_str());
        ServiceClient conn = client.take();
        Result<std::string> doc = conn.statusV2();
        if (!doc.ok())
            fatal("%s", doc.error().toString().c_str());
        std::cout << doc.value() << "\n";
        return 0;
    }

    // Same construction path as the benches: env-driven frames and
    // scale, resolved into an explicit, serializable spec.
    const SweepJobSpec spec = SweepConfig()
                                  .policies(policies)
                                  .llcBytes(llc_bytes)
                                  .resolve();

    if (local) {
        const SweepResult result =
            SweepConfig::fromSpec(spec).run();
        std::ostringstream payload;
        writeSweepJson(result, payload);
        if (!writeOutput(out_path, payload.str()))
            return 1;
        return result.quarantined().empty() ? 0 : 75;
    }

    Rng rng(static_cast<std::uint64_t>(
                std::chrono::steady_clock::now()
                    .time_since_epoch()
                    .count())
            ^ static_cast<std::uint64_t>(::getpid()));
    Result<SubmitOutcome> outcome =
        Error(ErrorCode::Io, "not attempted");
    for (int attempt = 0;; ++attempt) {
        ShedInfo shed;
        Result<ServiceClient> client =
            socket_path.empty()
                ? ServiceClient::connectTcp(port)
                : ServiceClient::connectUnix(socket_path);
        if (client.ok()) {
            ServiceClient conn = client.take();
            outcome = conn.submit(spec, tenant, priority, &shed);
            if (outcome.ok())
                break;
            // Only a typed shed is worth retrying here: other
            // daemon errors (bad spec, execution failure) will
            // fail identically every time.
            if (outcome.error().code != ErrorCode::Overloaded)
                fatal("%s",
                      outcome.error().toString().c_str());
        } else {
            // Daemon down or restarting: same retry loop as shed.
            outcome = client.error();
        }
        if (attempt >= retries) {
            warn("%s", outcome.error().toString().c_str());
            warn("gllc-submit: giving up after %d attempt(s)",
                 attempt + 1);
            return kExitUnavailable;
        }
        const int delay_ms = backoffDelayMs(
            backoff_ms, attempt, shed.retryAfterMs, rng);
        note("gllc-submit: %s; retrying in %d ms (attempt "
             "%d/%d)",
             outcome.error().toString().c_str(), delay_ms,
             attempt + 1, retries);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay_ms));
    }

    const SubmitOutcome &got = outcome.value();
    note("job %llu: %s, %u quarantined cell(s)",
         static_cast<unsigned long long>(got.header.jobId),
         got.header.cached ? "served from result store"
                           : "computed",
         got.header.quarantined);
    if (!writeOutput(out_path, got.payload))
        return 1;
    return got.header.quarantined == 0 ? 0 : 75;
}
