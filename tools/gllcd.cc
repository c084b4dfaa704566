/**
 * gllcd: the sweep service daemon (and, via --worker, the worker
 * subprocess it forks).
 *
 * Usage:
 *   gllcd --socket /run/gllcd.sock [--port N] [--workers N]
 *         [--store DIR] [--print-port]
 *         [--metrics-port N] [--trace-dir DIR] [--events PATH]
 *         [--max-queue N] [--tenant-quota N]
 *         [--conn-timeout-ms N] [--max-conns N]
 *         [--journal PATH] [--recover]
 *   gllcd --worker [DIR]      # internal: cell worker on stdin/stdout,
 *                             # caching frame traces in DIR
 *
 * Serves sweep jobs per src/service/protocol.hh until SIGINT or
 * SIGTERM.  --port 0 binds an ephemeral loopback port; --print-port
 * writes each bound loopback port to stdout, one per line (the TCP
 * service port first if any, then the metrics port if any), for
 * scripts to parse.  --store enables the content-addressed result
 * cache and, in its traces/ subdirectory, the frame-trace cache the
 * workers share (--store "" turns both off).
 *
 * Telemetry plane:
 *   --metrics-port N   loopback HTTP GET /metrics (Prometheus text
 *                      0.0.4) and /status (StatusV2 JSON); 0 binds
 *                      an ephemeral port.  Implies live metrics
 *                      collection.
 *   --trace-dir DIR    merged per-job Perfetto timelines
 *                      (job-<id>.json) stitched from daemon and
 *                      worker-subprocess spans.
 *   --events PATH      structured JSON-lines event log
 *                      ("gllcd-events-v1").
 *
 * Overload and recovery plane:
 *   --max-queue N        queue depth cap; over-limit submits get a
 *                        typed shed frame (0 = unbounded).
 *   --tenant-quota N     per-tenant in-queue cap (0 = unlimited).
 *   --conn-timeout-ms N  deadline on every client read/write;
 *                        stalled peers are disconnected (0 = none).
 *   --max-conns N        concurrent-connection cap (0 = unlimited).
 *   --journal PATH       durable job journal (WAL): accepted jobs
 *                        are fsync'd before they queue.
 *   --recover            replay the journal at startup, re-queuing
 *                        unfinished jobs in acceptance order.
 *
 * A SIGTERM'd daemon flushes GLLC_STATS_JSON / GLLC_TRACE_OUT
 * explicitly after stop(), so terminated daemons still leave valid
 * observability artifacts.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace_event.hh"
#include "service/daemon.hh"
#include "service/worker.hh"

namespace
{

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gllc;

    DaemonOptions options;
    bool print_port = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--worker")
            return runSweepWorker(i + 1 < argc ? argv[i + 1] : "");
        if (flag == "--print-port") {
            print_port = true;
            continue;
        }
        if (flag == "--recover") {
            options.recover = true;
            continue;
        }
        if (i + 1 >= argc)
            fatal("%s requires a value", flag.c_str());
        const std::string value = argv[++i];
        if (flag == "--socket")
            options.socketPath = value;
        else if (flag == "--port")
            options.tcpPort = std::atoi(value.c_str());
        else if (flag == "--workers")
            options.workers = static_cast<unsigned>(
                std::atoi(value.c_str()));
        else if (flag == "--store")
            options.storeDir = value;
        else if (flag == "--metrics-port")
            options.metricsPort = std::atoi(value.c_str());
        else if (flag == "--trace-dir")
            options.traceDir = value;
        else if (flag == "--events")
            options.eventLogPath = value;
        else if (flag == "--max-queue")
            options.maxQueue = static_cast<std::size_t>(
                std::atol(value.c_str()));
        else if (flag == "--tenant-quota")
            options.tenantQuota = static_cast<std::size_t>(
                std::atol(value.c_str()));
        else if (flag == "--conn-timeout-ms")
            options.connTimeoutMs = std::atoi(value.c_str());
        else if (flag == "--max-conns")
            options.maxConns = static_cast<std::size_t>(
                std::atol(value.c_str()));
        else if (flag == "--journal")
            options.journalPath = value;
        else
            fatal("unknown flag %s", flag.c_str());
    }

    // The exposition listener and the per-job timelines are only as
    // live as the registries behind them.
    if (options.metricsPort >= 0)
        setMetricsActive(true);
    if (!options.traceDir.empty())
        setTraceEventsActive(true);

    SweepDaemon daemon(std::move(options));
    Result<Unit> started = daemon.start();
    if (!started.ok())
        fatal("gllcd: %s", started.error().toString().c_str());

    if (print_port) {
        if (daemon.tcpPort() >= 0)
            std::cout << daemon.tcpPort() << std::endl;
        if (daemon.metricsPort() >= 0)
            std::cout << daemon.metricsPort() << std::endl;
    }
    if (!daemon.socketPath().empty())
        note("gllcd: serving on %s", daemon.socketPath().c_str());
    if (daemon.tcpPort() >= 0)
        note("gllcd: serving on localhost:%d", daemon.tcpPort());
    if (daemon.metricsPort() >= 0)
        note("gllcd: metrics on localhost:%d/metrics",
             daemon.metricsPort());

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop.load())
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));

    note("gllcd: shutting down");
    daemon.stop();
    // Belt and braces for SIGTERM shutdowns: write the configured
    // stats/trace artifacts now, while everything is joined, rather
    // than trusting exit handlers.
    flushConfiguredStatsJson();
    flushConfiguredTraceJson();
    return 0;
}
