/**
 * @file
 * End-to-end tests of the gllcd sweep service: an in-process
 * SweepDaemon forking real worker subprocesses (the gllcd binary via
 * GLLC_WORKER_EXE), exercised through real sockets.
 *
 * The non-negotiable properties under test:
 *  - a served result is byte-identical to an in-process
 *    SweepConfig::fromSpec(spec).run();
 *  - resubmitting an identical job is answered from the result
 *    store without recompute;
 *  - a crashing worker quarantines its cell and never kills the
 *    daemon;
 *  - hostile bytes on the wire come back as typed error frames, and
 *    the daemon keeps serving.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.hh"
#include "analysis/sweep.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/job_journal.hh"
#include "service/protocol.hh"
#include "service/worker.hh"
#include "trace/trace_io.hh"
#include "workload/app_profile.hh"

using namespace gllc;

namespace
{

/** Tiny two-frame, one-policy job: fast, deterministic. */
SweepJobSpec
tinySpec()
{
    SweepJobSpec spec;
    spec.policies = {"DRRIP+UCD"};
    spec.frames = {{paperApps()[0].name, 0},
                   {paperApps()[0].name, 1}};
    spec.scaleLinear = 8;
    spec.scatterPages = true;
    spec.llcBytes = 8ull << 20;
    spec.threads = 1;
    spec.backoffMs = 1;
    return spec;
}

/** The bytes an in-process run of @p spec serializes to. */
std::string
localPayload(const SweepJobSpec &spec)
{
    const SweepResult result = SweepConfig::fromSpec(spec).run();
    std::ostringstream os;
    writeSweepJson(result, os);
    return os.str();
}

/** The "source" arg of every worker render span of one job trace. */
std::vector<std::string>
renderSources(const std::string &trace_dir, std::uint64_t job_id)
{
    std::ifstream in(trace_dir + "/job-" + std::to_string(job_id)
                     + ".json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<JsonValue> parsed = parseJson(buffer.str());
    std::vector<std::string> sources;
    if (!parsed.ok() || parsed.value().find("traceEvents") == nullptr)
        return {"<no job trace>"};
    for (const JsonValue &e :
         parsed.value().find("traceEvents")->items()) {
        if (e.find("cat") == nullptr || e.find("cat")->string() != "render")
            continue;
        const JsonValue *args = e.find("args");
        const JsonValue *source =
            args != nullptr ? args->find("source") : nullptr;
        sources.push_back(source != nullptr ? source->string()
                                            : "<no source>");
    }
    return sources;
}

/** A daemon-side counter's current value. */
std::uint64_t
counterValue(const std::string &name)
{
    return MetricsRegistry::instance().snapshot().counter(name);
}

/** The pids of this process's children running the gllcd binary. */
std::vector<pid_t>
workerPids()
{
    const std::string worker_exe =
        std::filesystem::canonical(GLLC_GLLCD_PATH).string();
    std::vector<pid_t> pids;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc", ec)) {
        const std::string name = entry.path().filename().string();
        if (name.find_first_not_of("0123456789") != std::string::npos)
            continue;
        std::ifstream stat(entry.path() / "stat");
        std::string line;
        std::getline(stat, line);
        const std::size_t paren = line.rfind(')');
        if (paren == std::string::npos)
            continue;
        std::istringstream rest(line.substr(paren + 1));
        char state = 0;
        long ppid = 0;
        rest >> state >> ppid;
        std::error_code link_ec;
        if (ppid == ::getpid()
            && std::filesystem::read_symlink(entry.path() / "exe",
                                             link_ec)
                    .string()
                == worker_exe)
            pids.push_back(static_cast<pid_t>(std::stol(name)));
    }
    return pids;
}

/** Every file in @p dir whose name marks it a trace temp file. */
std::vector<std::string>
traceTempFiles(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().filename().string().find(".tmp.")
            != std::string::npos)
            files.push_back(entry.path().string());
    }
    return files;
}

/** Every *.gltrc file in @p dir. */
std::vector<std::string>
cachedTraceFiles(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".gltrc")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/** Daemon + socket paths scoped to one test. */
class ServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Workers fork+exec the gllcd binary (compiled in by CMake);
        // without this the worker exe would be the test binary via
        // /proc/self/exe, which has no --worker mode.
        ::setenv("GLLC_WORKER_EXE", GLLC_GLLCD_PATH, 1);
        ::unsetenv("GLLC_FAULT");
        configureFaults("");
    }

    void
    TearDown() override
    {
        ::unsetenv("GLLC_FAULT");
        configureFaults("");
    }

    std::string
    tempPath(const std::string &leaf)
    {
        return ::testing::TempDir() + "/gllc_svc_"
            + std::to_string(::getpid()) + "_" + leaf;
    }

    /**
     * Start a daemon on a fresh Unix socket and, when @p store_dir is
     * given, an emptied result store (a store left by an earlier
     * process with the same pid would turn fresh jobs into hits).
     */
    SweepDaemon &
    startDaemon(const std::string &store_dir = "")
    {
        if (!store_dir.empty())
            std::filesystem::remove_all(store_dir);
        DaemonOptions options;
        options.socketPath = tempPath("sock");
        options.workers = 2;
        options.storeDir = store_dir;
        return startDaemonWith(std::move(options));
    }

    /** Start a daemon with caller-tuned options (telemetry tests). */
    SweepDaemon &
    startDaemonWith(DaemonOptions options)
    {
        if (options.socketPath.empty())
            options.socketPath = tempPath("sock");
        daemon_ = std::make_unique<SweepDaemon>(std::move(options));
        Result<Unit> started = daemon_->start();
        EXPECT_TRUE(started.ok()) << started.error().toString();
        return *daemon_;
    }

    ServiceClient
    connect()
    {
        Result<ServiceClient> client =
            ServiceClient::connectUnix(daemon_->socketPath());
        EXPECT_TRUE(client.ok()) << client.error().toString();
        return client.take();
    }

    /**
     * Submit 4 jobs at once, 10 rounds, and check every payload
     * against the in-process run; a job still running after 60 s
     * ends the test binary (a wedged shard thread cannot be joined).
     * @p fresh_each_round gives each round a new policy, so a store
     * never answers for the workers.  Returns the jobs submitted.
     */
    unsigned
    runConcurrentJobRounds(bool fresh_each_round)
    {
        constexpr unsigned kJobs = 4;
        constexpr unsigned kRounds = 10;
        const std::vector<std::string> policies{
            "DRRIP+UCD", "NRU",      "GSPC+UCD",   "DRRIP",
            "GSPC",      "SHiP-mem", "GS-DRRIP",   "NRU+UCD",
            "GSPZTC",    "GSPZTC+TSE"};
        std::vector<std::vector<SweepJobSpec>> specs(kRounds);
        std::vector<std::vector<std::string>> expected(kRounds);
        for (unsigned round = 0; round < kRounds; ++round) {
            for (unsigned j = 0; j < kJobs; ++j) {
                if (round > 0 && !fresh_each_round) {
                    specs[round] = specs[0];
                    expected[round] = expected[0];
                    break;
                }
                SweepJobSpec spec = tinySpec();
                spec.llcBytes = (4ull << 20) << j;
                if (fresh_each_round)
                    spec.policies = {policies[round]};
                expected[round].push_back(localPayload(spec));
                specs[round].push_back(std::move(spec));
            }
        }

        for (unsigned round = 0; round < kRounds; ++round) {
            std::vector<std::future<std::string>> payloads;
            for (const SweepJobSpec &spec : specs[round]) {
                payloads.push_back(
                    std::async(std::launch::async, [this, spec] {
                        ServiceClient client = connect();
                        Result<SubmitOutcome> got = client.submit(spec);
                        return got.ok() ? got.take().payload
                                        : got.error().toString();
                    }));
            }
            const auto deadline = std::chrono::steady_clock::now()
                + std::chrono::seconds(60);
            for (unsigned j = 0; j < kJobs; ++j) {
                if (payloads[j].wait_until(deadline)
                    != std::future_status::ready) {
                    ADD_FAILURE() << "round " << round << ": job " << j
                                  << " still running after 60 s";
                    std::fflush(stdout);
                    std::_Exit(1);
                }
                EXPECT_EQ(payloads[j].get(), expected[round][j])
                    << "round " << round << ", job " << j;
            }
        }
        EXPECT_EQ(daemon_->jobsCompleted(), kJobs * kRounds);
        return kJobs * kRounds;
    }

    std::unique_ptr<SweepDaemon> daemon_;
};

} // namespace

TEST_F(ServiceTest, ServedResultIsByteIdenticalToLocalRun)
{
    const SweepJobSpec spec = tinySpec();
    const std::string expected = localPayload(spec);

    startDaemon();
    ServiceClient client = connect();
    Result<SubmitOutcome> outcome = client.submit(spec);
    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();

    EXPECT_FALSE(outcome.value().header.cached);
    EXPECT_EQ(outcome.value().header.specHash, spec.contentHash());
    EXPECT_EQ(outcome.value().header.traceHash, spec.traceHash());
    EXPECT_EQ(outcome.value().header.quarantined, 0u);
    EXPECT_EQ(outcome.value().payload, expected);
}

TEST_F(ServiceTest, UndeclaredCharacterizationIsNotServed)
{
    const SweepJobSpec spec = tinySpec();
    ASSERT_FALSE(spec.characterize);
    startDaemon();
    ServiceClient client = connect();
    Result<SubmitOutcome> outcome = client.submit(spec);
    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
    const std::string &payload = outcome.value().payload;
    EXPECT_EQ(payload, localPayload(spec));
    for (const char *key : {"rt_productions", "rt_consumptions",
                            "inter_tex_hits", "intra_tex_hits"})
        EXPECT_EQ(payload.find(key), std::string::npos) << key;
}

/**
 * tinySpec() with the characterization declared, as computed before
 * the declaration existed, when every job characterized its cells.
 */
const char *const kCharacterizedTinyPayload = R"json({
  "scale": 8,
  "llc": {"capacity_bytes": 131072, "ways": 16, "banks": 4},
  "policies": ["DRRIP+UCD"],
  "cells": [
    {"app": "3DMarkVAGT1", "frame": 0, "policy": "DRRIP+UCD", "accesses": 60451, "hits": 16736, "misses": 43715, "writebacks": 15025, "tex_hit_rate": 0.140338, "rt_hit_rate": 0.36728, "z_hit_rate": 0.480904, "rt_productions": 13420, "rt_consumptions": 1109, "inter_tex_hits": 1109, "intra_tex_hits": 2217, "attempts": 1},
    {"app": "3DMarkVAGT1", "frame": 1, "policy": "DRRIP+UCD", "accesses": 62549, "hits": 17549, "misses": 45000, "writebacks": 15503, "tex_hit_rate": 0.144211, "rt_hit_rate": 0.350288, "z_hit_rate": 0.528537, "rt_productions": 13898, "rt_consumptions": 1219, "inter_tex_hits": 1219, "intra_tex_hits": 2311, "attempts": 1}
  ],
  "quarantined": []
}
)json";

TEST_F(ServiceTest, DeclaredCharacterizationIsServedUnchanged)
{
    SweepJobSpec spec = tinySpec();
    spec.characterize = true;
    EXPECT_EQ(localPayload(spec), kCharacterizedTinyPayload);
    startDaemon();
    ServiceClient client = connect();
    Result<SubmitOutcome> outcome = client.submit(spec);
    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
    EXPECT_EQ(outcome.value().payload, kCharacterizedTinyPayload);
}

TEST_F(ServiceTest, ResubmissionIsServedFromTheResultStore)
{
    const SweepJobSpec spec = tinySpec();
    SweepDaemon &daemon = startDaemon(tempPath("store"));

    ServiceClient first = connect();
    Result<SubmitOutcome> computed = first.submit(spec, "tenant-a");
    ASSERT_TRUE(computed.ok()) << computed.error().toString();
    ASSERT_FALSE(computed.value().header.cached);

    // A different tenant submitting the identical job shares the
    // stored entry: content addressing, not per-tenant caching.
    ServiceClient second = connect();
    Result<SubmitOutcome> cached = second.submit(spec, "tenant-b");
    ASSERT_TRUE(cached.ok()) << cached.error().toString();
    EXPECT_TRUE(cached.value().header.cached);
    EXPECT_EQ(cached.value().payload, computed.value().payload);
    EXPECT_EQ(daemon.cacheHits(), 1u);
    EXPECT_EQ(daemon.jobsCompleted(), 1u);
}

TEST_F(ServiceTest, ConcurrentClientsBothGetFullResults)
{
    const SweepJobSpec spec = tinySpec();
    SweepJobSpec other = spec;
    other.llcBytes = 4ull << 20;  // different job, same traces
    ASSERT_NE(other.contentHash(), spec.contentHash());

    startDaemon();
    std::string payload_a, payload_b;
    std::thread submit_a([&] {
        ServiceClient client = connect();
        Result<SubmitOutcome> got = client.submit(spec, "a");
        if (got.ok())
            payload_a = got.take().payload;
    });
    std::thread submit_b([&] {
        ServiceClient client = connect();
        Result<SubmitOutcome> got = client.submit(other, "b");
        if (got.ok())
            payload_b = got.take().payload;
    });
    submit_a.join();
    submit_b.join();

    EXPECT_EQ(payload_a, localPayload(spec));
    EXPECT_EQ(payload_b, localPayload(other));
    EXPECT_EQ(daemon_->jobsCompleted(), 2u);
}

TEST_F(ServiceTest, InvalidSpecIsRejectedWithoutKillingTheDaemon)
{
    startDaemon();
    SweepJobSpec bad = tinySpec();
    bad.policies = {"NoSuchPolicy"};

    ServiceClient client = connect();
    Result<SubmitOutcome> outcome = client.submit(bad);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::InvalidArgument);

    // Same connection still serves a good job afterwards.
    Result<SubmitOutcome> good = client.submit(tinySpec());
    EXPECT_TRUE(good.ok()) << good.error().toString();
}

TEST_F(ServiceTest, UnbuildableLlcSizeIsRejectedAtSubmit)
{
    startDaemon();
    // 9 MB scales to a cache whose sets per bank are not a power of
    // two: refused up front instead of crashing every worker cell.
    SweepJobSpec bad = tinySpec();
    bad.llcBytes = 9ull << 20;

    ServiceClient client = connect();
    Result<SubmitOutcome> outcome = client.submit(bad);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::InvalidArgument);
    EXPECT_NE(outcome.error().context.find("powers of two"),
              std::string::npos)
        << outcome.error().toString();
    EXPECT_EQ(daemon_->workerCrashes(), 0u);
    EXPECT_EQ(daemon_->jobsCompleted(), 0u);

    // The same connection still serves a buildable job.
    Result<SubmitOutcome> good = client.submit(tinySpec());
    ASSERT_TRUE(good.ok()) << good.error().toString();
    EXPECT_EQ(good.value().header.quarantined, 0u);
    EXPECT_EQ(daemon_->workerCrashes(), 0u);
}

TEST_F(ServiceTest, WorkerCrashQuarantinesCellsNotTheDaemon)
{
    startDaemon();

    // Workers inherit the environment, so every cell attempt
    // hard-exits its worker mid-cell.  The test process itself never
    // draws at this site (the parent does not run cells in-process).
    ::setenv("GLLC_FAULT", "worker.crash:p=1", 1);
    ServiceClient client = connect();
    Result<SubmitOutcome> outcome = client.submit(tinySpec());
    ::unsetenv("GLLC_FAULT");

    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
    EXPECT_EQ(outcome.value().header.quarantined, 2u);
    EXPECT_GE(daemon_->workerCrashes(), 2u);

    // The daemon survived and a clean resubmission now computes the
    // full result (quarantined results are never cached).
    Result<SubmitOutcome> clean = client.submit(tinySpec());
    ASSERT_TRUE(clean.ok()) << clean.error().toString();
    EXPECT_FALSE(clean.value().header.cached);
    EXPECT_EQ(clean.value().header.quarantined, 0u);
}

TEST_F(ServiceTest, ShardedAndInProcessSweepsShareOneAttemptPolicy)
{
    // cell.throw at p=0.5 with no n= cap (caps count per process):
    // each (cell, attempt) draw is keyed on the cell's coordinates,
    // so both executors must fail, retry and quarantine exactly the
    // same cells.  Seed 4 quarantines two of these 8 cells and lets
    // two others recover on their retry.
    SweepJobSpec spec = tinySpec();
    spec.policies = {"DRRIP+UCD", "NRU", "GSPC", "DRRIP"};
    spec.retries = 1;
    spec.backoffMs = 0;
    const char *faults = "cell.throw:p=0.5,seed=4";
    ::setenv("GLLC_FAULT", faults, 1);  // the workers' injector
    configureFaults(faults);            // this process's injector
    Result<SweepResult> sharded = runShardedSweep(spec, 2, "");
    const SweepResult local = SweepConfig::fromSpec(spec).run();
    ::unsetenv("GLLC_FAULT");
    configureFaults("");
    ASSERT_TRUE(sharded.ok()) << sharded.error().toString();

    const std::vector<QuarantinedCell> &lq = local.quarantined();
    const std::vector<QuarantinedCell> &sq =
        sharded.value().quarantined();
    ASSERT_GE(lq.size(), 1u);
    ASSERT_EQ(sq.size(), lq.size());
    for (std::size_t i = 0; i < lq.size(); ++i) {
        EXPECT_EQ(sq[i].key, lq[i].key);
        EXPECT_EQ(sq[i].attempts, lq[i].attempts);
        EXPECT_EQ(sq[i].error, lq[i].error);
        EXPECT_NE(lq[i].error.find("cell.throw"), std::string::npos);
    }

    const std::vector<SweepCell> &lc = local.cells();
    const std::vector<SweepCell> &sc = sharded.value().cells();
    ASSERT_EQ(sc.size(), lc.size());
    unsigned recovered = 0;
    for (std::size_t i = 0; i < lc.size(); ++i) {
        EXPECT_EQ(sc[i].key, lc[i].key);
        EXPECT_EQ(sc[i].attempts, lc[i].attempts);
        EXPECT_EQ(sc[i].result.stats.totalMisses(),
                  lc[i].result.stats.totalMisses());
        recovered += lc[i].attempts > 1 ? 1 : 0;
    }
    EXPECT_GE(recovered, 1u);
}

TEST_F(ServiceTest, StatusReportsCounters)
{
    SweepDaemon &daemon = startDaemon(tempPath("status_store"));
    ServiceClient client = connect();
    ASSERT_TRUE(client.submit(tinySpec()).ok());
    ASSERT_TRUE(client.submit(tinySpec()).ok());

    Result<std::string> status = client.statusV2();
    ASSERT_TRUE(status.ok()) << status.error().toString();
    Result<JsonValue> doc = parseJson(status.value());
    ASSERT_TRUE(doc.ok()) << doc.error().toString();
    const JsonValue *jobs = doc.value().find("jobs");
    ASSERT_NE(jobs, nullptr);
    ASSERT_NE(jobs->find("completed"), nullptr);
    ASSERT_NE(jobs->find("cache_hits"), nullptr);
    EXPECT_EQ(jobs->find("completed")->number(), 1.0);
    EXPECT_EQ(jobs->find("cache_hits")->number(), 1.0);
    EXPECT_EQ(daemon.jobsCompleted(), 1u);
    EXPECT_EQ(daemon.cacheHits(), 1u);
}

TEST_F(ServiceTest, HostileBytesGetTypedErrorsAndServiceSurvives)
{
    startDaemon();

    // Raw connection, bypassing ServiceClient.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, daemon_->socketPath().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // A well-framed frame of non-JSON garbage: the daemon must
    // answer with a typed error frame, not crash or hang up.
    ASSERT_TRUE(writeFrame(fd, "\x01\x02not json at all").ok());
    std::string response;
    Result<bool> read = readFrame(fd, response);
    ASSERT_TRUE(read.ok()) << read.error().toString();
    ASSERT_TRUE(read.value());
    ResultHeader header;
    Error error;
    Result<bool> kind = parseResponseFrame(response, header, error);
    ASSERT_TRUE(kind.ok()) << kind.error().toString();
    EXPECT_FALSE(kind.value());
    EXPECT_EQ(error.code, ErrorCode::Corrupt);

    // The same connection still answers a valid status request.
    ASSERT_TRUE(writeFrame(fd, statusV2EnvelopeJson()).ok());
    read = readFrame(fd, response);
    ASSERT_TRUE(read.ok()) << read.error().toString();
    ASSERT_TRUE(read.value());
    EXPECT_NE(response.find("\"submitted\""), std::string::npos);

    // An envelope that is valid JSON but not a gllcd document.
    ASSERT_TRUE(writeFrame(fd, "{\"hello\":1}").ok());
    read = readFrame(fd, response);
    ASSERT_TRUE(read.ok()) << read.error().toString();
    ASSERT_TRUE(read.value());
    kind = parseResponseFrame(response, header, error);
    ASSERT_TRUE(kind.ok());
    EXPECT_FALSE(kind.value());
    EXPECT_EQ(error.code, ErrorCode::BadMagic);

    ::close(fd);

    // The daemon outlived all of it and serves a fresh client.
    ServiceClient client = connect();
    EXPECT_TRUE(client.statusV2().ok());
}

TEST_F(ServiceTest, StopUnderLoadReleasesQueuedClients)
{
    startDaemon();

    // Every cell stalls 100 ms in its worker, so the first job
    // holds the dispatcher long enough for stop() to land while the
    // second is still queued.  Jobs queued at shutdown must fail
    // their waiting clients, not strand them (and stop() with them).
    ::setenv("GLLC_FAULT", "cell.delay:p=1", 1);
    const SweepJobSpec slow_a = tinySpec();
    SweepJobSpec slow_b = tinySpec();
    slow_b.llcBytes = 4ull << 20;  // distinct job, no dedup join

    std::atomic<int> released{0};
    std::thread submit_a([&] {
        ServiceClient client = connect();
        (void)client.submit(slow_a, "a");
        released.fetch_add(1);
    });
    std::thread submit_b([&] {
        ServiceClient client = connect();
        (void)client.submit(slow_b, "b");
        released.fetch_add(1);
    });
    // Let both submissions reach the daemon, then pull the plug.
    // If stop() abandons queued jobs without failing their waiters,
    // it never returns and this test times out.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    daemon_->stop();
    submit_a.join();
    submit_b.join();
    ::unsetenv("GLLC_FAULT");
    EXPECT_EQ(released.load(), 2);
}

TEST_F(ServiceTest, HungWorkerIsKilledAtTheCellTimeout)
{
    startDaemon();

    // cell.delay stalls every cell 100 ms inside the worker; a
    // 30 ms hard timeout must kill the hung worker and quarantine
    // the cell instead of waiting out the stall (retries = 0 so
    // each cell is attempted exactly once).
    SweepJobSpec spec = tinySpec();
    spec.cellTimeoutMs = 30;
    spec.retries = 0;
    ::setenv("GLLC_FAULT", "cell.delay:p=1", 1);
    ServiceClient client = connect();
    Result<SubmitOutcome> outcome = client.submit(spec);
    ::unsetenv("GLLC_FAULT");

    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
    EXPECT_EQ(outcome.value().header.quarantined, 2u);
    EXPECT_EQ(daemon_->cellTimeouts(), 2u);
    EXPECT_NE(outcome.value().payload.find("exceeded timeout"),
              std::string::npos);

    // The daemon survived; without the fault the same job now
    // completes cleanly.  A generous budget keeps slow CI machines
    // from tripping it (the knob is outside the content hash, so
    // this is still the same job).
    spec.cellTimeoutMs = 10000;
    Result<SubmitOutcome> clean = client.submit(spec);
    ASSERT_TRUE(clean.ok()) << clean.error().toString();
    EXPECT_EQ(clean.value().header.quarantined, 0u);
}

TEST_F(ServiceTest, StatusV2ReportsQueueClassesAndLatency)
{
    MetricsRegistry::instance().reset();
    setMetricsActive(true);
    startDaemon();
    ServiceClient client = connect();
    ASSERT_TRUE(client.submit(tinySpec()).ok());

    Result<std::string> doc = client.statusV2();
    ASSERT_TRUE(doc.ok()) << doc.error().toString();
    Result<JsonValue> parsed = parseJson(doc.value());
    ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
    const JsonValue &status = parsed.value();

    ASSERT_NE(status.find("type"), nullptr);
    EXPECT_EQ(status.find("type")->string(), "status_v2");
    ASSERT_NE(status.find("uptime_seconds"), nullptr);
    EXPECT_GT(status.find("uptime_seconds")->number(), 0.0);

    const JsonValue *queue = status.find("queue");
    ASSERT_NE(queue, nullptr);
    ASSERT_NE(queue->find("depth"), nullptr);
    ASSERT_NE(queue->find("classes"), nullptr);
    EXPECT_TRUE(queue->find("classes")->isArray());

    const JsonValue *jobs = status.find("jobs");
    ASSERT_NE(jobs, nullptr);
    EXPECT_EQ(jobs->find("submitted")->number(), 1.0);
    EXPECT_EQ(jobs->find("completed")->number(), 1.0);
    EXPECT_EQ(jobs->find("quarantined")->number(), 0.0);

    // The job latency histograms fed the quantiles: e2e covers the
    // whole job, so its p95 upper bound is at least exec's.
    const JsonValue *latency = status.find("latency_ms");
    ASSERT_NE(latency, nullptr);
    const JsonValue *e2e = latency->find("e2e");
    const JsonValue *exec = latency->find("exec");
    ASSERT_NE(e2e, nullptr);
    ASSERT_NE(exec, nullptr);
    EXPECT_GT(e2e->find("p95")->number(), 0.0);
    EXPECT_GE(e2e->find("p95")->number(),
              exec->find("p95")->number());

    ASSERT_NE(status.find("cache_hit_rate"), nullptr);
    setMetricsActive(false);
    MetricsRegistry::instance().reset();
}

TEST_F(ServiceTest, MetricsEndpointServesPrometheusText)
{
    MetricsRegistry::instance().reset();
    setMetricsActive(true);
    DaemonOptions options;
    options.workers = 2;
    options.metricsPort = 0;  // ephemeral loopback HTTP
    SweepDaemon &daemon = startDaemonWith(std::move(options));
    ASSERT_GT(daemon.metricsPort(), 0);

    ServiceClient client = connect();
    ASSERT_TRUE(client.submit(tinySpec()).ok());

    // Scrape over a raw TCP socket: real HTTP bytes, no helper.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(daemon.metricsPort()));
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string request =
        "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
    ASSERT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0)
        response.append(chunk, static_cast<std::size_t>(n));
    ::close(fd);

    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(response.find("# TYPE gllcd_jobs_completed_total "
                            "counter"),
              std::string::npos);
    EXPECT_NE(response.find("gllcd_jobs_completed_total 1"),
              std::string::npos);
    EXPECT_NE(response.find("gllcd_job_e2e_ms_bucket{le="),
              std::string::npos);
    EXPECT_NE(response.find("# TYPE gllcd_queue_depth gauge"),
              std::string::npos);
    setMetricsActive(false);
    MetricsRegistry::instance().reset();
}

TEST_F(ServiceTest, MergedJobTraceSpansDaemonAndWorkers)
{
    DaemonOptions options;
    options.workers = 2;
    options.traceDir = tempPath("traces");
    startDaemonWith(std::move(options));

    ServiceClient client = connect();
    Result<SubmitOutcome> outcome = client.submit(tinySpec());
    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
    const std::uint64_t job_id = outcome.value().header.jobId;

    const std::string trace_path = tempPath("traces") + "/job-"
                                   + std::to_string(job_id)
                                   + ".json";
    std::ifstream in(trace_path);
    ASSERT_TRUE(in.good()) << "missing " << trace_path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<JsonValue> parsed = parseJson(buffer.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error().toString();

    const JsonValue *events = parsed.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::set<double> daemon_pids;
    std::set<double> cell_pids;
    std::size_t cells = 0;
    for (const JsonValue &e : events->items()) {
        ASSERT_NE(e.find("ph"), nullptr);
        EXPECT_EQ(e.find("ph")->string(), "X");
        const JsonValue *cat = e.find("cat");
        ASSERT_NE(cat, nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        const double pid = e.find("pid")->number();
        if (cat->string() == "job" || cat->string() == "job_phase")
            daemon_pids.insert(pid);
        if (cat->string() == "cell") {
            cell_pids.insert(pid);
            ++cells;
        }
    }
    // One daemon process, one job/queue-wait/execute trio.
    EXPECT_EQ(daemon_pids.size(), 1u);
    EXPECT_EQ(daemon_pids.count(
                  static_cast<double>(::getpid())),
              1u);
    // Both frames' cells, sharded across two distinct workers, and
    // every pid in the merged timeline is a real process, so the
    // trace demonstrably spans >= 2 processes.
    EXPECT_EQ(cells, 2u);
    EXPECT_EQ(cell_pids.size(), 2u);
    EXPECT_EQ(cell_pids.count(static_cast<double>(::getpid())), 0u);
}

TEST_F(ServiceTest, WorkerRendersEachFrameOncePerJob)
{
    DaemonOptions options;
    options.workers = 1;
    options.traceDir = tempPath("render_traces");
    startDaemonWith(std::move(options));

    SweepJobSpec spec = tinySpec();
    spec.policies = {"DRRIP+UCD", "NRU", "GSPC+UCD"};
    ServiceClient client = connect();
    Result<SubmitOutcome> outcome = client.submit(spec);
    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
    ASSERT_EQ(outcome.value().header.quarantined, 0u);
    EXPECT_EQ(outcome.value().payload, localPayload(spec));

    std::ifstream in(tempPath("render_traces") + "/job-"
                     + std::to_string(outcome.value().header.jobId)
                     + ".json");
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<JsonValue> parsed = parseJson(buffer.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
    const JsonValue *events = parsed.value().find("traceEvents");
    ASSERT_NE(events, nullptr);

    // One worker, frame-major cells: each frame renders once and
    // its three cells replay that trace.
    std::map<std::string, unsigned> spans;
    std::set<double> worker_pids;
    for (const JsonValue &e : events->items()) {
        const std::string cat = e.find("cat")->string();
        if (cat != "render" && cat != "cell")
            continue;
        ++spans[cat];
        worker_pids.insert(e.find("pid")->number());
        ASSERT_NE(e.find("args"), nullptr);
        ASSERT_NE(e.find("args")->find("trace"), nullptr);
        EXPECT_FALSE(e.find("args")->find("trace")->string().empty());
    }
    EXPECT_EQ(spans["render"], 2u);
    EXPECT_EQ(spans["cell"], 6u);
    EXPECT_EQ(worker_pids.size(), 1u);
    EXPECT_EQ(worker_pids.count(static_cast<double>(::getpid())), 0u);
}

TEST_F(ServiceTest, SecondJobLoadsEveryFrameFromTheTraceCache)
{
    // Two jobs over the same frames with different policies and LLC
    // sizes: the first renders and caches both frames under the
    // store, the second loads them.
    MetricsRegistry::instance().reset();
    setMetricsActive(true);
    const std::string store = tempPath("tc_store");
    std::filesystem::remove_all(store);
    DaemonOptions options;
    options.workers = 1;
    options.storeDir = store;
    options.traceDir = tempPath("tc_traces");
    startDaemonWith(std::move(options));

    SweepJobSpec first = tinySpec();
    SweepJobSpec second = tinySpec();
    second.policies = {"NRU", "GSPC+UCD"};
    second.llcBytes = 4ull << 20;
    ServiceClient client = connect();
    Result<SubmitOutcome> a = client.submit(first);
    ASSERT_TRUE(a.ok()) << a.error().toString();
    EXPECT_EQ(renderSources(tempPath("tc_traces"), a.value().header.jobId),
              (std::vector<std::string>{"render", "render"}));
    EXPECT_EQ(counterValue("gllcd.trace_cache.misses"), 2u);
    EXPECT_EQ(counterValue("gllcd.trace_cache.hits"), 0u);

    Result<SubmitOutcome> b = client.submit(second);
    ASSERT_TRUE(b.ok()) << b.error().toString();
    EXPECT_FALSE(b.value().header.cached);
    EXPECT_EQ(b.value().header.quarantined, 0u);
    EXPECT_EQ(b.value().payload, localPayload(second));
    EXPECT_EQ(renderSources(tempPath("tc_traces"), b.value().header.jobId),
              (std::vector<std::string>{"cache", "cache"}));
    EXPECT_EQ(counterValue("gllcd.trace_cache.hits"),
              second.frames.size());
    EXPECT_EQ(counterValue("gllcd.trace_cache.misses"), 2u);

    // One file per frame, named by the frame's one-frame traceHash.
    const std::vector<std::string> files =
        cachedTraceFiles(store + "/traces");
    ASSERT_EQ(files.size(), 2u);
    for (const SweepJobFrame &frame : second.frames) {
        SweepJobSpec one = second;
        one.frames = {frame};
        char leaf[32];
        std::snprintf(leaf, sizeof(leaf), "/tr%016llx.gltrc",
                      static_cast<unsigned long long>(one.traceHash()));
        EXPECT_EQ(std::count(files.begin(), files.end(),
                             store + "/traces" + leaf),
                  1)
            << leaf;
    }
    setMetricsActive(false);
    MetricsRegistry::instance().reset();
}

TEST_F(ServiceTest, CorruptCachedTraceIsReRenderedAndRewritten)
{
    MetricsRegistry::instance().reset();
    setMetricsActive(true);
    const std::string store = tempPath("corrupt_store");
    std::filesystem::remove_all(store);
    DaemonOptions options;
    options.workers = 1;
    options.storeDir = store;
    startDaemonWith(std::move(options));

    ServiceClient client = connect();
    ASSERT_TRUE(client.submit(tinySpec()).ok());
    const std::vector<std::string> files =
        cachedTraceFiles(store + "/traces");
    ASSERT_EQ(files.size(), 2u);
    std::string original;
    {
        std::ifstream in(files[0], std::ios::binary);
        original.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_FALSE(original.empty());
    {
        std::string flipped = original;
        flipped[flipped.size() / 2] ^= 0x01;
        std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
        out << flipped;
    }
    ASSERT_FALSE(tryReadTraceFile(files[0]).ok());

    SweepJobSpec other = tinySpec();
    other.policies = {"GSPC"};
    Result<SubmitOutcome> outcome = client.submit(other);
    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
    EXPECT_EQ(outcome.value().header.quarantined, 0u);
    EXPECT_EQ(outcome.value().payload, localPayload(other));
    // The flipped frame rendered again; the intact one loaded.
    EXPECT_EQ(counterValue("gllcd.trace_cache.misses"), 3u);
    EXPECT_EQ(counterValue("gllcd.trace_cache.hits"), 1u);
    ASSERT_TRUE(tryReadTraceFile(files[0]).ok());
    std::string rewritten;
    {
        std::ifstream in(files[0], std::ios::binary);
        rewritten.assign(std::istreambuf_iterator<char>(in), {});
    }
    EXPECT_EQ(rewritten, original);
    setMetricsActive(false);
    MetricsRegistry::instance().reset();
}

TEST_F(ServiceTest, NoStoreMeansNoTraceCache)
{
    // --store "" turns the trace cache off too, and a worker ignores
    // a GLLC_TRACE_CACHE it inherits: every frame of every job renders.
    SweepJobSpec second = tinySpec();
    second.policies = {"NRU"};
    const std::vector<SweepJobSpec> specs{tinySpec(), second};
    // Before GLLC_TRACE_CACHE is set: the in-process runs honour it.
    const std::vector<std::string> expected{localPayload(specs[0]),
                                            localPayload(specs[1])};
    MetricsRegistry::instance().reset();
    setMetricsActive(true);
    const std::string inherited = tempPath("inherited_cache");
    std::filesystem::remove_all(inherited);
    ::setenv("GLLC_TRACE_CACHE", inherited.c_str(), 1);
    DaemonOptions options;
    options.workers = 1;
    options.traceDir = tempPath("nostore_traces");
    startDaemonWith(std::move(options));

    ServiceClient client = connect();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Result<SubmitOutcome> outcome = client.submit(specs[i]);
        ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
        EXPECT_EQ(outcome.value().payload, expected[i]);
        EXPECT_EQ(renderSources(tempPath("nostore_traces"),
                                outcome.value().header.jobId),
                  (std::vector<std::string>{"render", "render"}));
    }
    ::unsetenv("GLLC_TRACE_CACHE");
    EXPECT_EQ(counterValue("gllcd.trace_cache.misses"), 4u);
    EXPECT_EQ(counterValue("gllcd.trace_cache.hits"), 0u);
    EXPECT_FALSE(std::filesystem::exists(inherited));
    EXPECT_FALSE(std::filesystem::exists("traces"));
    setMetricsActive(false);
    MetricsRegistry::instance().reset();
}

TEST_F(ServiceTest, WorkersInheritOnlyStdio)
{
    // A daemon with an event log and a journal open: its workers must
    // hold exactly fds 0, 1 and 2.  worker.linger keeps each worker
    // alive past its last cell, so the test can look at it.
    const std::string events_path = tempPath("fd_events.jsonl");
    const std::string journal_path = tempPath("fd_journal.wal");
    std::filesystem::remove(journal_path);
    DaemonOptions options;
    options.workers = 1;
    options.eventLogPath = events_path;
    options.journalPath = journal_path;
    startDaemonWith(std::move(options));

    const auto fd_links = [](pid_t pid) {
        std::map<int, std::string> links;
        std::error_code ec;
        const std::string dir = "/proc/" + std::to_string(pid) + "/fd";
        for (const auto &entry :
             std::filesystem::directory_iterator(dir, ec)) {
            std::error_code link_ec;
            links[std::stoi(entry.path().filename().string())] =
                std::filesystem::read_symlink(entry.path(), link_ec)
                    .string();
        }
        return links;
    };
    // The daemon really holds the files a worker must not inherit.
    std::set<std::string> daemon_files;
    for (const auto &[fd, link] : fd_links(::getpid()))
        daemon_files.insert(link);
    ASSERT_EQ(daemon_files.count(
                  std::filesystem::canonical(events_path).string()),
              1u);
    ASSERT_EQ(daemon_files.count(
                  std::filesystem::canonical(journal_path).string()),
              1u);

    ::setenv("GLLC_FAULT", "worker.linger:p=1", 1);
    std::future<Result<SubmitOutcome>> submitted =
        std::async(std::launch::async, [this] {
            ServiceClient client = connect();
            return client.submit(tinySpec());
        });
    // Sample the worker until its reap; the last live sample is from
    // its linger phase, long after exec and its last cell.
    std::map<pid_t, std::map<int, std::string>> last;
    std::vector<std::string> leaked;
    while (submitted.wait_for(std::chrono::milliseconds(20))
           != std::future_status::ready) {
        for (const pid_t pid : workerPids()) {
            const std::map<int, std::string> links = fd_links(pid);
            if (links.count(0) == 0)
                continue;  // exiting
            last[pid] = links;
            for (const auto &[fd, link] : links) {
                if (daemon_files.count(link) != 0 && fd > 2)
                    leaked.push_back(std::to_string(fd) + " -> " + link);
            }
        }
    }
    ::unsetenv("GLLC_FAULT");
    Result<SubmitOutcome> outcome = submitted.get();
    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
    EXPECT_EQ(outcome.value().header.quarantined, 0u);

    EXPECT_TRUE(leaked.empty()) << leaked.front();
    ASSERT_EQ(last.size(), 1u);  // one worker, spawned once
    std::vector<int> fds;
    for (const auto &[fd, link] : last.begin()->second)
        fds.push_back(fd);
    EXPECT_EQ(fds, (std::vector<int>{0, 1, 2}));
}

TEST_F(ServiceTest, TraceTempFilesOfKilledWorkersAreRemoved)
{
    // A writer killed between creating its temp file and renaming it
    // leaves <name>.tmp.<pid>.<n> behind.  The daemon removes those
    // of an earlier run when it starts, and those of a worker it
    // reaps after a kill or a crash.
    const std::string store = tempPath("tmp_store");
    std::filesystem::remove_all(store);
    const std::string traces = store + "/traces";
    std::filesystem::create_directories(traces);
    const auto touch = [](const std::string &path) {
        std::ofstream(path, std::ios::binary) << "partial";
    };
    touch(traces + "/trstale.gltrc.tmp.1.0");
    touch(traces + "/trkept.gltrc");
    DaemonOptions options;
    options.workers = 1;
    options.storeDir = store;
    startDaemonWith(std::move(options));
    EXPECT_TRUE(traceTempFiles(traces).empty());
    EXPECT_TRUE(std::filesystem::exists(traces + "/trkept.gltrc"));

    // worker.linger: the worker answers every cell, then ignores its
    // stdin EOF until the reap deadline SIGKILLs it.  A temp file
    // under its pid stands in for the write it was killed in.
    ::setenv("GLLC_FAULT", "worker.linger:p=1", 1);
    std::future<Result<SubmitOutcome>> submitted =
        std::async(std::launch::async, [this] {
            ServiceClient client = connect();
            return client.submit(tinySpec());
        });
    std::string planted;
    while (submitted.wait_for(std::chrono::milliseconds(20))
           != std::future_status::ready) {
        const std::vector<pid_t> pids = workerPids();
        if (planted.empty() && pids.size() == 1) {
            planted = traces + "/trkilled.gltrc.tmp."
                + std::to_string(pids.front()) + ".0";
            touch(planted);
        }
    }
    ::unsetenv("GLLC_FAULT");
    Result<SubmitOutcome> outcome = submitted.get();
    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
    EXPECT_EQ(outcome.value().header.quarantined, 0u);
    ASSERT_FALSE(planted.empty());
    EXPECT_FALSE(std::filesystem::exists(planted));
    EXPECT_TRUE(traceTempFiles(traces).empty());
    EXPECT_EQ(cachedTraceFiles(traces).size(), 3u);  // 2 frames + kept
}

TEST_F(ServiceTest, StoreTempFilesOfAKilledDaemonAreRemovedAtStart)
{
    // A daemon killed between writing a result's temp file and
    // renaming it leaves <entry>.json.tmp.<pid>.<n> in the store
    // root.  The next daemon removes it when it starts.
    const std::string store = tempPath("tmp_root_store");
    std::filesystem::remove_all(store);
    std::filesystem::create_directories(store + "/traces");
    const auto touch = [](const std::string &path) {
        std::ofstream(path, std::ios::binary) << "partial";
    };
    const std::string kept =
        store + "/tr0000000000000001-sp0000000000000002.json";
    touch(store + "/tr0000000000000001-sp0000000000000003.json.tmp.1.0");
    touch(store + "/traces/trstale.gltrc.tmp.1.0");
    touch(kept);
    DaemonOptions options;
    options.workers = 1;
    options.storeDir = store;
    startDaemonWith(std::move(options));
    EXPECT_TRUE(traceTempFiles(store).empty());
    EXPECT_TRUE(traceTempFiles(store + "/traces").empty());
    EXPECT_TRUE(std::filesystem::exists(kept));
}

TEST_F(ServiceTest, ConcurrentJobsOnTwoWorkersNeverHang)
{
    // Each job's two shard threads fork their workers concurrently.
    // A worker that inherits a sibling's stdin write end keeps the
    // sibling from seeing EOF; two such workers wait on each other
    // and their reaps, and with them the job, never return.
    startDaemon();
    runConcurrentJobRounds(false);
    EXPECT_EQ(daemon_->workerCrashes(), 0u);
}

TEST_F(ServiceTest, ConcurrentJobsSharingATraceCacheNeverHang)
{
    // The same stress with a store: every round's jobs are fresh
    // (a new policy per round), so each runs its workers, and all of
    // them load the two frames from the one shared trace cache.
    MetricsRegistry::instance().reset();
    setMetricsActive(true);
    const std::string store = tempPath("stress_store");
    startDaemon(store);
    const unsigned jobs = runConcurrentJobRounds(true);
    EXPECT_EQ(daemon_->workerCrashes(), 0u);
    EXPECT_EQ(counterValue("gllcd.trace_cache.misses"), 2u);
    EXPECT_EQ(counterValue("gllcd.trace_cache.hits"), 2u * jobs - 2u);
    EXPECT_EQ(cachedTraceFiles(store + "/traces").size(), 2u);
    setMetricsActive(false);
    MetricsRegistry::instance().reset();
}

TEST_F(ServiceTest, EventLogRecordsLifecycleAndQuarantines)
{
    const std::string events_path = tempPath("events.jsonl");
    // The log appends: a file left by an earlier process with the
    // same pid would add its events to this test's count.
    std::filesystem::remove(events_path);
    DaemonOptions options;
    options.workers = 2;
    options.eventLogPath = events_path;
    options.storeDir = tempPath("ev_store");
    std::filesystem::remove_all(options.storeDir);
    startDaemonWith(std::move(options));

    // One clean job, one cache hit, then a quarantining job.
    ServiceClient client = connect();
    ASSERT_TRUE(client.submit(tinySpec()).ok());
    ASSERT_TRUE(client.submit(tinySpec()).ok());
    ::setenv("GLLC_FAULT", "cell.throw:p=1", 1);
    SweepJobSpec faulty = tinySpec();
    // Distinct content: execution knobs (retries) sit outside the
    // content hash, so an identical spec would be a cache hit.
    faulty.llcBytes = 4ull << 20;
    faulty.retries = 1;
    Result<SubmitOutcome> bad = client.submit(faulty);
    ::unsetenv("GLLC_FAULT");
    ASSERT_TRUE(bad.ok()) << bad.error().toString();
    ASSERT_EQ(bad.value().header.quarantined, 2u);
    daemon_->stop();

    std::ifstream in(events_path);
    ASSERT_TRUE(in.good());
    std::map<std::string, unsigned> counts;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Result<JsonValue> event = parseJson(line);
        ASSERT_TRUE(event.ok())
            << event.error().toString() << ": " << line;
        ASSERT_NE(event.value().find("schema"), nullptr);
        EXPECT_EQ(event.value().find("schema")->string(),
                  "gllcd-events-v1");
        ASSERT_NE(event.value().find("ts_ms"), nullptr);
        EXPECT_GT(event.value().find("ts_ms")->number(), 0.0);
        ASSERT_NE(event.value().find("event"), nullptr);
        ++counts[event.value().find("event")->string()];
    }
    EXPECT_EQ(counts["daemon_started"], 1u);
    EXPECT_EQ(counts["daemon_stopping"], 1u);
    EXPECT_EQ(counts["job_accepted"], 2u);
    EXPECT_EQ(counts["job_started"], 2u);
    EXPECT_EQ(counts["job_completed"], 2u);
    EXPECT_EQ(counts["job_cache_hit"], 1u);
    // Both cells threw on every attempt: one retry each (retries=1),
    // then quarantine.
    EXPECT_EQ(counts["cell_retry"], 2u);
    EXPECT_EQ(counts["cell_quarantined"], 2u);
}

TEST_F(ServiceTest, LingeringWorkerIsKilledAtTheReapDeadline)
{
    const SweepJobSpec spec = tinySpec();
    const std::string expected = localPayload(spec);
    const std::string events_path = tempPath("linger_events.jsonl");
    // The log appends: a file left by an earlier process with the
    // same pid would add its events to this test's count.
    std::filesystem::remove(events_path);
    DaemonOptions options;
    options.workers = 1;
    options.eventLogPath = events_path;
    startDaemonWith(std::move(options));

    // The worker answers every cell, then ignores its stdin EOF.
    ::setenv("GLLC_FAULT", "worker.linger:p=1", 1);
    ServiceClient client = connect();
    const auto start = std::chrono::steady_clock::now();
    Result<SubmitOutcome> outcome = client.submit(spec);
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    ::unsetenv("GLLC_FAULT");
    ASSERT_TRUE(outcome.ok()) << outcome.error().toString();
    EXPECT_EQ(outcome.value().header.quarantined, 0u);
    EXPECT_EQ(outcome.value().payload, expected);
    EXPECT_EQ(daemon_->workerCrashes(), 0u);
    daemon_->stop();

    // The 5 s reap deadline, plus slack for the job itself.
    constexpr long long kDeadlineMs = 5000;
    constexpr long long kSlackMs = 10000;
    EXPECT_GE(elapsed_ms, kDeadlineMs);
    EXPECT_LT(elapsed_ms, kDeadlineMs + kSlackMs);

    std::ifstream in(events_path);
    ASSERT_TRUE(in.good());
    unsigned timeouts = 0;
    std::string line;
    while (std::getline(in, line)) {
        Result<JsonValue> event = parseJson(line);
        ASSERT_TRUE(event.ok()) << line;
        const JsonValue *type = event.value().find("event");
        if (type == nullptr || type->string() != "worker_reap_timeout")
            continue;
        ++timeouts;
        ASSERT_NE(event.value().find("job"), nullptr) << line;
        ASSERT_NE(event.value().find("pid"), nullptr) << line;
        ASSERT_NE(event.value().find("waited_ms"), nullptr) << line;
        EXPECT_GT(event.value().find("pid")->number(), 0.0) << line;
        const double waited = event.value().find("waited_ms")->number();
        EXPECT_GE(waited, static_cast<double>(kDeadlineMs)) << line;
        EXPECT_LT(waited, static_cast<double>(kDeadlineMs + kSlackMs))
            << line;
    }
    EXPECT_EQ(timeouts, 1u);  // one worker, one reap
}

TEST_F(ServiceTest, SigtermedDaemonLeavesValidArtifacts)
{
    // The real binary, a real SIGTERM: the stats snapshot and the
    // event log must still be complete, valid JSON afterwards.
    const std::string socket_path = tempPath("term_sock");
    const std::string stats_path = tempPath("term_stats.json");
    const std::string events_path = tempPath("term_events.jsonl");

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv("GLLC_STATS_JSON", stats_path.c_str(), 1);
        ::execl(GLLC_GLLCD_PATH, GLLC_GLLCD_PATH, "--socket",
                socket_path.c_str(), "--events",
                events_path.c_str(), "--workers", "2",
                static_cast<char *>(nullptr));
        _exit(127);
    }

    // Wait for the daemon to serve, run one job through it.
    bool served = false;
    for (int i = 0; i < 200 && !served; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        Result<ServiceClient> client =
            ServiceClient::connectUnix(socket_path);
        if (!client.ok())
            continue;
        ServiceClient live = client.take();
        served = live.submit(tinySpec()).ok();
    }
    ASSERT_TRUE(served);

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    // The stats artifact parses and is the documented schema.
    std::ifstream stats(stats_path);
    ASSERT_TRUE(stats.good()) << "missing " << stats_path;
    std::stringstream buffer;
    buffer << stats.rdbuf();
    Result<JsonValue> snap = parseJson(buffer.str());
    ASSERT_TRUE(snap.ok()) << snap.error().toString();
    ASSERT_NE(snap.value().find("schema"), nullptr);
    EXPECT_EQ(snap.value().find("schema")->string(),
              "gllc-stats-v1");

    // Every event log line parses, and the shutdown was recorded.
    std::ifstream events(events_path);
    ASSERT_TRUE(events.good()) << "missing " << events_path;
    bool saw_stopping = false;
    std::string line;
    while (std::getline(events, line)) {
        if (line.empty())
            continue;
        Result<JsonValue> event = parseJson(line);
        ASSERT_TRUE(event.ok())
            << event.error().toString() << ": " << line;
        if (event.value().find("event") != nullptr
            && event.value().find("event")->string()
                   == "daemon_stopping")
            saw_stopping = true;
    }
    EXPECT_TRUE(saw_stopping);
}

TEST_F(ServiceTest, SlowlorisConnectionIsReapedAtDeadline)
{
    DaemonOptions options;
    options.workers = 2;
    options.connTimeoutMs = 100;
    startDaemonWith(std::move(options));

    // A hostile client: two header bytes, then silence.  Without
    // the IO deadline the connection thread would block forever on
    // the rest of the header.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, daemon_->socketPath().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::write(fd, "\x00\x00", 2), 2);

    // The daemon answers with a typed Timeout error and hangs up;
    // crucially, it keeps serving well-behaved clients throughout.
    ServiceClient polite = connect();
    EXPECT_TRUE(polite.submit(tinySpec()).ok());

    std::string response;
    Result<bool> read = readFrame(fd, response, 5000);
    ASSERT_TRUE(read.ok()) << read.error().toString();
    ASSERT_TRUE(read.value());
    ResultHeader header;
    Error error;
    Result<bool> kind = parseResponseFrame(response, header, error);
    ASSERT_TRUE(kind.ok()) << kind.error().toString();
    EXPECT_FALSE(kind.value());
    EXPECT_EQ(error.code, ErrorCode::Timeout);

    // And then EOF: the stalled connection really was reaped.
    read = readFrame(fd, response, 5000);
    ASSERT_TRUE(read.ok()) << read.error().toString();
    EXPECT_FALSE(read.value());
    ::close(fd);
}

TEST_F(ServiceTest, DisconnectedClientCancelsItsQueuedJob)
{
    // One worker and 100 ms per cell: the four-cell job up front
    // holds the dispatcher ~400 ms, far longer than the ~200 ms
    // disconnect probe needs to notice the second job's client is
    // gone.
    DaemonOptions options;
    options.workers = 1;
    startDaemonWith(std::move(options));
    ::setenv("GLLC_FAULT", "cell.delay:p=1", 1);
    SweepJobSpec slow = tinySpec();
    slow.policies = {"DRRIP+UCD", "GSPC+UCD"};

    std::thread blocker([&] {
        ServiceClient client = connect();
        EXPECT_TRUE(client.submit(slow, "a").ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Submit a second, distinct job and hang up immediately: the
    // job is queued behind the slow one and must never execute.
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, daemon_->socketPath().c_str(),
                     sizeof(addr.sun_path) - 1);
        ASSERT_EQ(
            ::connect(fd,
                      reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)),
            0);
        ASSERT_TRUE(
            writeFrame(fd, submitEnvelopeJson("ghost", 0)).ok());
        ASSERT_TRUE(writeFrame(fd, tinySpec().toJson()).ok());
        ::close(fd);
    }

    // The probe fires within ~200 ms; give slow CI plenty of rope.
    bool cancelled = false;
    for (int i = 0; i < 200 && !cancelled; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        cancelled = daemon_->jobsCancelled() == 1;
    }
    EXPECT_TRUE(cancelled);

    blocker.join();
    ::unsetenv("GLLC_FAULT");
    // Only the surviving client's job ever executed.
    EXPECT_EQ(daemon_->jobsCompleted(), 1u);
}

TEST_F(ServiceTest, FullQueueShedsWithTypedReasonAndHint)
{
    DaemonOptions options;
    options.workers = 1;
    options.maxQueue = 1;
    startDaemonWith(std::move(options));
    ::setenv("GLLC_FAULT", "cell.delay:p=1", 1);

    // Job A occupies the dispatcher; job B fills the queue; job C
    // must bounce with a typed shed, instantly, instead of queuing
    // unboundedly or blocking.
    SweepJobSpec spec_a = tinySpec();
    SweepJobSpec spec_b = tinySpec();
    spec_b.llcBytes = 4ull << 20;
    SweepJobSpec spec_c = tinySpec();
    spec_c.llcBytes = 2ull << 20;

    std::thread submit_a([&] {
        ServiceClient client = connect();
        EXPECT_TRUE(client.submit(spec_a, "a").ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread submit_b([&] {
        ServiceClient client = connect();
        EXPECT_TRUE(client.submit(spec_b, "b").ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    ServiceClient client = connect();
    ShedInfo shed;
    Result<SubmitOutcome> outcome =
        client.submit(spec_c, "c", 0, &shed);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::Overloaded);
    EXPECT_EQ(shed.reason, "queue_full");
    EXPECT_GT(shed.retryAfterMs, 0);
    EXPECT_EQ(daemon_->jobsShed(), 1u);

    // The shed connection is still usable (framing stayed in
    // sync), and once the queue drains the same job is accepted.
    submit_a.join();
    submit_b.join();
    ::unsetenv("GLLC_FAULT");
    Result<SubmitOutcome> retry = client.submit(spec_c, "c");
    EXPECT_TRUE(retry.ok()) << retry.error().toString();
}

TEST_F(ServiceTest, TenantQuotaShedsOnlyTheFloodingTenant)
{
    DaemonOptions options;
    options.workers = 1;
    options.tenantQuota = 1;
    startDaemonWith(std::move(options));
    ::setenv("GLLC_FAULT", "cell.delay:p=1", 1);

    SweepJobSpec spec_a = tinySpec();
    SweepJobSpec spec_b = tinySpec();
    spec_b.llcBytes = 4ull << 20;
    SweepJobSpec spec_c = tinySpec();
    spec_c.llcBytes = 2ull << 20;
    SweepJobSpec spec_d = tinySpec();
    spec_d.llcBytes = 1ull << 20;

    // A's first job dispatches (leaves the queue), A's second sits
    // queued at its quota; A's third must shed while B still gets
    // in — per-tenant isolation, not a global brake.
    std::thread submit_1([&] {
        ServiceClient client = connect();
        EXPECT_TRUE(client.submit(spec_a, "a").ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread submit_2([&] {
        ServiceClient client = connect();
        EXPECT_TRUE(client.submit(spec_b, "a").ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    ServiceClient flooder = connect();
    ShedInfo shed;
    Result<SubmitOutcome> refused =
        flooder.submit(spec_c, "a", 0, &shed);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, ErrorCode::Overloaded);
    EXPECT_EQ(shed.reason, "tenant_quota");

    std::thread submit_b([&] {
        ServiceClient client = connect();
        EXPECT_TRUE(client.submit(spec_d, "b").ok());
    });

    submit_1.join();
    submit_2.join();
    submit_b.join();
    ::unsetenv("GLLC_FAULT");
    EXPECT_EQ(daemon_->jobsShed(), 1u);
    EXPECT_EQ(daemon_->jobsCompleted(), 3u);
}

TEST_F(ServiceTest, ConnectionCapShedsExtraConnections)
{
    DaemonOptions options;
    options.workers = 2;
    options.maxConns = 1;
    startDaemonWith(std::move(options));

    // The first connection occupies the only slot...
    ServiceClient holder = connect();
    ASSERT_TRUE(holder.statusV2().ok());

    // ...so the second is turned away with a typed conn_limit shed
    // before any request is read.
    ServiceClient extra = connect();
    ShedInfo shed;
    Result<SubmitOutcome> outcome =
        extra.submit(tinySpec(), "t", 0, &shed);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::Overloaded);
    EXPECT_EQ(shed.reason, "conn_limit");

    // The admitted connection never noticed.
    EXPECT_TRUE(holder.submit(tinySpec()).ok());
}

TEST_F(ServiceTest, KilledDaemonRecoversEveryAcceptedJob)
{
    // The headline crash-recovery property, end to end: kill -9 a
    // real daemon with accepted jobs outstanding, restart it with
    // --recover, and every accepted job completes with bytes
    // identical to a local in-process run.
    const std::string socket_path = tempPath("kill_sock");
    const std::string store_dir = tempPath("kill_store");
    const std::string journal_path = tempPath("kill.wal");
    std::remove(journal_path.c_str());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Slow cells keep jobs in flight while we pull the plug.
        ::setenv("GLLC_FAULT", "cell.delay:p=1", 1);
        ::execl(GLLC_GLLCD_PATH, GLLC_GLLCD_PATH, "--socket",
                socket_path.c_str(), "--store", store_dir.c_str(),
                "--journal", journal_path.c_str(), "--workers",
                "1", static_cast<char *>(nullptr));
        _exit(127);
    }

    SweepJobSpec spec_a = tinySpec();
    SweepJobSpec spec_b = tinySpec();
    spec_b.llcBytes = 4ull << 20;

    // Wait until the daemon accepts connections.
    bool up = false;
    for (int i = 0; i < 200 && !up; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        up = ServiceClient::connectUnix(socket_path).ok();
    }
    ASSERT_TRUE(up);

    // Two submits that will never be answered: the daemon dies
    // with both jobs accepted (journaled) but unfinished.
    std::thread doomed_a([&] {
        Result<ServiceClient> client =
            ServiceClient::connectUnix(socket_path);
        if (client.ok()) {
            ServiceClient conn = client.take();
            (void)conn.submit(spec_a, "a");
        }
    });
    std::thread doomed_b([&] {
        Result<ServiceClient> client =
            ServiceClient::connectUnix(socket_path);
        if (client.ok()) {
            ServiceClient conn = client.take();
            (void)conn.submit(spec_b, "b");
        }
    });

    // Kill only after both accept records are durably journaled.
    bool journaled = false;
    for (int i = 0; i < 400 && !journaled; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        std::ifstream is(journal_path);
        std::string line;
        int accepts = 0;
        while (std::getline(is, line))
            if (line.find("\"accept\":1") != std::string::npos)
                ++accepts;
        journaled = accepts >= 2;
    }
    ASSERT_TRUE(journaled);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    doomed_a.join();
    doomed_b.join();

    // Restart (in-process this time) with --recover semantics: the
    // journal replays and both jobs complete unattended.
    DaemonOptions options;
    options.workers = 2;
    options.storeDir = store_dir;
    options.journalPath = journal_path;
    options.recover = true;
    startDaemonWith(std::move(options));
    EXPECT_EQ(daemon_->jobsRecovered(), 2u);

    bool completed = false;
    for (int i = 0; i < 1200 && !completed; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        completed = daemon_->jobsCompleted() == 2;
    }
    ASSERT_TRUE(completed);

    // Resubmitting now serves from the store — and the bytes are
    // identical to a local in-process run of the same spec.
    ServiceClient client = connect();
    Result<SubmitOutcome> got_a = client.submit(spec_a, "a");
    ASSERT_TRUE(got_a.ok()) << got_a.error().toString();
    EXPECT_TRUE(got_a.value().header.cached);
    EXPECT_EQ(got_a.value().payload, localPayload(spec_a));
    Result<SubmitOutcome> got_b = client.submit(spec_b, "b");
    ASSERT_TRUE(got_b.ok()) << got_b.error().toString();
    EXPECT_TRUE(got_b.value().header.cached);
    EXPECT_EQ(got_b.value().payload, localPayload(spec_b));

    // A second recovery pass finds nothing left to do.
    daemon_->stop();
    Result<JournalRecovery> reloaded =
        JobJournal::load(journal_path);
    ASSERT_TRUE(reloaded.ok()) << reloaded.error().toString();
    EXPECT_TRUE(reloaded.value().pending.empty());
}

TEST_F(ServiceTest, DaemonCrashFaultSiteKillsWithTypedExitCode)
{
    // The chaos harness's daemon.crash site: a real daemon dies
    // mid-dispatch with the documented exit code, leaving its
    // journal owing the job — the recovery drill in CI starts here.
    const std::string socket_path = tempPath("crash_sock");
    const std::string journal_path = tempPath("crash.wal");
    std::remove(journal_path.c_str());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv("GLLC_FAULT", "daemon.crash:p=1", 1);
        ::execl(GLLC_GLLCD_PATH, GLLC_GLLCD_PATH, "--socket",
                socket_path.c_str(), "--journal",
                journal_path.c_str(), "--workers", "1",
                static_cast<char *>(nullptr));
        _exit(127);
    }

    bool up = false;
    for (int i = 0; i < 200 && !up; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        up = ServiceClient::connectUnix(socket_path).ok();
    }
    ASSERT_TRUE(up);

    std::thread doomed([&] {
        Result<ServiceClient> client =
            ServiceClient::connectUnix(socket_path);
        if (client.ok()) {
            ServiceClient conn = client.take();
            (void)conn.submit(tinySpec(), "a");
        }
    });
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    doomed.join();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), kDaemonCrashExitCode);

    // The job was accepted but never finished: exactly one journal
    // debt for --recover to collect.
    Result<JournalRecovery> loaded =
        JobJournal::load(journal_path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_EQ(loaded.value().pending.size(), 1u);
}

TEST_F(ServiceTest, StatusAnswersConcurrentlyWithRunningJobs)
{
    // Regression for the daemon's lock discipline: status requests
    // answer from counters while the dispatcher executes jobs and
    // submit waiters sleep on their JobState.  Hammering status
    // concurrently with two real jobs must never wedge, crash, or
    // return malformed JSON (the TSan CI job checks the data-race
    // half of this contract).
    const SweepJobSpec spec = tinySpec();
    SweepJobSpec other = spec;
    other.llcBytes = 4ull << 20;

    startDaemon();
    std::atomic<bool> submits_done{false};
    std::atomic<unsigned> status_ok{0};
    std::thread pest([&] {
        while (!submits_done.load()) {
            ServiceClient client = connect();
            Result<std::string> status = client.statusV2();
            ASSERT_TRUE(status.ok()) << status.error().toString();
            Result<JsonValue> doc = parseJson(status.value());
            ASSERT_TRUE(doc.ok()) << doc.error().toString();
            const JsonValue *queue = doc.value().find("queue");
            ASSERT_NE(queue, nullptr);
            EXPECT_NE(queue->find("depth"), nullptr);
            ++status_ok;
        }
    });

    std::thread submit_a([&] {
        ServiceClient client = connect();
        Result<SubmitOutcome> got = client.submit(spec, "a");
        EXPECT_TRUE(got.ok());
    });
    std::thread submit_b([&] {
        ServiceClient client = connect();
        Result<SubmitOutcome> got = client.submit(other, "b");
        EXPECT_TRUE(got.ok());
    });
    submit_a.join();
    submit_b.join();
    submits_done.store(true);
    pest.join();

    EXPECT_GE(status_ok.load(), 1u);
    EXPECT_EQ(daemon_->jobsCompleted(), 2u);
}

TEST(Json, U64RejectsTwoToTheFiftyThreeAndAbove)
{
    // 2^53 + 1 parses as the double 2^53, so the bound must exclude
    // 2^53 itself or the value would come back one too small.
    const auto u64 = [](const char *text) {
        Result<JsonValue> doc = parseJson(text);
        EXPECT_TRUE(doc.ok()) << text;
        return doc.value().asU64("n");
    };
    Result<std::uint64_t> below = u64("9007199254740991");
    ASSERT_TRUE(below.ok());
    EXPECT_EQ(below.value(), 9007199254740991ull);
    for (const char *text :
         {"9007199254740992", "9007199254740993", "1e300"}) {
        Result<std::uint64_t> v = u64(text);
        ASSERT_FALSE(v.ok()) << text;
        EXPECT_EQ(v.error().code, ErrorCode::InvalidArgument) << text;
    }
}
