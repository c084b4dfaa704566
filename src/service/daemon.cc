#include "service/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <filesystem>
#include <fstream>
#include <netinet/in.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "analysis/report.hh"
#include "common/durable_file.hh"
#include "common/fault.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace_event.hh"
#include "service/fd_hygiene.hh"

namespace gllc
{

namespace
{

/**
 * How often a blocked submit waiter wakes to probe whether its
 * client is still connected (the hook for cancelling a queued job
 * whose every submitter hung up).
 */
constexpr int kDisconnectProbeMs = 200;

/** Injected stall length of the conn.stall fault site. */
constexpr unsigned kConnStallMs = 100;

/** Best-effort error reply; the client may already be gone. */
void
sendError(int fd, const Error &error, int timeout_ms)
{
    (void)writeFrame(fd, errorFrameJson(error), timeout_ms);
}

/** Fixed-point rendering of trace-clock microseconds. */
std::string
fmtUs(double us)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", us);
    return buf;
}

/** The daemon-minted per-job trace id (hex). */
std::string
mintTraceId(std::uint64_t job_id, std::uint64_t spec_hash)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                  mix64(job_id) ^ spec_hash);
    return buf;
}

/** One daemon-side span object of a merged per-job timeline. */
std::string
daemonSpanJson(const char *name, const char *category,
               double start_us, double dur_us, std::uint32_t tid,
               const QueuedJob &job, const std::string &trace_id)
{
    std::string out = "{\"name\": \"";
    out += name;
    out += "\", \"cat\": \"";
    out += category;
    out += "\", \"ph\": \"X\", \"ts\": ";
    out += fmtUs(start_us);
    out += ", \"dur\": ";
    out += fmtUs(dur_us);
    out += ", \"pid\": ";
    out += std::to_string(static_cast<unsigned>(::getpid()));
    out += ", \"tid\": ";
    out += std::to_string(tid);
    out += ", \"args\": {\"job\": \"";
    out += std::to_string(job.id);
    out += "\", \"tenant\": \"";
    out += jsonEscape(job.tenant);
    out += "\", \"trace\": \"";
    out += jsonEscape(trace_id);
    out += "\"}}";
    return out;
}

/** Milliseconds between two trace-clock microsecond stamps. */
double
spanMs(double start_us, double end_us)
{
    return (end_us - start_us) / 1000.0;
}

} // namespace

SweepDaemon::SweepDaemon(DaemonOptions options)
    : options_(std::move(options)), store_(options_.storeDir)
{
}

SweepDaemon::~SweepDaemon()
{
    stop();
}

Result<int>
SweepDaemon::bindUnixListener()
{
    sockaddr_un addr{};
    if (options_.socketPath.size() >= sizeof(addr.sun_path))
        return Error::format(ErrorCode::InvalidArgument,
                             "socket path too long: %s",
                             options_.socketPath.c_str());
    const int fd = openStreamSocket(AF_UNIX);
    if (fd < 0)
        return Error::format(ErrorCode::Io, "socket(): %s",
                             std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.socketPath.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr))
            != 0
        || ::listen(fd, 16) != 0) {
        const Error err = Error::format(
            ErrorCode::Io, "cannot listen on %s: %s",
            options_.socketPath.c_str(), std::strerror(errno));
        ::close(fd);
        return err;
    }
    return fd;
}

Result<int>
SweepDaemon::bindTcpListener()
{
    const int fd = openStreamSocket(AF_INET);
    if (fd < 0)
        return Error::format(ErrorCode::Io, "socket(): %s",
                             std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(options_.tcpPort));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr))
            != 0
        || ::listen(fd, 16) != 0) {
        const Error err = Error::format(
            ErrorCode::Io, "cannot listen on tcp port %d: %s",
            options_.tcpPort, std::strerror(errno));
        ::close(fd);
        return err;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len)
        == 0)
        boundTcpPort_ = ntohs(bound.sin_port);
    return fd;
}

Result<Unit>
SweepDaemon::start()
{
    if (running_.load())
        return Error(ErrorCode::InvalidArgument,
                     "daemon already started");
    if (options_.socketPath.empty() && options_.tcpPort < 0)
        return Error(ErrorCode::InvalidArgument,
                     "no listener configured (need a socket path "
                     "or a TCP port)");
    // Dead clients surface as EPIPE from write(), not as a
    // process-killing signal.
    std::signal(SIGPIPE, SIG_IGN);

    if (!options_.eventLogPath.empty()) {
        Result<Unit> opened = eventLog_.open(options_.eventLogPath);
        if (!opened.ok())
            return opened.error();
    }
    // Temp files left by a worker or daemon killed mid-write are
    // never read and never renamed; no worker of ours runs yet.
    if (store_.enabled()) {
        removeTempFiles(store_.root());
        removeTempFiles(store_.traceCacheDir());
    }
    if (!options_.traceDir.empty()) {
        std::error_code mkdir_error;
        std::filesystem::create_directories(options_.traceDir,
                                            mkdir_error);
        if (mkdir_error)
            return Error::format(ErrorCode::Io,
                                 "cannot create trace dir %s: %s",
                                 options_.traceDir.c_str(),
                                 mkdir_error.message().c_str());
    }
    startTime_ = std::chrono::steady_clock::now();

    if (options_.recover && options_.journalPath.empty())
        return Error(ErrorCode::InvalidArgument,
                     "--recover needs a job journal path");
    if (!options_.journalPath.empty()) {
        // Open (and torn-tail-trim) before replaying, so recovery
        // reads a clean file and its finish records persist.
        Result<Unit> opened = journal_.open(options_.journalPath);
        if (!opened.ok())
            return opened.error();
    }
    if (options_.recover) {
        Result<Unit> recovered = recoverFromJournal();
        if (!recovered.ok())
            return recovered.error();
    }
    // Limits engage only after recovery: every journaled job was
    // already accepted once and must re-enqueue, full queue or not.
    queue_.configureLimits(
        {options_.maxQueue, options_.tenantQuota});

    if (!options_.socketPath.empty()) {
        Result<int> fd = bindUnixListener();
        if (!fd.ok())
            return fd.error();
        listenFds_.push_back(fd.value());
    }
    if (options_.tcpPort >= 0) {
        Result<int> fd = bindTcpListener();
        if (!fd.ok()) {
            for (const int open_fd : listenFds_)
                ::close(open_fd);
            listenFds_.clear();
            return fd.error();
        }
        listenFds_.push_back(fd.value());
    }
    if (options_.metricsPort >= 0) {
        Result<Unit> served = metricsServer_.start(
            options_.metricsPort,
            [this] { return metricsExposition(); },
            [this] { return statusV2Json(); });
        if (!served.ok()) {
            for (const int open_fd : listenFds_)
                ::close(open_fd);
            listenFds_.clear();
            return served.error();
        }
    }

    if (eventLog_.active())
        eventLog_.emit(ServiceEvent("daemon_started")
                           .num("pid", ::getpid())
                           .num("workers", options_.workers)
                           .num("metrics_port", metricsPort()));

    running_.store(true);
    dispatcher_ = std::thread([this] { dispatchLoop(); });
    for (const int fd : listenFds_)
        acceptThreads_.emplace_back(
            [this, fd] { acceptLoop(fd); });
    return Unit{};
}

void
SweepDaemon::stop()
{
    if (!running_.exchange(false))
        return;
    metricsServer_.stop();
    if (eventLog_.active())
        eventLog_.emit(ServiceEvent("daemon_stopping")
                           .num("jobs_completed",
                                static_cast<std::int64_t>(
                                    jobsCompleted_.load())));
    for (const int fd : listenFds_) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    listenFds_.clear();
    queue_.close();
    {
        MutexLock lock(connMutex_);
        for (const int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread &t : acceptThreads_)
        t.join();
    acceptThreads_.clear();
    if (dispatcher_.joinable())
        dispatcher_.join();
    // The dispatcher is gone and the queue is closed, so no queued
    // job will ever execute: fail every submit waiter BEFORE joining
    // the connection threads, which may be blocked on exactly those
    // jobs' doneCv.  (A submit racing in after this point hits the
    // closed queue and fails itself in handleSubmit.)
    failPendingJobs(Error(ErrorCode::Io, "daemon shutting down"));
    std::vector<std::thread> conns;
    {
        MutexLock lock(connMutex_);
        conns.swap(connThreads_);
        finishedConnIds_.clear();
    }
    for (std::thread &t : conns)
        t.join();
    // No finish records for the jobs failPendingJobs just aborted:
    // they were accepted but never ran, so the journal deliberately
    // still owes them — a --recover restart picks them back up.
    journal_.close();
    if (!options_.socketPath.empty())
        ::unlink(options_.socketPath.c_str());
}

Result<Unit>
SweepDaemon::recoverFromJournal()
{
    Result<JournalRecovery> loaded =
        JobJournal::load(options_.journalPath);
    if (!loaded.ok()) {
        // A missing journal is a fresh start, not a failure; a
        // corrupt one (bad header) is refused loudly — silently
        // dropping accepted jobs is the failure mode this file
        // exists to prevent.
        if (loaded.error().code == ErrorCode::Io)
            return Unit{};
        return loaded.error();
    }
    const JournalRecovery recovery = loaded.take();
    std::size_t requeued = 0;
    for (const JournalJob &entry : recovery.pending) {
        const ResultKey key{entry.spec.traceHash(),
                            entry.spec.contentHash()};
        // Crash between the store write and the finish record:
        // result already durable, just settle the journal's debt.
        if (store_.contains(key)) {
            journal_.recordFinish(entry.id, "completed");
            continue;
        }
        auto state = std::make_shared<JobState>();
        QueuedJob job;
        {
            MutexLock state_lock(state->mutex);
            state->header.jobId = entry.id;
            state->header.specHash = key.specHash;
            state->header.traceHash = key.traceHash;
            job.id = entry.id;
            job.tenant = entry.tenant;
            job.priority = entry.priority;
            job.spec = entry.spec;
            job.acceptedUs = 0.0;
        }
        MutexLock lock(inflightMutex_);
        if (inflight_.count(key) != 0)
            continue;  // duplicate accepts collapse to one run
        if (queue_.push(std::move(job))
            != JobQueue::PushOutcome::Ok)
            continue;  // unreachable: limits not yet configured
        inflight_.emplace(key, std::move(state));
        ++requeued;
        jobsRecovered_.fetch_add(1);
        countMetric("gllcd.jobs.recovered");
        if (eventLog_.active())
            eventLog_.emit(
                ServiceEvent("job_recovered")
                    .num("job",
                         static_cast<std::int64_t>(entry.id))
                    .str("tenant", entry.tenant)
                    .num("priority", entry.priority));
    }
    if (recovery.maxJobId >= nextJobId_.load())
        nextJobId_.store(recovery.maxJobId + 1);
    if (requeued > 0 || recovery.skippedLines > 0)
        warn("gllcd: journal recovery re-enqueued %zu job(s) "
             "(%zu accepted, %zu finished, %zu line(s) skipped)",
             requeued, recovery.accepted, recovery.finished,
             recovery.skippedLines);
    return Unit{};
}

void
SweepDaemon::failPendingJobs(const Error &error)
{
    MutexLock lock(inflightMutex_);
    for (auto &[key, state] : inflight_) {
        MutexLock state_lock(state->mutex);
        if (!state->done) {
            state->done = true;
            state->failed = true;
            state->error = error;
            state->doneCv.notifyAll();
        }
    }
    inflight_.clear();
}

void
SweepDaemon::acceptLoop(int listen_fd)
{
    while (running_.load()) {
        const int fd = acceptConnection(listen_fd);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;  // listener closed by stop()
        }
        bool over_cap = false;
        {
            MutexLock lock(connMutex_);
            if (!running_.load()) {
                ::close(fd);
                return;
            }
            // Retire finished connections before admitting a new
            // one, so a long-running daemon holds handles only for
            // live connections, not for every connection ever
            // served.
            reapFinishedConnsLocked();
            if (options_.maxConns != 0
                && connFds_.size() >= options_.maxConns) {
                over_cap = true;
            } else {
                connFds_.push_back(fd);
                connThreads_.emplace_back(
                    [this, fd] { serveConnection(fd); });
            }
        }
        if (over_cap) {
            // Shed outside connMutex_: the write is to an untrusted
            // peer and must never stall the accept path's lock.
            shedSubmit(fd, "conn_limit", "");
            ::close(fd);
        }
    }
}

void
SweepDaemon::reapFinishedConnsLocked()
{
    for (const std::thread::id id : finishedConnIds_) {
        for (std::size_t i = 0; i < connThreads_.size(); ++i) {
            if (connThreads_[i].get_id() != id)
                continue;
            // Joins near-instantly: the thread registered its id as
            // its final action under connMutex_, which we hold.
            connThreads_[i].join();
            connThreads_.erase(connThreads_.begin()
                               + static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
    finishedConnIds_.clear();
}

void
SweepDaemon::countMetric(const char *name)
{
    if (metricsActive())
        MetricsRegistry::instance().addCounter(name);
}

void
SweepDaemon::serveConnection(int fd)
{
    std::string payload;
    while (running_.load()) {
        if (faultFires(FaultSite::ConnStall))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kConnStallMs));
        if (faultFires(FaultSite::ConnDrop))
            break;
        Result<bool> got =
            readFrame(fd, payload, options_.connTimeoutMs);
        if (!got.ok()) {
            // Framing is unrecoverable mid-stream: report the
            // typed error (truncated header, oversized frame, a
            // slowloris peer caught by the deadline, ...) and hang
            // up; the daemon itself shrugs.
            if (got.error().code == ErrorCode::Timeout)
                countMetric("gllcd.conn.timeouts");
            sendError(fd, got.error(), options_.connTimeoutMs);
            break;
        }
        if (!got.value())
            break;  // clean close

        Result<RequestEnvelope> envelope =
            parseRequestEnvelope(payload);
        if (!envelope.ok()) {
            // Garbage inside an intact frame: typed error, keep
            // the conversation (framing is still in sync).
            countMetric("gllcd.bad_requests");
            sendError(fd, envelope.error(),
                      options_.connTimeoutMs);
            continue;
        }
        bool keep_going = false;
        switch (envelope.value().type) {
        case RequestType::Submit:
            keep_going = handleSubmit(fd, envelope.value());
            break;
        case RequestType::StatusV2:
            keep_going = handleStatusV2(fd);
            break;
        }
        if (!keep_going)
            break;
    }
    ::close(fd);
    MutexLock lock(connMutex_);
    for (std::size_t i = 0; i < connFds_.size(); ++i) {
        if (connFds_[i] == fd) {
            connFds_.erase(connFds_.begin()
                           + static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
    finishedConnIds_.push_back(std::this_thread::get_id());
}

bool
SweepDaemon::handleSubmit(int fd, const RequestEnvelope &envelope)
{
    std::string spec_bytes;
    Result<bool> got =
        readFrame(fd, spec_bytes, options_.connTimeoutMs);
    if (!got.ok()) {
        if (got.error().code == ErrorCode::Timeout)
            countMetric("gllcd.conn.timeouts");
        sendError(fd, got.error(), options_.connTimeoutMs);
        return false;
    }
    if (!got.value())
        return false;  // hung up between envelope and spec

    Result<SweepJobSpec> parsed = parseSweepJobSpec(spec_bytes);
    if (!parsed.ok()) {
        countMetric("gllcd.bad_requests");
        sendError(fd, parsed.error(), options_.connTimeoutMs);
        return true;
    }
    const SweepJobSpec spec = parsed.take();
    Result<Unit> valid = spec.validate();
    if (!valid.ok()) {
        countMetric("gllcd.bad_requests");
        sendError(fd, valid.error(), options_.connTimeoutMs);
        return true;
    }

    const ResultKey key{spec.traceHash(), spec.contentHash()};
    jobsSubmitted_.fetch_add(1);
    countMetric("gllcd.jobs.submitted");

    // Fast path: the store already holds these exact bytes.
    if (store_.contains(key)) {
        Result<std::string> stored = store_.load(key);
        if (stored.ok()) {
            cacheHits_.fetch_add(1);
            countMetric("gllcd.jobs.cache_hits");
            ResultHeader header;
            header.jobId = nextJobId_.fetch_add(1);
            header.cached = true;
            header.specHash = key.specHash;
            header.traceHash = key.traceHash;
            if (eventLog_.active())
                eventLog_.emit(
                    ServiceEvent("job_cache_hit")
                        .num("job", static_cast<std::int64_t>(
                                        header.jobId))
                        .str("tenant", envelope.tenant)
                        .num("priority", envelope.priority));
            if (!writeFrame(fd, resultHeaderJson(header),
                            options_.connTimeoutMs)
                     .ok()
                || !writeFrame(fd, stored.value(),
                               options_.connTimeoutMs)
                        .ok()) {
                noteClientGone(header.jobId, envelope.tenant);
                return false;
            }
            return true;
        }
        warn("gllcd: stored result unreadable, recomputing: %s",
             stored.error().toString().c_str());
    }

    // Join an identical in-flight job or queue a new one.
    std::shared_ptr<JobState> state;
    const char *shed_reason = nullptr;
    {
        MutexLock lock(inflightMutex_);
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            state = it->second;
            {
                // Register as a waiter while inflightMutex_ is
                // still held: cancellation checks waiters under
                // both locks, so it can never miss us.
                MutexLock state_lock(state->mutex);
                ++state->waiters;
            }
            inflightJoins_.fetch_add(1);
            countMetric("gllcd.jobs.inflight_joins");
            if (eventLog_.active())
                eventLog_.emit(ServiceEvent("job_joined")
                                   .str("tenant", envelope.tenant)
                                   .num("priority",
                                        envelope.priority));
        } else {
            state = std::make_shared<JobState>();
            // The state is not shared until the emplace below, but
            // its fields are guarded: take the (uncontended) lock so
            // every access to them is provably consistent.
            MutexLock state_lock(state->mutex);
            state->header.jobId = nextJobId_.fetch_add(1);
            state->header.specHash = key.specHash;
            state->header.traceHash = key.traceHash;
            state->waiters = 1;
            QueuedJob job;
            job.id = state->header.jobId;
            job.tenant = envelope.tenant;
            job.priority = envelope.priority;
            job.spec = spec;
            job.acceptedUs = TraceCollector::instance().nowUs();
            // Emitted before the push so the log's causal order
            // (accepted, then started) holds even when the
            // dispatcher pops the job immediately.
            if (eventLog_.active())
                eventLog_.emit(
                    ServiceEvent("job_accepted")
                        .num("job", static_cast<std::int64_t>(
                                        state->header.jobId))
                        .str("tenant", envelope.tenant)
                        .num("priority", envelope.priority)
                        .num("frames", static_cast<std::int64_t>(
                                           spec.frames.size()))
                        .num("policies",
                             static_cast<std::int64_t>(
                                 spec.policies.size())));
            // Journal BEFORE queuing: once a job can be popped it
            // must be recoverable.  A rejected push compensates
            // with an immediate "shed" finish record, so the
            // journal never replays a job that never queued.
            journal_.recordAccept(job);
            switch (queue_.push(std::move(job))) {
            case JobQueue::PushOutcome::Ok:
                inflight_.emplace(key, state);
                countMetric("gllcd.jobs.accepted");
                recordQueueGauges();
                break;
            case JobQueue::PushOutcome::QueueFull:
                shed_reason = "queue_full";
                break;
            case JobQueue::PushOutcome::TenantQuotaExceeded:
                shed_reason = "tenant_quota";
                break;
            case JobQueue::PushOutcome::Closed:
                // Lost the race with stop(): the queue is closed
                // and nothing will ever pop this job.
                shed_reason = "shutdown";
                break;
            }
            if (shed_reason != nullptr)
                journal_.recordFinish(state->header.jobId,
                                      "shed");
        }
    }
    if (shed_reason != nullptr) {
        shedSubmit(fd, shed_reason, envelope.tenant);
        return true;
    }

    bool failed = false;
    bool abandoned = false;
    Error error;
    ResultHeader header;
    const std::string *payload = nullptr;
    {
        MutexLock lock(state->mutex);
        while (!state->done) {
            // Wake periodically to probe the socket: a client that
            // hung up while its job sits queued should not pin the
            // job (nor this thread) until dispatch.
            const std::cv_status status = state->doneCv.waitFor(
                state->mutex,
                std::chrono::milliseconds(kDisconnectProbeMs));
            if (status == std::cv_status::timeout && !state->done
                && peerClosed(fd)) {
                abandoned = true;
                break;
            }
        }
        --state->waiters;
        failed = state->failed;
        if (!failed) {
            header = state->header;
            // After done, no writer ever touches the payload again,
            // so the reference outlives the lock safely (the shared
            // JobState keeps the bytes alive).
            payload = &state->payload;
        } else {
            error = state->error;
        }
    }
    if (abandoned) {
        // If cancellation loses the race (another waiter joined,
        // or the dispatcher already popped the job), the job simply
        // runs to completion and lands in the result store.
        (void)cancelAbandonedJob(key, state, envelope.tenant);
        return false;
    }
    if (failed) {
        sendError(fd, error, options_.connTimeoutMs);
        return true;
    }
    if (!writeFrame(fd, resultHeaderJson(header),
                    options_.connTimeoutMs)
             .ok()
        || !writeFrame(fd, *payload, options_.connTimeoutMs)
               .ok()) {
        noteClientGone(header.jobId, envelope.tenant);
        return false;
    }
    return true;
}

void
SweepDaemon::shedSubmit(int fd, const char *reason,
                        const std::string &tenant)
{
    jobsShed_.fetch_add(1);
    if (metricsActive()) {
        MetricsRegistry &registry = MetricsRegistry::instance();
        registry.addCounter("gllcd.shed_total");
        registry.addCounter(std::string("gllcd.shed.") + reason);
    }
    ShedInfo shed;
    shed.reason = reason;
    // Depth-proportional backoff hint: a barely-full queue clears
    // in a beat; a deep one tells clients to stay away longer.
    const std::size_t depth = queue_.depth();
    shed.retryAfterMs = static_cast<int>(
        std::min<std::size_t>(30000, 100 * (depth + 1)));
    if (eventLog_.active())
        eventLog_.emit(
            ServiceEvent("job_shed")
                .str("tenant", tenant)
                .str("reason", reason)
                .num("queue_depth",
                     static_cast<std::int64_t>(depth))
                .num("retry_after_ms", shed.retryAfterMs));
    // Never block shedding on a peer that won't read: fall back to
    // a short bounded write even when connections are undeadlined.
    const int timeout_ms = options_.connTimeoutMs > 0
                               ? options_.connTimeoutMs
                               : 1000;
    (void)writeFrame(fd, shedFrameJson(shed), timeout_ms);
}

void
SweepDaemon::noteClientGone(std::uint64_t job_id,
                            const std::string &tenant)
{
    clientGone_.fetch_add(1);
    countMetric("gllcd.client_gone");
    if (eventLog_.active())
        eventLog_.emit(
            ServiceEvent("job_client_gone")
                .num("job", static_cast<std::int64_t>(job_id))
                .str("tenant", tenant));
}

bool
SweepDaemon::cancelAbandonedJob(
    const ResultKey &key, const std::shared_ptr<JobState> &state,
    const std::string &tenant)
{
    std::uint64_t job_id = 0;
    {
        MutexLock lock(inflightMutex_);
        auto it = inflight_.find(key);
        if (it == inflight_.end() || it->second != state)
            return false;  // already finished (or a fresh retry)
        MutexLock state_lock(state->mutex);
        // waiters was registered under inflightMutex_, so zero here
        // — under both locks — proves no connection is waiting or
        // about to wait on this job.
        if (state->done || state->waiters > 0)
            return false;
        if (!queue_.cancel(state->header.jobId))
            return false;  // dispatcher got there first: it runs
        job_id = state->header.jobId;
        state->done = true;
        state->failed = true;
        state->error =
            Error(ErrorCode::Io,
                  "every client disconnected; job cancelled "
                  "before dispatch");
        state->doneCv.notifyAll();
        inflight_.erase(it);
    }
    journal_.recordFinish(job_id, "cancelled");
    jobsCancelled_.fetch_add(1);
    countMetric("gllcd.jobs.cancelled");
    recordQueueGauges();
    if (eventLog_.active())
        eventLog_.emit(
            ServiceEvent("job_cancelled")
                .num("job", static_cast<std::int64_t>(job_id))
                .str("tenant", tenant));
    return true;
}

std::string
SweepDaemon::statusV2Json()
{
    const double uptime_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - startTime_)
            .count();
    const std::uint64_t submitted = jobsSubmitted_.load();
    const std::uint64_t hits = cacheHits_.load();
    char buf[64];

    std::string out = "{\"gllcd\":";
    out += std::to_string(kServiceProtocolVersion);
    out += ",\"type\":\"status_v2\",\"uptime_seconds\":";
    std::snprintf(buf, sizeof(buf), "%.3f", uptime_s);
    out += buf;
    out += ",\"queue\":{\"depth\":";
    out += std::to_string(queue_.depth());
    out += ",\"classes\":[";
    bool first = true;
    for (const auto &[prio, depth] : queue_.classDepths()) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"priority\":";
        out += std::to_string(prio);
        out += ",\"depth\":";
        out += std::to_string(depth);
        out += '}';
    }
    out += "]},\"jobs\":{\"submitted\":";
    out += std::to_string(submitted);
    out += ",\"completed\":";
    out += std::to_string(jobsCompleted_.load());
    out += ",\"failed\":";
    out += std::to_string(jobsFailed_.load());
    out += ",\"quarantined\":";
    out += std::to_string(jobsQuarantined_.load());
    out += ",\"cache_hits\":";
    out += std::to_string(hits);
    out += ",\"inflight_joins\":";
    out += std::to_string(inflightJoins_.load());
    out += ",\"shed\":";
    out += std::to_string(jobsShed_.load());
    out += ",\"cancelled\":";
    out += std::to_string(jobsCancelled_.load());
    out += ",\"recovered\":";
    out += std::to_string(jobsRecovered_.load());
    out += ",\"client_gone\":";
    out += std::to_string(clientGone_.load());
    out += "},\"workers\":{\"configured\":";
    out += std::to_string(options_.workers);
    out += ",\"crashes\":";
    out += std::to_string(workerCrashes_.load());
    out += ",\"cell_timeouts\":";
    out += std::to_string(cellTimeouts_.load());
    out += "},\"latency_ms\":{";
    const MetricsSnapshot snap =
        MetricsRegistry::instance().snapshot();
    const char *hist_keys[3][2] = {
        {"queue_wait", "gllcd.job.queue_wait_ms"},
        {"exec", "gllcd.job.exec_ms"},
        {"e2e", "gllcd.job.e2e_ms"},
    };
    for (int i = 0; i < 3; ++i) {
        if (i > 0)
            out += ',';
        std::int64_t p50 = 0;
        std::int64_t p95 = 0;
        if (const MetricValue *hist = snap.find(hist_keys[i][1])) {
            p50 = histogramQuantile(*hist, 0.50);
            p95 = histogramQuantile(*hist, 0.95);
        }
        out += '"';
        out += hist_keys[i][0];
        out += "\":{\"p50\":";
        out += std::to_string(p50);
        out += ",\"p95\":";
        out += std::to_string(p95);
        out += '}';
    }
    out += "},\"cache_hit_rate\":";
    std::snprintf(buf, sizeof(buf), "%.4f",
                  static_cast<double>(hits)
                      / static_cast<double>(
                          submitted > 0 ? submitted : 1));
    out += buf;
    out += '}';
    return out;
}

bool
SweepDaemon::handleStatusV2(int fd)
{
    return writeFrame(fd, statusV2Json(), options_.connTimeoutMs)
        .ok();
}

void
SweepDaemon::recordQueueGauges()
{
    if (!metricsActive())
        return;
    MetricsRegistry &registry = MetricsRegistry::instance();
    registry.maxGauge("gllcd.queue.depth",
                      static_cast<double>(queue_.depth()));
    for (const auto &[prio, depth] : queue_.classDepths())
        registry.maxGauge("gllcd.queue.depth.p"
                              + std::to_string(prio),
                          static_cast<double>(depth));
}

std::string
SweepDaemon::metricsExposition()
{
    recordQueueGauges();
    const MetricsSnapshot snap =
        MetricsRegistry::instance().snapshot();
    std::ostringstream os;
    snap.writePrometheus(os);
    // Queue-depth gauges are windowed: each scrape reports the max
    // depth since the previous scrape, then rearms the window so the
    // next scrape isn't forever stuck at the all-time high.
    for (const auto &[name, value] : snap.values()) {
        (void)value;
        if (name.compare(0, 17, "gllcd.queue.depth") == 0)
            MetricsRegistry::instance().rearmGauge(name);
    }
    recordQueueGauges();
    return os.str();
}

void
SweepDaemon::stitchJobTrace(const QueuedJob &job,
                            const std::string &trace_id,
                            const std::string &job_trace_dir,
                            double accepted_us, double popped_us,
                            double done_us)
{
    std::string merged = "{\"displayTimeUnit\": \"ms\", "
                         "\"traceEvents\": [\n";
    merged += daemonSpanJson("job", "job", accepted_us,
                             done_us - accepted_us, 0, job,
                             trace_id);
    merged += ",\n";
    merged += daemonSpanJson("queue-wait", "job_phase",
                             accepted_us, popped_us - accepted_us,
                             0, job, trace_id);
    merged += ",\n";
    merged += daemonSpanJson("execute", "job_phase", popped_us,
                             done_us - popped_us, 0, job, trace_id);

    // Splice every worker's span lines, each line re-validated so
    // one torn file cannot corrupt the merged timeline.
    DIR *dir = ::opendir(job_trace_dir.c_str());
    if (dir != nullptr) {
        std::vector<std::string> names;
        while (const dirent *entry = ::readdir(dir)) {
            const std::string name = entry->d_name;
            if (name.size() > 6
                && name.compare(0, 7, "worker-") == 0
                && name.size() > 6
                && name.compare(name.size() - 6, 6, ".jsonl")
                       == 0)
                names.push_back(name);
        }
        ::closedir(dir);
        std::sort(names.begin(), names.end());
        for (const std::string &name : names) {
            std::ifstream in(job_trace_dir + "/" + name);
            std::string line;
            while (std::getline(in, line)) {
                if (line.empty())
                    continue;
                Result<JsonValue> parsed = parseJson(line);
                if (!parsed.ok() || !parsed.value().isObject()
                    || parsed.value().find("ph") == nullptr) {
                    warn("gllcd: skipping torn trace line in %s",
                         name.c_str());
                    continue;
                }
                merged += ",\n";
                merged += line;
            }
        }
    }
    merged += "\n]}\n";

    const std::string out_path = options_.traceDir + "/job-"
                                 + std::to_string(job.id)
                                 + ".json";
    std::ofstream out(out_path,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
        warn("gllcd: cannot write merged job trace %s",
             out_path.c_str());
        return;
    }
    out << merged;
}

void
SweepDaemon::dispatchLoop()
{
    QueuedJob job;
    while (queue_.waitPop(job))
        executeJob(job);
}

void
SweepDaemon::executeJob(const QueuedJob &job)
{
    TraceCollector &collector = TraceCollector::instance();
    const double popped_us = collector.nowUs();
    const double accepted_us =
        job.acceptedUs > 0.0 ? job.acceptedUs : popped_us;
    if (metricsActive())
        recordLatencyMs("gllcd.job.queue_wait_ms",
                        spanMs(accepted_us, popped_us));
    if (eventLog_.active())
        eventLog_.emit(
            ServiceEvent("job_started")
                .num("job", static_cast<std::int64_t>(job.id))
                .str("tenant", job.tenant)
                .num("priority", job.priority)
                .dbl("queue_wait_ms",
                     spanMs(accepted_us, popped_us)));

    // Chaos site: die mid-dispatch with the job accepted but
    // unfinished — exactly the window --recover must cover.
    if (faultFires(FaultSite::DaemonCrash))
        std::_Exit(kDaemonCrashExitCode);

    ShardTelemetry telemetry;
    telemetry.jobId = job.id;
    telemetry.traceId =
        mintTraceId(job.id, job.spec.contentHash());
    telemetry.daemonEpochUs = collector.epochSinceBootUs();
    telemetry.events = &eventLog_;
    std::string job_trace_dir;
    if (!options_.traceDir.empty()) {
        job_trace_dir = options_.traceDir + "/job-"
                        + std::to_string(job.id) + ".d";
        std::error_code mkdir_error;
        std::filesystem::create_directories(job_trace_dir, mkdir_error);
        if (!mkdir_error)
            telemetry.traceDir = job_trace_dir;
        else
            warn("gllcd: cannot create job trace dir %s: %s",
                 job_trace_dir.c_str(), mkdir_error.message().c_str());
    }

    ShardedRunStats stats;
    Result<SweepResult> run =
        runShardedSweep(job.spec, options_.workers,
                        store_.traceCacheDir(), &stats, &telemetry);
    workerCrashes_.fetch_add(stats.workerCrashes);
    cellTimeouts_.fetch_add(stats.cellTimeouts);

    const double done_us = collector.nowUs();
    if (metricsActive()) {
        recordLatencyMs("gllcd.job.exec_ms",
                        spanMs(popped_us, done_us));
        recordLatencyMs("gllcd.job.e2e_ms",
                        spanMs(accepted_us, done_us));
    }
    if (!telemetry.traceDir.empty())
        stitchJobTrace(job, telemetry.traceId, job_trace_dir,
                       accepted_us, popped_us, done_us);

    const ResultKey key{job.spec.traceHash(),
                        job.spec.contentHash()};
    std::shared_ptr<JobState> state;
    {
        MutexLock lock(inflightMutex_);
        auto it = inflight_.find(key);
        GLLC_ASSERT_MSG(it != inflight_.end(),
                        "executed a job nobody is waiting on");
        state = it->second;
        inflight_.erase(it);
    }

    MutexLock state_lock(state->mutex);
    if (!run.ok()) {
        jobsFailed_.fetch_add(1);
        countMetric("gllcd.jobs.failed");
        state->failed = true;
        state->error = run.error();
        if (eventLog_.active())
            eventLog_.emit(
                ServiceEvent("job_failed")
                    .num("job", static_cast<std::int64_t>(job.id))
                    .str("tenant", job.tenant)
                    .str("error", run.error().toString()));
    } else {
        const SweepResult result = run.take();
        std::ostringstream payload;
        writeSweepJson(result, payload);
        state->payload = payload.str();
        state->header.quarantined = static_cast<std::uint32_t>(
            result.quarantined().size());
        state->header.wallSeconds = result.wallSeconds();
        jobsCompleted_.fetch_add(1);
        countMetric("gllcd.jobs.completed");
        if (!result.quarantined().empty()) {
            jobsQuarantined_.fetch_add(1);
            countMetric("gllcd.jobs.quarantined");
        }
        if (eventLog_.active())
            eventLog_.emit(
                ServiceEvent("job_completed")
                    .num("job", static_cast<std::int64_t>(job.id))
                    .str("tenant", job.tenant)
                    .num("cells", static_cast<std::int64_t>(
                                      result.cells().size()))
                    .num("quarantined",
                         static_cast<std::int64_t>(
                             result.quarantined().size()))
                    .dbl("exec_ms", spanMs(popped_us, done_us))
                    .dbl("e2e_ms", spanMs(accepted_us, done_us)));
        // Only complete results are worth replaying forever.
        if (result.quarantined().empty()) {
            Result<Unit> stored =
                store_.store(key, state->payload);
            if (!stored.ok())
                warn("gllcd: result store write failed: %s",
                     stored.error().toString().c_str());
        }
    }
    // Settle the journal only after the result (if any) is stored:
    // a crash in between replays the job, which is idempotent; the
    // reverse order would lose it.
    journal_.recordFinish(job.id,
                          run.ok() ? "completed" : "failed");
    state->done = true;
    state->doneCv.notifyAll();
}

} // namespace gllc
