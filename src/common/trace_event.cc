#include "common/trace_event.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "common/env.hh"
#include "common/logging.hh"

namespace gllc
{

namespace
{

/** -1 = undecided (read the environment), 0 = off, 1 = on. */
std::atomic<int> traceState{-1};

/** The calling thread's span-clock thread id; 0 = unassigned. */
thread_local std::uint32_t tlsTraceTid = 0;

/**
 * Write the collected spans to the GLLC_TRACE_OUT path.  Registered
 * as an atexit handler; also invoked directly via
 * flushConfiguredTraceJson() by long-lived daemons.
 */
void
writeTraceJsonNow()
{
    const std::string path = envString("GLLC_TRACE_OUT", "");
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os) {
        warn("GLLC_TRACE_OUT: cannot write %s", path.c_str());
        return;
    }
    TraceCollector::instance().write(os);
}

void
scheduleTraceExportOnce()
{
    static std::once_flag once;
    std::call_once(once, [] {
        TraceCollector::instance();  // leaked: outlives atexit
        std::atexit(writeTraceJsonNow);
    });
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/** Fixed-point microseconds: deterministic, no locale surprises. */
std::string
fmtUs(double us)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", us);
    return buf;
}

} // namespace

bool
traceEventsActive()
{
    int v = traceState.load(std::memory_order_relaxed);
    if (v < 0) {
        const bool out = !envString("GLLC_TRACE_OUT", "").empty();
        v = out ? 1 : 0;
        traceState.store(v, std::memory_order_relaxed);
        if (out)
            scheduleTraceExportOnce();
    }
    return v != 0;
}

void
setTraceEventsActive(bool active)
{
    traceState.store(active ? 1 : 0, std::memory_order_relaxed);
    if (active && !envString("GLLC_TRACE_OUT", "").empty())
        scheduleTraceExportOnce();
}

TraceCollector &
TraceCollector::instance()
{
    static auto *collector = new TraceCollector;
    return *collector;
}

TraceCollector::TraceCollector()
    : epoch_(std::chrono::steady_clock::now())
{
}

double
TraceCollector::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

double
TraceCollector::epochSinceBootUs() const
{
    return std::chrono::duration<double, std::micro>(
               epoch_.time_since_epoch())
        .count();
}

std::uint32_t
TraceCollector::threadId()
{
    if (tlsTraceTid == 0) {
        MutexLock lock(mutex_);
        tlsTraceTid = ++nextTid_;
    }
    return tlsTraceTid;
}

void
TraceCollector::complete(std::string name, const char *category,
                         double start_us, double end_us,
                         TraceArgs args)
{
    const std::uint32_t tid = threadId();
    MutexLock lock(mutex_);
    events_.push_back(Event{std::move(name), category, start_us,
                            end_us - start_us, tid,
                            std::move(args)});
}

std::size_t
TraceCollector::size() const
{
    MutexLock lock(mutex_);
    return events_.size();
}

namespace
{

/** One trace-event object (no trailing separator). */
void
writeEventObject(std::ostream &os, const std::string &name,
                 const char *category, double start_us, double dur_us,
                 std::uint32_t pid, std::uint32_t tid,
                 const TraceArgs &args)
{
    os << "{\"name\": \"" << jsonEscape(name) << "\", \"cat\": \""
       << category << "\", \"ph\": \"X\", \"ts\": " << fmtUs(start_us)
       << ", \"dur\": " << fmtUs(dur_us) << ", \"pid\": " << pid
       << ", \"tid\": " << tid;
    if (!args.empty()) {
        os << ", \"args\": {";
        for (std::size_t a = 0; a < args.size(); ++a) {
            os << (a ? ", " : "") << "\"" << jsonEscape(args[a].first)
               << "\": \"" << jsonEscape(args[a].second) << "\"";
        }
        os << "}";
    }
    os << "}";
}

} // namespace

void
TraceCollector::write(std::ostream &os) const
{
    MutexLock lock(mutex_);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        os << "  ";
        writeEventObject(os, e.name, e.category, e.startUs, e.durUs,
                         1, e.tid, e.args);
        os << (i + 1 < events_.size() ? "," : "") << '\n';
    }
    os << "]}\n";
}

void
TraceCollector::writeJsonl(std::ostream &os, double shift_us,
                           std::uint32_t pid) const
{
    MutexLock lock(mutex_);
    for (const Event &e : events_) {
        writeEventObject(os, e.name, e.category, e.startUs + shift_us,
                         e.durUs, pid, e.tid, e.args);
        os << '\n';
    }
}

void
TraceCollector::reset()
{
    MutexLock lock(mutex_);
    events_.clear();
}

TraceSpan::TraceSpan(const char *category, std::string name,
                     TraceArgs args)
    : active_(traceEventsActive())
{
    if (!active_)
        return;
    category_ = category;
    name_ = std::move(name);
    args_ = std::move(args);
    startUs_ = TraceCollector::instance().nowUs();
}

void
TraceSpan::arg(std::string key, std::string value)
{
    if (active_)
        args_.emplace_back(std::move(key), std::move(value));
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    TraceCollector &collector = TraceCollector::instance();
    collector.complete(std::move(name_), category_, startUs_,
                       collector.nowUs(), std::move(args_));
}

void
flushConfiguredTraceJson()
{
    writeTraceJsonNow();
}

} // namespace gllc
