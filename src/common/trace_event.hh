/**
 * @file
 * Chrome-trace / Perfetto timeline tracing.
 *
 * Spans recorded here serialize as trace-event JSON ("X" complete
 * events) loadable in Perfetto or chrome://tracing.  The sweep
 * engine emits one span per (app, frame, policy) cell and one per
 * pipeline phase (trace render, replay, merge), each tagged with the
 * worker thread that executed it, so ThreadPool utilization and
 * straggler cells are visible on a timeline.
 *
 * All spans share one clock: microseconds on std::chrono's steady
 * clock since the collector was created (the same clock the metrics
 * and progress layers use for wall time), so spans from different
 * threads line up.
 *
 * Activation (traceEventsActive()):
 *   - set GLLC_TRACE_OUT=<path>: spans are collected and the JSON is
 *     written there at process exit, or
 *   - call setTraceEventsActive(true) from a test and serialize with
 *     TraceCollector::instance().write().
 *
 * When inactive, TraceSpan construction is one boolean load and no
 * allocation.
 */

#ifndef GLLC_COMMON_TRACE_EVENT_HH
#define GLLC_COMMON_TRACE_EVENT_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"

namespace gllc
{

/** True when timeline span collection is enabled. */
bool traceEventsActive();

/** Force span collection on or off (tests, harness flags). */
void setTraceEventsActive(bool active);

/** Span metadata: ("app", "BioShock"), ("frame", "17"), ... */
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

/** Process-wide span collector. */
class TraceCollector
{
  public:
    /** The singleton (never destroyed, safe in atexit handlers). */
    static TraceCollector &instance();

    /** Microseconds on the shared span clock. */
    double nowUs() const;

    /**
     * The collector's clock zero expressed as microseconds on the
     * raw steady clock (CLOCK_MONOTONIC, i.e. since boot).  Two
     * processes on the same machine share that raw clock, so a
     * worker can shift its span timestamps by
     * (its epochSinceBootUs() - the daemon's) and land them on the
     * daemon's timeline — the basis of the merged per-job traces.
     */
    double epochSinceBootUs() const;

    /** Stable small id of the calling thread (assigned on first use). */
    std::uint32_t threadId();

    /** Record one complete ("X") span. */
    void complete(std::string name, const char *category,
                  double start_us, double end_us, TraceArgs args);

    /** Spans recorded so far (tests). */
    std::size_t size() const;

    /** Serialize as trace-event JSON ({"traceEvents": [...]}). */
    void write(std::ostream &os) const;

    /**
     * Serialize as bare trace-event objects, one per line (no
     * enclosing array), with every timestamp shifted by @p shift_us
     * and @p pid stamped as the process id.  Worker subprocesses use
     * this to stream their spans into per-job files the daemon can
     * splice verbatim into one merged timeline.
     */
    void writeJsonl(std::ostream &os, double shift_us,
                    std::uint32_t pid) const;

    /** Drop all recorded spans (tests). */
    void reset();

  private:
    TraceCollector();

    struct Event
    {
        std::string name;
        const char *category;
        double startUs;
        double durUs;
        std::uint32_t tid;
        TraceArgs args;
    };

    mutable Mutex mutex_;

    /** Immutable after construction: the shared span clock's zero. */
    std::chrono::steady_clock::time_point epoch_;

    std::vector<Event> events_ GLLC_GUARDED_BY(mutex_);
    std::uint32_t nextTid_ GLLC_GUARDED_BY(mutex_) = 0;
};

/**
 * RAII span: records [construction, destruction) on the calling
 * thread when span collection is active.
 *
 *   TraceSpan span("cell", app + "#" + frame + " " + policy,
 *                  {{"app", app}, {"policy", policy}});
 */
class TraceSpan
{
  public:
    TraceSpan(const char *category, std::string name,
              TraceArgs args = {});
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Add an arg known only once the span is under way. */
    void arg(std::string key, std::string value);

  private:
    bool active_;
    const char *category_ = nullptr;
    std::string name_;
    TraceArgs args_;
    double startUs_ = 0.0;
};

/**
 * Write the collected spans to the GLLC_TRACE_OUT path right now
 * (no-op when the variable is unset).  The same writer runs from the
 * atexit hook; daemons call this explicitly after a SIGTERM-initiated
 * stop so a drained gllcd leaves a complete timeline.
 */
void flushConfiguredTraceJson();

} // namespace gllc

#endif // GLLC_COMMON_TRACE_EVENT_HH
