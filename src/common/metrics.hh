/**
 * @file
 * Hierarchical low-overhead metrics registry (gem5-style stats).
 *
 * Components publish counters, gauges and histograms under dotted
 * names ("llc.bank0.stream.TEX.hits", "dram.ch0.row_conflicts",
 * "sweep.cells_done").  Accumulation is thread-local: every thread
 * that touches the registry owns a private shard, so hot paths never
 * contend on a shared lock; snapshot() merges all shards into one
 * name-sorted view.  Every merge operation is commutative (counters
 * sum, gauges take the maximum, histogram buckets sum), so a
 * snapshot of the same work is byte-identical whether it ran on one
 * thread or on many — the property the CI determinism check pins.
 *
 * Cost model: components keep their existing plain counters on the
 * access path and flush them here once per replay (or once per
 * DRAM schedule), so the per-access overhead of an instrumented
 * run is a handful of local array increments; registry map lookups
 * happen only at flush/snapshot granularity.
 *
 * Activation (metricsActive()):
 *   - set GLLC_STATS_JSON=<path> (snapshot written there at process
 *     exit), or
 *   - set GLLC_METRICS=1 (collect without the exit dump), or
 *   - call setMetricsActive(true) (tests, the --stats bench flag).
 *
 * Collection is observation-only by design: an instrumented replay
 * produces bit-identical RunResults to an uninstrumented one
 * (mirroring the audit layer's read-only guarantee).
 */

#ifndef GLLC_COMMON_METRICS_HH
#define GLLC_COMMON_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"

namespace gllc
{

/** True when metrics collection is enabled for this process. */
bool metricsActive();

/**
 * Force metrics collection on or off (tests, --stats).  Overrides
 * the GLLC_STATS_JSON / GLLC_METRICS environment switches.
 */
void setMetricsActive(bool active);

/** What a registry name holds; a name's kind never changes. */
enum class MetricKind : std::uint8_t
{
    Counter,    ///< monotonically accumulated uint64 (merge: sum)
    Gauge,      ///< double watermark (merge: max)
    Histogram,  ///< sparse value -> count buckets (merge: sum)
};

/** Human-readable kind name ("counter", "gauge", "histogram"). */
const char *metricKindName(MetricKind kind);

/**
 * Explicit latency bucket bounds (milliseconds) for the service
 * latency histograms.  recordLatencyMs() maps a measured duration to
 * the smallest bound that contains it, so sharded histograms stay
 * sparse, mergeable, and byte-identical across thread counts; the
 * Prometheus exposition renders the bounds as cumulative `le` edges.
 */
extern const std::int64_t kLatencyBucketBoundsMs[15];

/**
 * The histogram bucket (one of kLatencyBucketBoundsMs) that @p ms
 * falls into: the smallest bound >= ms, clamped to the largest bound
 * for longer durations.  Negative durations clamp to the first bound.
 */
std::int64_t latencyBucketMs(double ms);

/**
 * Record @p ms into the explicit-bucket latency histogram @p name.
 * No-op when metricsActive() is false, so hot paths may call it
 * unconditionally.
 */
void recordLatencyMs(const std::string &name, double ms);

/** One merged metric in a snapshot. */
struct MetricValue
{
    MetricKind kind = MetricKind::Counter;
    std::uint64_t count = 0;  ///< Counter value

    /** Gauge watermark; starts at -inf so any first value wins. */
    double gauge = -std::numeric_limits<double>::infinity();

    /** Histogram buckets: sample value -> occurrence count. */
    std::map<std::int64_t, std::uint64_t> buckets;

    /** Total histogram samples across buckets. */
    std::uint64_t samples() const;

    /** Merge another observation of the same metric (commutative). */
    void merge(const MetricValue &other, const std::string &name);
};

/**
 * The @p q quantile (0 <= q <= 1) of a histogram metric: the
 * smallest bucket key whose cumulative count reaches rank
 * ceil(q * samples).  Returns 0 for an empty histogram.  For the
 * explicit latency buckets this is the usual Prometheus-style upper
 * bound estimate (p95 reads as "95% of samples took at most this
 * many ms").
 */
std::int64_t histogramQuantile(const MetricValue &hist, double q);

/**
 * A merged, name-sorted view of the registry at one instant.  The
 * map order (lexicographic by dotted name) is the export order, so
 * two snapshots of the same values serialize identically.
 */
class MetricsSnapshot
{
  public:
    const std::map<std::string, MetricValue> &values() const
    {
        return values_;
    }

    /** The metric of that exact name, or nullptr. */
    const MetricValue *find(const std::string &name) const;

    /** Counter value by name (0 when absent). */
    std::uint64_t counter(const std::string &name) const;

    /** The subtree under a dotted prefix ("llc.bank0."). */
    MetricsSnapshot withPrefix(const std::string &prefix) const;

    /**
     * JSON export (schema "gllc-stats-v1"): a name-sorted array of
     * {"name", "type", ...} records; tools/check_observability.py
     * validates the shape.
     */
    void writeJson(std::ostream &os) const;

    /** CSV export: name,type,key,value (one row per bucket). */
    void writeCsv(std::ostream &os) const;

    /**
     * Prometheus text exposition (format version 0.0.4).  Dotted
     * names sanitize to underscore form; counters gain the `_total`
     * suffix (unless the name already ends in it); histograms
     * render their sparse buckets as cumulative
     * `_bucket{le="..."}` samples plus `_sum` / `_count` (the sum is
     * computed from bucket keys, i.e. bucketed durations for the
     * latency histograms).  Output is name-sorted and deterministic.
     */
    void writePrometheus(std::ostream &os) const;

  private:
    friend class MetricsRegistry;
    std::map<std::string, MetricValue> values_;
};

/** The process-wide metrics registry. */
class MetricsRegistry
{
  public:
    /** The singleton (never destroyed, safe in atexit handlers). */
    static MetricsRegistry &instance();

    /** Add @p delta to the counter @p name. */
    void addCounter(const std::string &name, std::uint64_t delta = 1);

    /** Raise the gauge @p name to @p value if it is higher. */
    void maxGauge(const std::string &name, double value);

    /** Record @p count occurrences of @p value in histogram @p name. */
    void recordValue(const std::string &name, std::int64_t value,
                     std::uint64_t count = 1);

    /**
     * Merge every thread's shard into one deterministic view.  A
     * name used with two different kinds panics here (and already at
     * accumulation time when the collision happens within a thread).
     */
    MetricsSnapshot snapshot() const;

    /** Drop all accumulated values (tests). */
    void reset();

    /**
     * Erase the gauge @p name from every shard so the next
     * observation starts a fresh max watermark.  This turns a
     * watermark gauge into a windowed gauge: the /metrics handler
     * rearms queue-depth gauges after each scrape, so every scrape
     * window reports the peak depth since the previous scrape rather
     * than the all-time peak.  No-op for counters and histograms.
     */
    void rearmGauge(const std::string &name);

  private:
    MetricsRegistry() = default;

    struct Shard
    {
        Mutex mutex;  ///< uncontended except during snapshot
        std::map<std::string, MetricValue> values
            GLLC_GUARDED_BY(mutex);
    };

    Shard &localShard() GLLC_EXCLUDES(mutex_);
    static MetricValue &slotLocked(Shard &shard,
                                   const std::string &name,
                                   MetricKind kind)
        GLLC_REQUIRES(shard.mutex);

    mutable Mutex mutex_;  ///< guards shards_ growth
    std::vector<std::unique_ptr<Shard>> shards_
        GLLC_GUARDED_BY(mutex_);
};

/**
 * Write the registry snapshot to the GLLC_STATS_JSON path right now
 * (no-op when the variable is unset).  The same writer runs from the
 * atexit hook; long-lived daemons call this explicitly after a
 * SIGTERM-initiated stop so a terminated process still leaves a
 * complete, valid stats artifact even if exit handlers are skipped.
 */
void flushConfiguredStatsJson();

} // namespace gllc

#endif // GLLC_COMMON_METRICS_HH
