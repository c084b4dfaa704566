/**
 * @file
 * Self-timing replay hot-path benchmark (DESIGN.md section 9).
 *
 * Replays a pinned synthetic trace plus cached real frame traces
 * through every registered policy and reports accesses/sec and
 * per-cell wall-time percentiles in the stable "gllc-hotpath-v1"
 * JSON schema.  bench/microbench.cc is the CLI front end; the CI
 * perf-regression job compares its output against the checked-in
 * BENCH_hotpath.json baseline with tools/check_perf.py.
 *
 * Self-timing (steady_clock around each replay) rather than a
 * google-benchmark dependency: the measured unit — one whole
 * (trace, policy) replay — is seconds long at bench scale, so
 * framework-grade timer calibration buys nothing, and the harness
 * stays runnable anywhere the library builds.
 */

#ifndef GLLC_BENCH_HOTPATH_HH
#define GLLC_BENCH_HOTPATH_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "trace/frame_trace.hh"

namespace gllc
{

/** Schema identifier stamped into the report JSON. */
inline constexpr const char *kHotpathSchema = "gllc-hotpath-v1";

/** What to run: traces and repetition count. */
struct HotpathOptions
{
    /** Length of the pinned synthetic trace. */
    std::size_t syntheticAccesses = 2'000'000;

    /** Seed of the synthetic trace generator. */
    std::uint64_t seed = 42;

    /** Cached real frames replayed per policy (0 = synthetic only). */
    std::uint32_t realFrames = 1;

    /** Timed repeats of every (trace, policy) cell. */
    std::uint32_t repeats = 3;

    /** Policies to measure; empty = every registered base policy. */
    std::vector<std::string> policies;
};

/** Measured throughput of one policy across all traces and repeats. */
struct HotpathPolicyResult
{
    std::string policy;

    /** Accesses replayed, summed over traces and repeats. */
    std::uint64_t totalAccesses = 0;

    /** Wall seconds spent replaying, summed the same way. */
    double totalSeconds = 0.0;

    /**
     * Throughput of the best (fastest) repeat across the trace set.
     * Best-of, not mean-of, so one scheduler hiccup cannot trip the
     * CI regression gate.
     */
    double accessesPerSec = 0.0;

    /** Nearest-rank percentiles of per-cell wall time. */
    double p50CellMs = 0.0;
    double p95CellMs = 0.0;

    /**
     * totalMisses() summed over traces on the first repeat — a
     * determinism fingerprint, identical on every host.
     */
    std::uint64_t misses = 0;
};

/** One full benchmark run. */
struct HotpathReport
{
    std::uint32_t scaleLinear = 0;  ///< GLLC_SCALE of the real traces
    std::size_t syntheticAccesses = 0;
    std::uint32_t realFrames = 0;
    std::uint32_t repeats = 0;
    std::vector<HotpathPolicyResult> policies;
};

/**
 * Deterministic synthetic LLC trace mimicking the stream mix of a
 * rendered frame (Zipf-reused textures, streaming render-target and
 * display writes, read-write Z): same (accesses, seed) → byte-equal
 * trace on every host.
 */
FrameTrace syntheticHotpathTrace(std::size_t accesses,
                                 std::uint64_t seed);

/** Run the benchmark. */
HotpathReport runHotpathBench(const HotpathOptions &options);

/** Serialize @p report as "gllc-hotpath-v1" JSON. */
void writeHotpathJson(std::ostream &os, const HotpathReport &report);

/** Print the human-readable throughput table. */
void writeHotpathTable(std::ostream &os, const HotpathReport &report);

} // namespace gllc

#endif // GLLC_BENCH_HOTPATH_HH
