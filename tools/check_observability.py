#!/usr/bin/env python3
"""Schema validator for the observability artifacts gllc exports.

Validates the files an instrumented run or a telemetry-enabled gllcd
writes:

  * the metrics snapshot (GLLC_STATS_JSON / BenchObservability):
    {"schema": "gllc-stats-v1", "metrics": [...]} where every record
    carries a dotted name, a known type, and the value shape of that
    type (counters/gauges a scalar "value", histograms a "total" plus
    [bucket, count] pairs summing to it)
  * the timeline trace (GLLC_TRACE_OUT): Chrome trace-event JSON of
    complete ("X") spans with non-negative timestamps/durations and
    pid/tid fields, i.e. exactly what Perfetto / chrome://tracing
    loads
  * the service event log (gllcd --events): JSON lines of schema
    "gllcd-events-v1", each with a wall-clock ts_ms and a known
    event type carrying that type's required fields
  * a Prometheus text exposition scraped from gllcd's /metrics:
    format 0.0.4 with TYPE comments, monotone cumulative histogram
    buckets, and _count equal to the +Inf bucket
  * a merged per-job timeline (gllcd --trace-dir): daemon job spans
    plus worker cell spans stitched onto one clock, spanning >= 2
    processes

Usage:

    python3 tools/check_observability.py --stats stats.json \
        --trace trace.json [--expect-cells N] \
        --events events.jsonl [--result report.json] \
        --prom metrics.txt [--expect-series NAME ...] \
        --job-trace job-1.json [--expect-worker-pids N]

Any subset of the flags may be given; --expect-cells asserts the
trace holds exactly N "cell" spans (one per (frame, policy) pair of
the sweep that produced it); --result cross-checks the event log's
cell_quarantined events against the quarantined array of a sweep
report; --expect-series asserts the exposition carries a series
(repeatable); --expect-worker-pids asserts cell spans in the merged
job trace come from at least N distinct worker processes.  Exits 0
when every given file validates, 1 with a report otherwise.
"""

import argparse
import json
import sys

STATS_SCHEMA = "gllc-stats-v1"
EVENTS_SCHEMA = "gllcd-events-v1"
METRIC_TYPES = {"counter", "gauge", "histogram"}

# Per-event required fields beyond the envelope (schema, ts_ms,
# event).  Kept in lockstep with ServiceEventLog emit sites.
EVENT_FIELDS = {
    "daemon_started": {"pid", "workers"},
    "daemon_stopping": {"jobs_completed"},
    "job_accepted": {"job", "tenant", "priority", "frames",
                     "policies"},
    "job_cache_hit": {"job", "tenant", "priority"},
    "job_joined": {"tenant", "priority"},
    "job_started": {"job", "tenant", "priority", "queue_wait_ms"},
    "job_completed": {"job", "tenant", "cells", "quarantined",
                      "exec_ms", "e2e_ms"},
    "job_failed": {"job", "tenant", "error"},
    "cell_retry": {"job", "app", "frame", "policy", "attempts",
                   "error"},
    "cell_quarantined": {"job", "app", "frame", "policy",
                         "attempts", "error"},
    "worker_reap_timeout": {"job", "pid", "waited_ms"},
}


def fail(errors, message):
    errors.append(message)


def check_stats(path, errors):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        return fail(errors, f"{path}: top level is not an object")
    if doc.get("schema") != STATS_SCHEMA:
        fail(errors,
             f"{path}: schema {doc.get('schema')!r}, "
             f"expected {STATS_SCHEMA!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        return fail(errors, f"{path}: \"metrics\" is not an array")

    previous = None
    for i, m in enumerate(metrics):
        where = f"{path}: metrics[{i}]"
        if not isinstance(m, dict):
            fail(errors, f"{where}: not an object")
            continue
        name = m.get("name")
        if not isinstance(name, str) or not name:
            fail(errors, f"{where}: missing name")
            continue
        if previous is not None and not previous < name:
            fail(errors,
                 f"{where}: {name!r} out of order after {previous!r} "
                 "(export must be name-sorted)")
        previous = name
        mtype = m.get("type")
        if mtype not in METRIC_TYPES:
            fail(errors, f"{where} ({name}): bad type {mtype!r}")
            continue
        if mtype == "counter":
            if not isinstance(m.get("value"), int) or m["value"] < 0:
                fail(errors, f"{where} ({name}): counter needs a "
                     "non-negative integer value")
        elif mtype == "gauge":
            if not isinstance(m.get("value"), (int, float)):
                fail(errors, f"{where} ({name}): gauge needs a "
                     "numeric value")
        else:
            buckets = m.get("buckets")
            if not isinstance(buckets, list) or not buckets:
                fail(errors, f"{where} ({name}): histogram needs "
                     "non-empty buckets")
                continue
            total = 0
            for b in buckets:
                if (not isinstance(b, list) or len(b) != 2
                        or not isinstance(b[0], int)
                        or not isinstance(b[1], int) or b[1] < 0):
                    fail(errors, f"{where} ({name}): bucket {b!r} is "
                         "not [value, count]")
                    break
                total += b[1]
            else:
                if m.get("total") != total:
                    fail(errors, f"{where} ({name}): total "
                         f"{m.get('total')} != bucket sum {total}")
    return None


def check_trace(path, errors, expect_cells=None):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        return fail(errors, f"{path}: top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail(errors, f"{path}: \"traceEvents\" is not an array")
    if not events:
        fail(errors, f"{path}: no spans recorded")

    cells = 0
    for i, e in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(e, dict):
            fail(errors, f"{where}: not an object")
            continue
        if e.get("ph") != "X":
            fail(errors, f"{where}: ph {e.get('ph')!r}, expected "
                 "complete spans (\"X\")")
        if not isinstance(e.get("name"), str) or not e["name"]:
            fail(errors, f"{where}: missing name")
        for field in ("ts", "dur"):
            value = e.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                fail(errors,
                     f"{where}: bad {field} {value!r}")
        if e.get("pid") != 1:
            fail(errors, f"{where}: pid {e.get('pid')!r}, expected 1")
        if not isinstance(e.get("tid"), int) or e["tid"] < 0:
            fail(errors, f"{where}: bad tid {e.get('tid')!r}")
        if e.get("cat") == "cell":
            cells += 1
            args = e.get("args", {})
            for key in ("app", "frame", "policy"):
                if not isinstance(args.get(key), str):
                    fail(errors, f"{where}: cell span missing "
                         f"args.{key}")

    if expect_cells is not None and cells != expect_cells:
        fail(errors,
             f"{path}: {cells} cell spans, expected {expect_cells}")
    return None


def check_events(path, errors, result_path=None):
    """Validate a gllcd-events-v1 JSON-lines log; cross-check its
    cell_quarantined events against a sweep report's quarantined
    array when one is given."""
    quarantined = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                fail(errors, f"{where}: not JSON ({exc})")
                continue
            if not isinstance(event, dict):
                fail(errors, f"{where}: not an object")
                continue
            if event.get("schema") != EVENTS_SCHEMA:
                fail(errors,
                     f"{where}: schema {event.get('schema')!r}, "
                     f"expected {EVENTS_SCHEMA!r}")
            ts = event.get("ts_ms")
            if not isinstance(ts, int) or ts <= 0:
                fail(errors, f"{where}: bad ts_ms {ts!r}")
            etype = event.get("event")
            if etype not in EVENT_FIELDS:
                fail(errors, f"{where}: unknown event {etype!r}")
                continue
            missing = EVENT_FIELDS[etype] - set(event)
            if missing:
                fail(errors, f"{where}: {etype} missing "
                     f"{sorted(missing)}")
            if etype == "cell_quarantined" and not missing:
                quarantined.add((event["app"], event["frame"],
                                 event["policy"]))

    if result_path is None:
        return
    with open(result_path, encoding="utf-8") as handle:
        report = json.load(handle)
    reported = set()
    for q in report.get("quarantined", []):
        reported.add((q.get("app"), q.get("frame"),
                      q.get("policy")))
    if quarantined != reported:
        fail(errors,
             f"{path}: cell_quarantined events {sorted(quarantined)} "
             f"!= {result_path} quarantined {sorted(reported)}")


def check_prom(path, errors, expect_series=()):
    """Validate a Prometheus text exposition (format 0.0.4)."""
    typed = {}          # series base name -> declared type
    seen_series = set()  # every sample name observed
    buckets = {}        # histogram name -> [(le, cumulative count)]
    counts = {}         # histogram name -> _count value
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()

    for lineno, line in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "histogram"):
                    fail(errors, f"{where}: malformed TYPE line")
                else:
                    typed[parts[2]] = parts[3]
            continue
        # A sample: name[{labels}] value
        head, _, value = line.rpartition(" ")
        if not head:
            fail(errors, f"{where}: not a sample line")
            continue
        try:
            float(value)
        except ValueError:
            fail(errors, f"{where}: non-numeric value {value!r}")
            continue
        name, _, labels = head.partition("{")
        seen_series.add(name)
        if name.endswith("_bucket"):
            base = name[:-len("_bucket")]
            le = None
            for item in labels.rstrip("}").split(","):
                key, _, raw = item.partition("=")
                if key == "le":
                    le = raw.strip('"')
            if le is None:
                fail(errors, f"{where}: bucket without le label")
                continue
            bound = float("inf") if le == "+Inf" else float(le)
            buckets.setdefault(base, []).append(
                (bound, float(value)))
        elif name.endswith("_count"):
            counts[name[:-len("_count")]] = float(value)

    for base, series in sorted(buckets.items()):
        if typed.get(base) != "histogram":
            fail(errors, f"{path}: {base} has buckets but no "
                 "histogram TYPE line")
        prev_bound, prev_count = None, None
        for bound, count in series:
            if prev_bound is not None and (
                    bound <= prev_bound or count < prev_count):
                fail(errors, f"{path}: {base} buckets not "
                     "cumulative/monotone at le="
                     f"{bound}")
            prev_bound, prev_count = bound, count
        if not series or series[-1][0] != float("inf"):
            fail(errors, f"{path}: {base} missing +Inf bucket")
        elif base in counts and counts[base] != series[-1][1]:
            fail(errors, f"{path}: {base}_count {counts[base]} != "
                 f"+Inf bucket {series[-1][1]}")

    for wanted in expect_series:
        if wanted not in seen_series:
            fail(errors,
                 f"{path}: expected series {wanted!r} not exposed")


def check_job_trace(path, errors, expect_worker_pids=None):
    """Validate a merged per-job timeline: daemon job spans plus
    worker cell spans, all on one clock, from >= 2 processes."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        return fail(errors, f"{path}: top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail(errors, f"{path}: no spans recorded")

    job_pids = set()
    cell_pids = set()
    for i, e in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(e, dict) or e.get("ph") != "X":
            fail(errors, f"{where}: not a complete (\"X\") span")
            continue
        for field in ("ts", "dur"):
            if not isinstance(e.get(field), (int, float)):
                fail(errors, f"{where}: bad {field}")
        pid = e.get("pid")
        if not isinstance(pid, int) or pid <= 0:
            fail(errors, f"{where}: bad pid {pid!r}")
            continue
        if e.get("cat") == "job":
            job_pids.add(pid)
            if not isinstance(e.get("args", {}).get("trace"), str):
                fail(errors, f"{where}: job span missing args.trace")
        elif e.get("cat") == "cell":
            cell_pids.add(pid)

    if not job_pids:
        fail(errors, f"{path}: no daemon job span")
    if expect_worker_pids is not None:
        workers = cell_pids - job_pids
        if len(workers) < expect_worker_pids:
            fail(errors,
                 f"{path}: cell spans from {len(workers)} worker "
                 f"process(es), expected >= {expect_worker_pids}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stats", help="metrics snapshot JSON")
    parser.add_argument("--trace", help="trace-event JSON")
    parser.add_argument("--expect-cells", type=int, default=None,
                        help="exact number of cell spans the trace "
                        "must hold")
    parser.add_argument("--events",
                        help="gllcd-events-v1 JSON-lines log")
    parser.add_argument("--result",
                        help="sweep report JSON to cross-check "
                        "quarantine events against (needs --events)")
    parser.add_argument("--prom",
                        help="Prometheus text exposition scrape")
    parser.add_argument("--expect-series", action="append",
                        default=[],
                        help="series the exposition must carry "
                        "(repeatable)")
    parser.add_argument("--job-trace",
                        help="merged per-job timeline JSON")
    parser.add_argument("--expect-worker-pids", type=int,
                        default=None,
                        help="minimum distinct worker pids with "
                        "cell spans in the job trace")
    args = parser.parse_args()
    given = (args.stats, args.trace, args.events, args.prom,
             args.job_trace)
    if not any(given):
        parser.error("give at least one of --stats / --trace / "
                     "--events / --prom / --job-trace")
    if args.result and not args.events:
        parser.error("--result needs --events")

    errors = []
    if args.stats:
        check_stats(args.stats, errors)
    if args.trace:
        check_trace(args.trace, errors, args.expect_cells)
    if args.events:
        check_events(args.events, errors, args.result)
    if args.prom:
        check_prom(args.prom, errors, args.expect_series)
    if args.job_trace:
        check_job_trace(args.job_trace, errors,
                        args.expect_worker_pids)

    for error in errors:
        print(error)
    if errors:
        print(f"check_observability: {len(errors)} finding(s)")
        return 1
    checked = " and ".join(p for p in given if p)
    print(f"check_observability: OK ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
