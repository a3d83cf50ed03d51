"""Metric arithmetic of the benchmark of record.

The harness (perfbench/harness) measures and writes raw samples, counts
and spans; this module reduces them to the metrics BENCHMARK.json
names. Kept free of I/O so test_metrics.py can pin each rule.
"""

import math
import re
import statistics
import struct

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles the tail rule may report, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)

# Span name -> per-layer metric holding the sum of its self times.
SPAN_METRICS = {
    "synth.map": "synth.map_s",
    "synth.simulate": "synth.simulate_s",
    "clean.order_repair": "clean.order_repair_s",
    "clean.outlier_filter": "clean.outlier_filter_s",
    "clean.segmentation": "clean.segmentation_s",
    "clean.trip_filter": "clean.trip_filter_s",
    "odselect.analyze": "odselect.analyze_s",
    "mapmatch.match": "mapmatch.match_s",
    "mapattr.fetch": "mapattr.fetch_s",
    "analysis.transition_record": "analysis.records_s",
    "analysis.grid": "analysis.grid_s",
    "model.reml_fit": "model.reml_fit_s",
}

SPAN_RECORD = struct.Struct("<iiqqq")


def valid_name(name):
    """True when `name` is a legal metric or workload name."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def percentile(samples, pct):
    """Nearest-rank percentile of `samples` (pct in (0, 100])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count, ladder=TAIL_LADDER):
    """Highest ladder percentile with at least 10 of `count` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for pct in ladder:
        if count * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            best = pct
    return best


def tail(samples):
    """(percentile, value, sample count) by the tail rule, or None."""
    pct = tail_percentile(len(samples))
    if pct is None:
        return None
    return pct, percentile(samples, pct), len(samples)


def failed_share(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    return failed / attempted


def accounting(workload, t):
    """(attempted, failed) operations from a run's tallies `t`.

    Failures are a failed study, a query left without an outcome, an
    unroutable pair. Out-of-bounds probes and empty cells are outcomes
    the serve mix plans for, so they are not failures.
    """
    def n(key):
        return t.get(key, 0)

    if workload == "paper_study":
        return n("studies"), n("studies_failed")
    if workload == "serve_replay":
        outcomes = n("answered") + n("out_of_bounds") + n("empty_cell")
        return n("queries"), n("queries") - outcomes
    if workload == "metro_routing":
        return n("routes"), n("routes_unroutable")
    raise ValueError(f"unknown workload {workload!r}")


def read_spans(data):
    """Decodes the harness's span file: (name, parent, start_ns, end_ns,
    tag) tuples in recording order."""
    return list(SPAN_RECORD.iter_unpack(data))


def self_times(spans):
    """Self time of each span, in seconds: its duration minus the
    durations of its direct children. `spans` are (name, parent,
    start_ns, end_ns, ...) tuples; a parent index precedes its
    children."""
    own = [(s[3] - s[2]) * 1e-9 for s in spans]
    for s in spans:
        parent = s[1]
        if parent >= 0:
            own[parent] -= (s[3] - s[2]) * 1e-9
    return own


def self_time_by_name(spans, names):
    """Summed self time per span name."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        name = names[span[0]]
        totals[name] = totals.get(name, 0.0) + own
    return totals


def median(values):
    return statistics.median(values)


def end_to_end(report):
    """The end-to-end metrics of one untraced run."""
    if report["latency_ms"]:
        p50 = percentile(report["latency_ms"], 50)
        p99 = percentile(report["latency_ms"], 99)
    else:
        p50 = median(report["latency_p50_ms"])
        p99 = median(report["latency_p99_ms"])
    return {
        "setup_s": median(report["setup_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "serial_s": median(report["serial_s"]),
        "parallel_s": median(report["parallel_s"]),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
    }


def per_layer(report, spans, names, attempted, failed):
    """The per-layer metrics of one traced run (idle layers absent)."""
    out = dict(report["layer"])
    by_name = self_time_by_name(spans, names)
    for span_name, metric in SPAN_METRICS.items():
        if span_name in by_name:
            out[metric] = by_name[span_name]

    def ratio(num, den, metric):
        if num in out and den(out) > 0:
            out[metric] = out[num] / den(out)

    ratio("odselect.segments_selected",
          lambda m: m.get("odselect.segments_analyzed", 0),
          "odselect.selected_ratio")
    ratio("mapmatch.route_cache.hits",
          lambda m: m.get("mapmatch.route_cache.hits", 0)
          + m.get("mapmatch.route_cache.misses", 0),
          "mapmatch.route_cache.hit_ratio")
    ratio("roadnet.spatial_index.hits",
          lambda m: m.get("roadnet.spatial_index.candidates", 0),
          "roadnet.spatial_index.hit_ratio")

    serial = report["serial_s"]
    if serial and report["parallel_s"]:
        out["core.parallel_speedup"] = (median(serial)
                                        / median(report["parallel_s"]))
    traced = report["traced_total_s"] or 0.0
    if traced > 0 and serial:
        out["core.trace_overhead"] = traced / median(serial)
        out["core.unaccounted_s"] = traced - sum(self_times(spans))
    if report["latency_p99_ms"]:
        # serve: ReplayResult's p50 and p99 over `queries` samples.
        queries = out.get("serve.answered", 0) + out.get(
            "serve.out_of_bounds", 0) + out.get("serve.empty_cell", 0)
        pct = tail_percentile(queries, ladder=(50.0, 99.0))
        if pct is not None:
            known = {50.0: report["latency_p50_ms"],
                     99.0: report["latency_p99_ms"]}
            out["serve.latency_tail_pct"] = pct
            out["serve.latency_tail_ns"] = median(known[pct]) * 1e6
        out["serve.latency_samples"] = queries
        out["serve.qps"] = queries / median(serial)
    out["core.failed_share"] = failed_share(attempted, failed)
    return out
