#!/usr/bin/env python3
"""Benchmark of record: builds the harness, runs one workload, checks its
outputs and prints the metrics.

    python3 perfbench/run.py --workload paper_study --seed 0 --seconds 30 --trace 0

Run from the repository root. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. A failed correctness gate prints correct=false and exits 1.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("paper_study", "serve_replay", "metro_routing")
DEFAULT_SEED = 0
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build_harness():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "taxitrace")):
        fail("the taxitrace sources are not beside perfbench/; "
             "run from a full checkout", code=2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out, *generator,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target",
                      "perfbench_harness", "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {step[:2]} failed: {err}")
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed, see {log_path}")
    return os.path.join(out, "perfbench_harness")


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not metrics.valid_name(m["name"]):
                fail(f"invalid metric name {m['name']!r}")
    return spec


def committed_digests():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def digest_gates(seed, digests):
    """Default-seed outputs against the committed values."""
    if seed != DEFAULT_SEED:
        return []
    expected = committed_digests()
    gates = []
    for name, value in digests.items():
        want = expected.get(name)
        if name == "paper_study":
            # core::StudyDigestJson: name the fields that differ.
            value = json.loads(value)
            detail = "fields differ: " + ", ".join(
                sorted(k for k in set(value) | set(want or {})
                       if (want or {}).get(k) != value.get(k)))
        else:
            detail = f"expected {want} got {value}"
        gates.append({"name": f"{name}_matches_committed_digest",
                      "ok": want == value, "detail": detail})
    return gates


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", code=2)

    harness = build_harness()
    spec = load_spec()
    out_dir = os.path.join(build_dir(), "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-{args.seed}-{args.trace}")
    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", stem + ".json"]
    if args.trace:
        command += ["--spans", stem + ".spans"]
    try:
        done = subprocess.run(command, timeout=HARNESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"harness exited with {done.returncode}")
    with open(stem + ".json") as f:
        report = json.load(f)

    attempted, failed = metrics.accounting(args.workload, report["tallies"])
    gates = report["gates"] + digest_gates(args.seed, report["digests"])
    gates.append({"name": "no_failed_operations",
                  "ok": attempted > 0 and failed == 0,
                  "detail": f"{failed} of {attempted} failed"})
    correct = all(g["ok"] for g in gates)
    for g in gates:
        if not g["ok"]:
            print(f"perfbench: gate {g['name']} failed: {g['detail']}",
                  file=sys.stderr)

    try:
        if args.trace:
            with open(stem + ".spans", "rb") as f:
                spans = metrics.read_spans(f.read())
            values = metrics.per_layer(report, spans, report["span_names"],
                                       attempted, failed)
            wanted = spec["per_layer"]
        else:
            values = metrics.end_to_end(report)
            wanted = spec["end_to_end"]
    except (KeyError, ValueError) as err:  # e.g. a set-up that failed
        fail(f"no metrics: {err!r}")
    # A layer the workload leaves idle reports 0.
    result = {m["name"]: {"value": values.get(m["name"], 0.0),
                          "unit": m["unit"]} for m in wanted}

    fingerprint = dict(report["fingerprint"], workload=args.workload,
                       commit=git_commit(), seconds=args.seconds,
                       trace=args.trace)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    if report["latency_ms"]:
        t = metrics.tail(report["latency_ms"])
        if t is not None:
            print(f"latency samples {t[2]}, tail p{t[0]:g} = {t[1]:.6g} ms")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
