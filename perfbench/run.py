#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Builds the engine and the driver
(perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), stages files in a per-run scratch
directory that is removed at exit, runs the driver, checks its outputs and
prints every metric by name with its unit. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (untraced run); with
--trace 1 the run measures an untraced and a traced half, in alternating
slices, and the metrics are the per-layer ones, rolled up from the traced
half's spans and counters. Exits 1 when an output check fails, 2 when the
sources are missing or the build fails, 3 when the configuration is refused
(non-Release build, MLCS_DISABLE_* or MLCS_LOCK_DEBUG set).

Workloads (see perfbench/src/*.cc for what each does and checks):
  fig1_indb      in-database Figure-1 pipeline, 8 trees: ml/udf bound
  fig1_channels  the eight Figure-1 data channels, 1 tree: io/client bound
  sql_mixed      read-query mix + INSERT batches + checkpoints over a
                 disk-backed table: exec/bufpool/storage/sql bound
  serve_predict  open-loop single-row requests to an InferenceServer at a
                 low and a high rate, with model swaps: serve/modelstore

End-to-end metrics (every workload; the workload's unit operation is one
in-db pipeline run, one eight-channel pass, one read query, or one request
at the high rate):
  setup_s      median of the run's set-ups (each builds the workload anew)
  peak_rss_mb  peak resident set of the driver process
  p50_ms       median latency of the unit operation
  tail_ms      highest percentile up to p99 with >= 10 samples beyond it:
               p99 from 1000 operations on, close to the median for the
               ~20 runs of fig1_indb, the maximum with 10 or fewer samples
               (fig1_channels' passes); p95 on sql_mixed (the middle of
               the full sorts' 10 % share of the reads), p90 on
               serve_predict, which reports p50_ms and tail_ms as the
               median over 1-s windows of each window's p50 and p90
  ops_per_s    unit operations completed correctly per second; for
               serve_predict only OK answers within the 25 ms limit
               (goodput)
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

DRIVER_TIMEOUT_S = 170

# Span-name prefixes rolled up into per-layer self times (ms per unit
# operation of the traced half).
SPAN_PER_OP = {
    "sql.parse_ms": ("sql.parse",),
    "sql.plan_ms": ("sql.plan",),
    "sql.optimize_ms": ("sql.optimize",),
    "exec.scan_ms": ("SCAN ",),
    "exec.filter_ms": ("FILTER ", "HAVING "),
    "exec.join_ms": ("HASH JOIN", "LEFT JOIN"),
    "exec.aggregate_ms": ("AGGREGATE",),
    "exec.sort_ms": ("SORT",),
    "udf.gen_label_ms": ("udf:gen_label",),
    "udf.train_ms": ("udf:train_voter_rf",),
    "udf.predict_ms": ("udf:predict_voter_rf",),
}
# Benchmark spans around sql_mixed's writes: their trees stay out of the
# per-operation rollups, which are per read query there.
WRITE_ROOTS = ("bench.sql.insert", "bench.sql.checkpoint")
# Span names rolled up as mean self time per occurrence (ms).
SPAN_PER_SPAN = {
    "serve.predict_ms": ("serve.predict",),
    "modelstore.load_ms": ("model_cache.load",),
}

def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configures (once) and builds the driver; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(2, "build failed: " + " ".join(step))
    return os.path.join(build_dir, "mlcs_perfbench"), build_dir


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    u = raw["phases"]["untraced"]

    def tail(samples):
        return stats.tail(samples, percentile=u["tail_percentile"])

    if u["windows"]:
        p50_ms = stats.windowed(u["windows"], stats.median)
        tail_ms = stats.windowed(u["windows"], lambda w: tail(w)[1])
        pct = min(tail(w)[0] for w in u["windows"])
    else:
        p50_ms = stats.median(u["op_ms"])
        pct, tail_ms = tail(u["op_ms"])
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "p50_ms": p50_ms,
        "tail_ms": tail_ms,
        "ops_per_s": ratio(u["good_ops"], u["seconds"]),
    }, (f"unit operations: {len(u['op_ms'])}, windows: {len(u['windows'])}, "
        f"tail = p{pct:g}")


def per_layer(raw, names):
    """Per-layer values of the traced half; a layer the workload does not
    exercise reads 0."""
    u, t = raw["phases"]["untraced"], raw["phases"]["traced"]
    ops = max(1, len(t["op_ms"]))
    c = t["counters"]
    values = {name: 0.0 for name in names}
    values.update(t["layers"])
    for name, samples in t["samples"].items():
        values[name] = (stats.tail(samples)[1] if name.endswith("p99_ms")
                        else stats.median(samples))

    spans = [tuple(s) for s in t["spans"]]
    by_name = stats.self_time_by_name(spans, exclude_roots=WRITE_ROOTS)
    for metric, prefixes in list(SPAN_PER_OP.items()) + list(
            SPAN_PER_SPAN.items()):
        total = count = 0
        for name, (self_ms, n) in by_name.items():
            if name.startswith(prefixes):
                total += self_ms
                count += n
        values[metric] = total / (ops if metric in SPAN_PER_OP else
                                  max(1, count))

    def delta(name):
        return c.get(name, 0.0)

    values["sql.plan_cache_hit_ratio"] = ratio(
        delta("mlcs.plan_cache.hits"),
        delta("mlcs.plan_cache.hits") + delta("mlcs.plan_cache.misses"))
    values["exec.scan_bytes_per_query"] = delta("mlcs.scan.bytes_touched") / ops
    values["bufpool.hit_ratio"] = ratio(
        delta("mlcs.bufpool.hits"),
        delta("mlcs.bufpool.hits") + delta("mlcs.bufpool.misses"))
    values["bufpool.bytes_read"] = delta("mlcs.bufpool.bytes_read") / ops
    values["bufpool.evictions"] = delta("mlcs.bufpool.evictions") / ops
    values["bufpool.pin_io_wait_ms"] = (
        delta("mlcs.wait.bufpool.load.sum") / 1e3 / ops)
    values["storage.encoded_bytes"] = delta("mlcs.encode.encoded_bytes") / ops
    values["serve.batch_rows_avg"] = ratio(
        delta("mlcs.serve.batched_rows"), delta("mlcs.serve.batches_executed"))
    values["serve.rejected_overload"] = delta("mlcs.serve.rejected_overload")
    values["serve.expired_deadline"] = delta("mlcs.serve.expired_deadline")
    values["modelstore.cache_hit_ratio"] = ratio(
        delta("mlcs.model_cache.hits"),
        delta("mlcs.model_cache.hits") + delta("mlcs.model_cache.misses"))
    values["common.pool_task_wait_ms"] = (
        delta("mlcs.threadpool.task_wait_us.sum") / 1e3 / ops)
    lock_us = sum(v for k, v in c.items()
                  if re.fullmatch(r"mlcs\.wait\.lock\..*\.sum", k))
    values["common.lock_wait_ms"] = lock_us / 1e3 / ops
    # p99 of the unit operation (fewer with < 10 samples beyond). Not an
    # end-to-end metric: on a shared host a p99 mostly measures the
    # neighbours, so it cannot carry a bound; tail_ms is the bounded tail.
    values["unit_op.p99_ms"] = stats.tail(t["op_ms"])[1]
    # The untraced and traced halves alternate (ABBA slices), so the ratio
    # compares the same stretch of the run.
    values["obs.trace_overhead"] = ratio(stats.median(t["op_ms"]),
                                         stats.median(u["op_ms"]))
    return values, (f"traced unit operations: {len(t['op_ms'])}, "
                    f"spans: {len(spans)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail(2, f"engine sources not found under {root}/src")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    driver, build_dir = build(root)

    scratch = tempfile.mkdtemp(prefix="run-",
                               dir=os.path.join(build_dir, os.pardir))
    try:
        raw_path = os.path.join(scratch, "raw.json")
        cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch, "--out", raw_path]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(1, f"driver timed out after {DRIVER_TIMEOUT_S} s")
        if proc.returncode != 0:
            fail(proc.returncode if proc.returncode > 0 else 1,
                 f"driver exited with {proc.returncode}")
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        values, note = per_layer(raw, [m["name"] for m in spec])
    else:
        values, note = end_to_end(raw)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec}
    correct = raw["wrong"] == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{note}; driver wall {time.monotonic() - started:.1f} s")
    for key, value in sorted(raw["config"].items()):
        print(f"config {key} = {value}")
    for message in raw["messages"]:
        print(f"failure: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
