#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] \
        [--seconds <s>]

Runs perfbench/run.py once per seed (untraced) and prints, per metric, the
median of the runs and the interquartile distance as a share of that
median, next to the metric's bound from BENCHMARK.json. A spread above a
third of its bound means the benchmark is not steady enough for that
metric (setup_s is reported but has no spread requirement).
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: run.py exited with {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']} " +
              " ".join(f"{k}={v['value']:.6g}"
                       for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        print(f"{m['name']:16s} {stats.median(v):12.6g} "
              f"{stats.spread(v):8.4f} {m['bound']:6.2f}")


if __name__ == "__main__":
    main()
