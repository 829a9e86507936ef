#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarize each metric.

    python3 robobench/steadiness.py [--workloads track,fleet,design]
        [--seeds 1-10] [--seconds 20] [--trace 0|1] [--out FILE]

For every workload and end-to-end metric (per-layer with --trace 1) it
reports the median, the quartiles from statistics.quantiles(n=4), and
the quartile spread as a share of the median, next to the metric's
bound from BENCHMARK.json. Runs are sequential. With --out, the summary
(plus the host line of the first run) is written as JSON; that is how
robobench/baseline.json is produced.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="track,fleet,design")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, text=True, stdout=subprocess.PIPE)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (workload, seed,
                                               done.returncode))
                return 1
            if "host" not in summary:
                summary["host"] = json.loads(lines[0].split(" ", 1)[1])
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, m["value"])
                for n, m in result["metrics"].items())), flush=True)
        rows = {}
        for name, vals in values.items():
            if len(vals) > 1:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "runs": len(vals)}
            bound = bounds.get(name)
            print("%-8s %-34s median %12.6g  spread %.4f%s" % (
                workload, name, med, spread,
                "  (bound %.2f)" % bound if bound is not None else ""))
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
