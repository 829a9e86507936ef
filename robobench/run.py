#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 robobench/run.py --workload track|fleet|design --seed N \
        --seconds S --trace 0|1
    python3 robobench/run.py --self-test [--workload W] [--seconds S]

Run from the root of a checkout. The first call configures and builds
the benchmark (robobench/CMakeLists.txt, an optimized build of the
library sources under src/) into .bench_build; later calls rebuild
incrementally. Build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. See robobench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "robobench")
WORKLOADS = ("track", "fleet", "design")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark; exit nonzero on error."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "--target", "robobench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(workload, seed, seconds, trace, capture=False):
    """Run one workload; returns the CompletedProcess."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-%d.json" % (workload, seed))]
    return subprocess.run(command, text=True,
                          stdout=subprocess.PIPE if capture else None)


def tagged(output, tag):
    """The JSON payload of the first stdout line starting with tag."""
    for line in output.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise ValueError("no '%s' line in output" % tag)


def self_test(seconds, workloads):
    """Checks of the benchmark itself (see README.md)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    problems = []
    for workload in workloads:
        runs = {}
        for key, seed, trace in (("a", 1, 1), ("b", 1, 1), ("c", 2, 1),
                                 ("plain", 1, 0)):
            done = run(workload, seed, seconds, trace, capture=True)
            if done.returncode != 0:
                problems.append("%s seed %d trace %d exited %d"
                                % (workload, seed, trace, done.returncode))
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            got = [(n, m["unit"]) for n, m in result["metrics"].items()]
            if got != expected[trace]:
                problems.append("%s trace %d metrics differ from "
                                "BENCHMARK.json" % (workload, trace))
            if not result["correct"]:
                problems.append("%s seed %d: output checks failed"
                                % (workload, seed))
            runs[key] = done.stdout
        if len(runs) < 4:
            continue
        a, b, c = (tagged(runs[k], "counts") for k in "abc")
        ia, ib, ic = (tagged(runs[k], "inputs") for k in "abc")
        if a != b:
            problems.append(workload + ": counts differ for one seed: " +
                            ", ".join("%s %s != %s" % (k, a[k]["value"],
                                                       b.get(k, {}).get("value"))
                                      for k in a if a[k] != b.get(k)))
        if ia != ib:
            problems.append(workload + ": inputs differ for one seed")
        if ia["digest"] == ic["digest"]:
            problems.append(workload + ": a second seed left inputs unchanged")
        if ia["coverage"] != ic["coverage"]:
            problems.append(workload + ": a second seed changed the "
                            "robot/design-point set")
        if set(a) != set(c):
            problems.append(workload + ": count metric set depends on seed")
        print("self-test %-6s counts %s, digests %s/%s"
              % (workload, "identical" if a == b else "DIFFER",
                 ia["digest"], ic["digest"]))
    for p in problems:
        print("self-test FAIL " + p)
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        build()
        return self_test(args.seconds or 3,
                         [args.workload] if args.workload else WORKLOADS)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()
    return run(args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
