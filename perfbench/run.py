#!/usr/bin/env python3
"""Builds and runs the nagano repository benchmark (see README.md).

    python3 perfbench/run.py --workload read_zipf --seed 1 --trace 0
    python3 perfbench/run.py               # every workload, one report

The program is built from the sources next to this directory into
.bench_build/perfbench, its own tests run, then the measuring program runs
one workload. The last line of standard output is one JSON object with the
run's outcome and exactly the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1) that BENCHMARK.json names; the workloads,
metric names and units are read from there.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    """The benchmark's definition: BENCHMARK.json at the repository root."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configures once and builds incrementally; the log goes to a file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no nagano sources at src/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    tests = subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, cwd=ROOT)
    if tests.returncode != 0:
        sys.stderr.write(tests.stdout)
        fail("the benchmark's own tests failed")


def run_workload(spec, name, seed, seconds, trace):
    """Runs one workload; returns (result dict, report lines)."""
    command = [os.path.join(BUILD, "perfbench"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace),
               "--work-dir", os.path.join(BUILD, "work")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (name, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing (exit %d)" % (name, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON: %r" % (name, lines[-1]))
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(names):
        fail("%s reported metrics %s, expected %s"
             % (name, sorted(metrics), sorted(names)))
    for want in wanted:
        metric = metrics[want["name"]]
        if metric.get("unit") != want["unit"]:
            fail("%s: %s has unit %r, expected %r"
                 % (name, want["name"], metric.get("unit"), want["unit"]))
        if not math.isfinite(metric.get("value", float("nan"))):
            fail("%s: %s is not a finite number" % (name, want["name"]))
    ordered = {
        "correct": bool(result.get("correct")) and proc.returncode == 0,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": {n: metrics[n] for n in names},
    }
    return ordered, lines[:-1]


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    workloads = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", default="all",
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    selected = workloads if args.workload == "all" else [args.workload]
    results = []
    for name in selected:
        result, report = run_workload(spec, name, args.seed, args.seconds,
                                      args.trace)
        print("\n".join(report), flush=True)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        for name, result in zip(selected, results):
            print(json.dumps(dict(result, workload=name)))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
