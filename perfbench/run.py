#!/usr/bin/env python3
"""tramlib benchmark entry point.

Builds perfbench/ (the library from ../src plus the benchmark binary) into
.bench_build/perfbench under the checkout root, runs one workload, and
prints the binary's output. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. An untraced run
spreads --seconds over PROCESSES processes and merges their results; a
traced run is one process.

    python3 perfbench/run.py --workload hist-smp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

With --trace 1 the per-layer spans are also written to
.bench_build/traces/<workload>-seed<seed>.json (Chrome trace format).
Exits nonzero, without a result line, when the build fails or the
binary's result is malformed; exits nonzero with a result line when
verification fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "tramlib_bench")
WORKLOADS = ("hist-smp", "ig-closed", "mesh-lossy")
# Every invocation must end within this many seconds (the first one in a
# checkout also builds, which the limit leaves out).
RUN_LIMIT_S = 175
# An untraced invocation splits --seconds over this many processes and
# reports, per metric, the median over them. A process keeps a speed of its
# own for its whole life: on a 4-vCPU KVM guest, one 60 s hist-smp process
# read 34.5-35.2 M updates/s in every 10 s window while separate processes
# read 37-48 M. Medians over several processes therefore repeat better
# than a median over one.
PROCESSES = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output goes to
    stderr so stdout stays the benchmark's."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SRC, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    """The checkout's commit, or "none" outside a git work tree (the
    lookup stays inside the checkout)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode,
    or None when the file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_result(line, trace):
    """The result object of one process's last stdout line, or None when
    it is malformed or its metrics differ from BENCHMARK.json."""
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    expected = expected_metrics(trace)
    if expected is not None and got != expected:
        log("perfbench: metrics differ from BENCHMARK.json: %s"
            % sorted(set(got.items()) ^ set(expected.items())))
        return None
    if not all(isinstance(m.get("value"), (int, float))
               for m in res["metrics"].values()):
        return None
    return res


def merge(results):
    """One result from the results of several processes: each metric is
    the median over processes, attempted is the sum, and if any process
    failed verification every operation attempted counts as failed."""
    attempted = sum(r["attempted"] for r in results)
    correct = all(r["correct"] for r in results)
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"]
                                          for r in results),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()}
    return {"correct": correct, "attempted": attempted,
            "failed": 0 if correct else attempted, "metrics": metrics}


def self_test():
    """Checks merge() on hand-computed cases; returns the failure count."""
    def result(correct, attempted, value):
        return {"correct": correct, "attempted": attempted,
                "failed": 0 if correct else attempted,
                "metrics": {"m": {"value": value, "unit": "s"}}}
    cases = [
        (merge([result(True, 10, 3.0), result(True, 20, 1.0),
                result(True, 30, 2.0)]),
         {"correct": True, "attempted": 60, "failed": 0,
          "metrics": {"m": {"value": 2.0, "unit": "s"}}}),
        (merge([result(True, 10, 1.0), result(False, 20, 4.0)]),
         {"correct": False, "attempted": 30, "failed": 30,
          "metrics": {"m": {"value": 2.5, "unit": "s"}}}),
    ]
    failures = 0
    for got, want in cases:
        if got != want:
            print("self-test FAIL: merge gave %s, want %s" % (got, want))
            failures += 1
    print("run.py self-test: %d failure(s)" % failures)
    return failures


def run_process(cmd, deadline):
    """Runs one benchmark process; returns (stdout lines, exit code), or
    None when it overran the deadline."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None
    sys.stderr.write(proc.stderr)
    return proc.stdout.rstrip("\n").split("\n"), proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the benchmark's percentile, failed_frac and "
                         "merge arithmetic, then exit")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2
    if args.self_test:
        cpp = subprocess.run([BINARY, "--self-test"]).returncode
        return 1 if cpp != 0 or self_test() != 0 else 0

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
        processes = 1
    else:
        processes = PROCESSES
    cmd += ["--seconds", repr(args.seconds / processes)]

    start = time.monotonic()
    results = []
    worst_exit = 0
    for _ in range(processes):
        out = run_process(cmd, start + RUN_LIMIT_S)
        if out is None:
            log("perfbench: %s did not finish within %d s"
                % (args.workload, RUN_LIMIT_S))
            return 3
        lines, code = out
        print("\n".join(lines[:-1]))
        res = parse_result(lines[-1], args.trace)
        if res is None:
            log("perfbench: no valid result line (exit %d)" % code)
            return code or 4
        results.append(res)
        worst_exit = max(worst_exit, code)
    print("wall %.1f s over %d process(es)"
          % (time.monotonic() - start, processes))
    print(json.dumps(merge(results)), flush=True)
    return worst_exit


if __name__ == "__main__":
    sys.exit(main())
