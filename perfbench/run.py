#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end serving benchmark.

Run from the root of a wastenot checkout:

    python3 perfbench/run.py --workload ar_selective --seed 1 --seconds 20 --trace 0

It configures perfbench/ with CMake (which adds the repository root as a
subdirectory, so the `wastenot` library is built exactly as the root build
configures it), builds the benchmark and the checker's own test into
$CARGO_TARGET_DIR (default .bench_build), runs the checker test, then runs
the workload in a fresh process. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. Progress, the
metric tables and any check failures go to standard error; the run record
and, for --trace 1, the spans land in .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("ar_selective", "adaptive_mix", "ingest_serve")
OUT_DIR = ".bench_out"
# A workload run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout, env=None):
    """Runs `cmd` with its output sent to our stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, env=env).returncode
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a wastenot checkout (no CMakeLists.txt "
             "or src/ here)")
    bench_build = os.path.join(build_dir, "perfbench")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    if not os.path.isfile(os.path.join(bench_build, "CMakeCache.txt")):
        # FETCHCONTENT_FULLY_DISCONNECTED: the root build would otherwise
        # try to download GoogleTest when the system has none.
        if run_logged(["cmake", "-S", "perfbench", "-B", bench_build,
                       "-DCMAKE_BUILD_TYPE=Release",
                       "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"], 600,
                      env) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", bench_build, "--target", "wn_perfbench",
                   "perfbench_checker_test", "-j", jobs], 840, env) != 0:
        fail("build failed")
    return bench_build


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    bench_build = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if run_logged([os.path.join(bench_build, "perfbench_checker_test")],
                  60) != 0:
        fail("the answer checker's own test failed")

    cmd = [os.path.join(bench_build, "wn_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(args.workload + " did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(args.workload + " printed no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])

    if args.trace == 1:
        report_overhead(args)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


def report_overhead(args):
    """Tracing overhead: the traced run's end-to-end figures against the
    untraced run of the same workload and seed, when one was made."""
    stem = os.path.join(OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
    try:
        with open(stem + "-trace0.json") as f:
            plain = json.load(f)["end_to_end"]
        with open(stem + "-trace1.json") as f:
            traced = json.load(f)["end_to_end"]
    except (OSError, ValueError, KeyError):
        print("tracing overhead: run --trace 0 with the same seed first",
              file=sys.stderr)
        return
    lines = {}
    for name in ("throughput_qps", "latency_p50_ms", "latency_p99_ms"):
        if name in plain and name in traced and plain[name]["value"]:
            lines[name] = (traced[name]["value"] / plain[name]["value"] - 1) * 100
            print("tracing overhead %-16s %+.1f%% (traced %.4g, untraced %.4g)"
                  % (name, lines[name], traced[name]["value"],
                     plain[name]["value"]), file=sys.stderr)
    with open(stem + "-overhead.json", "w") as f:
        json.dump({k + "_change_pct": v for k, v in lines.items()}, f, indent=2)


if __name__ == "__main__":
    main()
