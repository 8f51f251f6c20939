#!/usr/bin/env python3
"""Benchmark entry point: build the TBON library and the benchmark binary,
run one workload in a fresh process, and print one JSON result line.

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root.  The build goes to .bench_build/ there.
With --trace 0 the result holds every end-to-end metric; with --trace 1 it
holds every per-layer metric (an untraced run of the same length comes
first, so the tracing overhead can be reported).  The exit code is non-zero
when the build fails or any op fails its check.  --smoke runs every
workload briefly in both modes and checks that every metric named in
BENCHMARK.json is printed.  See perfbench/README.md.
"""

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tbon_perfbench")
BUILD_SECONDS = 850.0  # the first run in a checkout compiles the library
RUN_SECONDS = 170.0    # every later step must end within 180 s
deadline = time.monotonic() + RUN_SECONDS

WORKLOADS = ("query", "stream", "bulk", "meanshift")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "tbon_perfbench"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT,
                                timeout=BUILD_SECONDS)
        if result.returncode != 0:
            log(f"build failed: {' '.join(step)}")
            return False
    return True


def reap_descendants():
    """Reap node processes re-parented to us (we are their subreaper)."""
    give_up = time.monotonic() + 5.0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > give_up:
                return
            time.sleep(0.01)


def run_binary(args):
    """Run the binary in its own process group; returns (exit code, result)."""
    proc = subprocess.Popen([BINARY] + [str(a) for a in args], cwd=ROOT,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        out = b""
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # stray node processes, if any
    except ProcessLookupError:
        pass
    reap_descendants()
    lines = out.decode(errors="replace").strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            log(f"unparsable output: {lines[-1][:200]}")
    return proc.returncode, result


def run_workload(workload, seed, seconds, trace):
    common = ["--workload", workload, "--seed", seed, "--seconds", seconds]
    if not trace:
        return run_binary(common + ["--trace", 0])
    # Untraced reference for the overhead, then the traced run.
    code, plain = run_binary(common + ["--trace", 0, "--setup-cycles", 0])
    if plain is None:
        return code, None
    trace_dir = os.path.join(BUILD, "trace", str(os.getpid()))
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    try:
        traced_code, traced = run_binary(common + ["--trace", 1, "--trace-dir", trace_dir,
                                                   "--setup-cycles", 0])
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    if traced is None:
        return traced_code, None
    # Tracing overhead is judged on latency_p50_us, every workload's headline.
    base, with_trace = plain["headline"], traced["headline"]
    overhead = (with_trace - base) / base if base > 0 else 0.0
    traced["metrics"]["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    traced["metrics"]["tail.latency_p99_us"] = {"value": plain["tail_p99_us"], "unit": "us"}
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["correct"] = traced["correct"] and plain["correct"]
    log(f"trace overhead on latency_p50_us: {overhead:+.3f}")
    return max(code, traced_code), traced


def smoke():
    """Run every workload briefly in both modes and check every metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    global deadline
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            deadline = time.monotonic() + RUN_SECONDS
            code, result = run_workload(workload, 1, 1, trace)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = (result or {}).get("metrics", {})
            missing = sorted(set(wanted) - set(got))
            extra = sorted(set(got) - set(wanted))
            bad = sorted(n for n, v in got.items()
                         if n in wanted and (v["unit"] != wanted[n]
                                             or not math.isfinite(v["value"])))
            good = code == 0 and result is not None and not (missing or extra or bad)
            ok = ok and good
            print(f"{workload:10s} trace={int(trace)} {'ok' if good else 'FAIL'} "
                  f"exit={code} missing={missing} extra={extra} bad={bad}", flush=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    # Node processes the binary forks are re-parented to us if it dies.
    libc = ctypes.CDLL(None, use_errno=True)
    PR_SET_CHILD_SUBREAPER = 36
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    if not build():
        return 1
    global deadline
    deadline = time.monotonic() + RUN_SECONDS
    if args.smoke:
        return smoke()
    code, result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        return code or 1
    result.pop("headline", None)
    result.pop("tail_p99_us", None)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
