#!/usr/bin/env python3
"""Builds and runs the repository benchmark (one workload per call).

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. The first call configures
and builds perfbench/ (which compiles the sqopt library from src/) into
$CARGO_TARGET_DIR, default .bench_build/; later calls rebuild
incrementally. Build output goes to stderr. The benchmark's own output
goes to stdout, ending with one JSON result line. Exits non-zero,
without a result line, when the checkout has no sources, the build
fails, the run fails its harness checks, or the run overruns.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_root):
    binary = os.path.join(build_root, "perfbench", "perfbench")
    os.makedirs(build_root, exist_ok=True)
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build_dir = os.path.join(build_root, "perfbench")
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed", 4)
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed", 4)
    return binary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["adhoc", "scan", "churn", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no sqopt sources next to perfbench/ (expected CMakeLists.txt "
             "and src/ in " + ROOT + ")")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    work_dir = os.path.join(build_root, "work", tag)
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir,
           "--spans", os.path.join(trace_dir, "spans-%s.tsv" % tag)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 5)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if proc.returncode != 0:
        # The binary prints its result line only on success.
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with status %d" % proc.returncode,
             proc.returncode)
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        fail("no result line", 6)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line", 6)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if args.trace == "1" else "end_to_end"]
    if sorted(m["name"] for m in listed) != sorted(result["metrics"]):
        fail("the run's metrics differ from those BENCHMARK.json lists", 6)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
