#!/usr/bin/env python3
"""Build and run the hFAD end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--durability 1]

Run from the repository root. The first run configures and builds the benchmark
(Release) with CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs rebuild incrementally. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. A traced run also writes its spans next to the build.
--durability 1 adds the crash/recover and close/reopen cycles, whose probes count lost
items as failures.
See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desktop_search", "ingest_durable", "posix_tree")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    for need in ("CMakeLists.txt", os.path.join("src", "core", "filesystem.h")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"the hFAD sources are missing ({need}); nothing to build")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "hfad_perfbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "hfad_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--durability", default="0", choices=("0", "1"),
                   help="add the crash/recover and close/reopen cycles after the timed phase")
    p.add_argument("--plant", choices=("wrong", "error"),
                   help="self-test only: plant one wrong answer or one error status")
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--durability", args.durability]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.txt")]
    if args.plant:
        cmd += ["--plant", args.plant]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
