#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary (perfbench/CMakeLists.txt, library from src/)
into the build directory, runs its self-tests, then runs one workload:

    python3 perfbench/run.py --workload rec_scan --seed 1 --seconds 15 --trace 0

The last line of standard output is the binary's JSON result. The build
directory is $CARGO_TARGET_DIR when set, else .bench_build, relative to the
repository root. Build output goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("rec_scan", "ml_pooled", "lm_fleet")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "service.h")):
        return fail("library sources (src/) not found next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)

    if subprocess.run([binary, "--self-test"], timeout=60).returncode != 0:
        return fail("self-test failed")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--span-file", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(run.stdout, end="")
        return fail("perfbench printed no result line (exit %d)" % run.returncode)
    print(lines[-1])
    if run.returncode != 0 or not result.get("correct"):
        return fail("run failed its correctness checks (exit %d)"
                    % run.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
