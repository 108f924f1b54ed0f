#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-n8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # each in its process
    python3 perfbench/run.py --selftest                # probe self-tests

The build goes to .bench_build/perfbench (CMake, the repository's default
RelWithDebInfo flags). Build output goes to standard error; standard output
carries the benchmark's report, whose last line is one JSON object.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["campaign-n8", "shard-n2", "explore-n3", "native-n4"]


def build(env):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: run from the repository root (src/ not found)")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                       check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD_DIR, "perfbench")


def run_all(binary, args, env):
    """Runs every workload in a process of its own and ends with one JSON
    line that merges theirs, each metric keyed "<workload>/<metric>"."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [binary, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            code = code or 1
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = dict(os.environ)
    env["TMPDIR"] = os.path.abspath(os.path.join(BUILD_ROOT, "tmp"))
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    if args.selftest:
        cmd = [binary, "--selftest"]
    elif args.workload == "all":
        sys.stdout.flush()
        return run_all(binary, args, env)
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
