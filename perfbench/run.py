#!/usr/bin/env python3
"""Builds and runs the eotora end-to-end benchmark.

    python3 perfbench/run.py --workload paper-week --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test     # the benchmark's own unit tests

Run from the root of a source checkout. The library and the benchmark are
built from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; build output goes to
stderr. The last line of stdout is the benchmark's JSON result. Traced runs
(--trace 1) also write their spans under <build dir>/results.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-week", "metro-10k", "serve-churn")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the eotora sources (src/) are missing; run from "
                 "the root of a source checkout")
    commands = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    # An existing tree re-runs CMake itself when a CMakeLists.txt changed.
    commands.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(command))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    build(out)
    if args.test:
        command = [os.path.join(out, "perfbench_tests")]
    else:
        command = [os.path.join(out, "eotora_perfbench"),
                   "--workload=" + args.workload, "--seed=%d" % args.seed,
                   "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
                   "--out-dir=" + os.path.join(out, "results")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
