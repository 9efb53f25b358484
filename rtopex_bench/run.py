#!/usr/bin/env python3
"""Builds rtopex_bench from the sources of this checkout and runs it.

    python3 rtopex_bench/run.py --workload <name>|all --seed N \
        [--seconds S] [--trace 0|1] [--smoke]

The build goes to .bench_build/rtopex_bench (Release, SIMD kernels on) and is
incremental, so only the first run pays for it; build output goes to stderr.
--trace 1 is the traced run: it reports the per-layer metrics and writes the
benchmark's spans to .bench_build/traces/<workload>-seed<N>.json. The last
line of stdout is the benchmark's JSON result; the exit code is the
benchmark's (1 when an output check fails).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rtopex_bench")


def build():
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
         "-DRTOPEX_SIMD=ON"],
        ["cmake", "--build", BUILD, "--target", "rtopex_bench", "-j3"],
    ):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"rtopex_bench build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "rtopex_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}"]
    if args.seconds is not None:
        cmd.append(f"--seconds={args.seconds}")
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace=" + os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json"))
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
