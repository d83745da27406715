#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--json <path>]

The build goes to .bench_build at the root of the checkout (configured
once, then brought up to date on every call). With --trace 1 the spans
are written to .bench_build/trace-<workload>-<seed>.jsonl. The last line
of standard output is the benchmark's JSON result; the exit code is the
benchmark's (non-zero when an output check fails or the build fails).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["map-scale", "map-sampled", "deploy-multizone", "monitor-mixed"]


def build():
    """Configure (first call only) and build; False when either fails."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    command = ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", help="append the run's result record to this JSON-lines file")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("run.py: building bench_e2e failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "bench_e2e"), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}"]
    if args.trace:
        command.append(f"--trace={os.path.join(BUILD, f'trace-{args.workload}-{args.seed}.jsonl')}")
    if args.json:
        command.append(f"--json={os.path.abspath(args.json)}")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
