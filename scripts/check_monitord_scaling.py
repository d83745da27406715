#!/usr/bin/env python3
"""Check that a monitord cycle costs the same at 32,000 cycles as at 8,000.

    python3 scripts/check_monitord_scaling.py [--binary build/examples/envnws_monitord]

Runs the daemon (plan only, simulated engine) on star-switch:256 with
--max-pairwise=64 for 8,000 and then 32,000 cycles. That plan has one
switched clique of 65,280 pairs and measures one new pair per cycle, so
the snapshot grows by a pair every cycle. Fails (exit 1) when the 32k
run's wall time exceeds 4.5x the 8k run's: a publish that walks every
pair measured so far makes the run quadratic in cycles (16x for 4x the
cycles).
Each size runs twice and keeps its faster run, which damps a slow moment
of a shared machine.
"""

import argparse
import subprocess
import sys
import time

SCENARIO = "star-switch:256"
MAX_PAIRWISE = 64
CYCLES = (8000, 32000)
BOUND = 4.5  # allowed wall-time ratio for 4x the cycles
RUNS = 2


def wall_seconds(command):
    began = time.perf_counter()
    run = subprocess.run(command, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - began
    if run.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {run.returncode}")
    return elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default="build/examples/envnws_monitord")
    args = parser.parse_args()

    walls = []
    for cycles in CYCLES:
        command = [args.binary, f"--max-pairwise={MAX_PAIRWISE}", f"--scenario={SCENARIO}",
                   f"--cycles={cycles}"]
        try:
            wall = min(wall_seconds(command) for _ in range(RUNS))
        except RuntimeError as error:
            print(error, file=sys.stderr)
            return 1
        walls.append(wall)
        print(f"{SCENARIO} --max-pairwise={MAX_PAIRWISE} {cycles} cycles: {wall:.2f} s")

    ratio = walls[-1] / walls[0]
    print(f"wall time ratio {ratio:.2f} for {CYCLES[-1] // CYCLES[0]}x the cycles "
          f"(bound {BOUND})")
    return 0 if ratio <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
