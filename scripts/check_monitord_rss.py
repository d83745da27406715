#!/usr/bin/env python3
"""Check that envnws_monitord runs in bounded memory.

    python3 scripts/check_monitord_rss.py [--binary build/examples/envnws_monitord]

Runs the daemon (plan only, simulated engine) on dumbbell:8x8 for 8,000
and then 128,000 cycles, and reads each run's peak RSS through
resource.getrusage(RUSAGE_CHILDREN). Fails (exit 1) when the longer
run's peak RSS exceeds the shorter run's by more than 10%: a daemon
whose state grows per cycle shows up as RSS growing with cycles.
"""

import argparse
import resource
import subprocess
import sys

SCENARIO = "dumbbell:8x8"
CYCLES = (8000, 128000)
BOUND = 0.10  # allowed relative growth of peak RSS


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default="build/examples/envnws_monitord")
    args = parser.parse_args()

    peaks = []
    for cycles in CYCLES:
        command = [args.binary, f"--scenario={SCENARIO}", f"--cycles={cycles}"]
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            print(f"{' '.join(command)} exited {run.returncode}", file=sys.stderr)
            return 1
        # RUSAGE_CHILDREN reports the largest peak of any finished child;
        # the shorter run goes first, so this is the current run's peak
        # unless the shorter run peaked higher.
        peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        peaks.append(peak_mib)
        print(f"{SCENARIO} {cycles} cycles: peak RSS {peak_mib:.1f} MiB")

    growth = peaks[-1] / peaks[0] - 1.0
    print(f"peak RSS growth {growth:+.1%} (bound {BOUND:+.0%})")
    return 0 if growth <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
