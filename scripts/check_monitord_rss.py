#!/usr/bin/env python3
"""Check that envnws_monitord runs in bounded memory.

    python3 scripts/check_monitord_rss.py [cycles|plan] [--binary build/examples/envnws_monitord]

Runs the daemon (plan only, simulated engine) and reads each run's peak
RSS from os.wait4 on that run alone. Two checks, both by default:

cycles: dumbbell:8x8 for 8,000 and then 128,000 cycles. Fails (exit 1)
    when the longer run's peak RSS exceeds the shorter run's by more than
    10%: a daemon whose state grows per cycle shows up as RSS growing with
    cycles.
plan: star-switch:256 and star-switch:1024 with --max-pairwise=64 for one
    cycle. Each plan is one switched clique, of 65,280 and 1,047,552
    ordered pairs. Fails when the larger plan's peak RSS exceeds twice the
    smaller one's: setup must hold the clique's members, not its pairs.
"""

import argparse
import os
import subprocess
import sys

CHECKS = {
    # name: (runs as (scenario, extra arguments), allowed peak ratio last/first)
    "cycles": ([("dumbbell:8x8", ["--cycles=8000"]),
                ("dumbbell:8x8", ["--cycles=128000"])], 1.10),
    "plan": ([("star-switch:256", ["--max-pairwise=64", "--cycles=1"]),
              ("star-switch:1024", ["--max-pairwise=64", "--cycles=1"])], 2.0),
}


def peak_rss_mib(command):
    """Run `command` to completion; its own peak RSS in MiB."""
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {child.returncode}")
    return usage.ru_maxrss / 1024.0


def run_check(name, binary):
    runs, bound = CHECKS[name]
    peaks = []
    for scenario, extra in runs:
        peak = peak_rss_mib([binary, f"--scenario={scenario}", *extra])
        peaks.append(peak)
        print(f"{name}: {scenario} {' '.join(extra)}: peak RSS {peak:.1f} MiB")
    ratio = peaks[-1] / peaks[0]
    print(f"{name}: peak RSS ratio {ratio:.2f} (bound {bound:.2f})")
    return ratio <= bound


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", nargs="?", choices=sorted(CHECKS), help="one check only")
    parser.add_argument("--binary", default="build/examples/envnws_monitord")
    args = parser.parse_args()

    ok = True
    for name in [args.check] if args.check else sorted(CHECKS):
        try:
            ok = run_check(name, args.binary) and ok
        except RuntimeError as error:
            print(error, file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
