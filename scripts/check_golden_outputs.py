#!/usr/bin/env python3
"""Compare the stdout of deterministic example programs with committed copies.

Each program below simulates in virtual time and prints the same bytes
on every run, so its stdout is committed under tests/data/golden/. Any
difference is printed as a unified diff and fails the check: it catches
a format change in the published GridML, the effective-view rendering or
the deployment plan that every run-against-run comparison would miss.

Usage: scripts/check_golden_outputs.py [--build-dir build] [--update]
       --update rewrites the committed copies from the current binaries.
"""

import argparse
import difflib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "data" / "golden"

# golden file stem -> program (relative to the build dir) and arguments
PROGRAMS = {
    "quickstart": ["examples/quickstart"],
    "quickstart_multi-firewall_2x3": ["examples/quickstart", "multi-firewall:2x3"],
    "firewall_merge": ["examples/firewall_merge"],
    "ens_lyon": ["examples/ens_lyon"],
    "bench_fig1b_effective": ["bench/bench_fig1b_effective"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(ROOT / "build"))
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()
    build_dir = Path(args.build_dir)

    failures = 0
    for stem, command in PROGRAMS.items():
        argv = [str(build_dir / command[0])] + command[1:]
        run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        golden_path = GOLDEN_DIR / (stem + ".txt")
        if run.returncode != 0:
            print(f"FAIL {stem}: {' '.join(command)} exited {run.returncode}\n{run.stderr}")
            failures += 1
            continue
        if args.update:
            golden_path.write_text(run.stdout, encoding="utf-8")
            print(f"updated {golden_path.relative_to(ROOT)}")
            continue
        expected = golden_path.read_text(encoding="utf-8")
        if run.stdout == expected:
            print(f"ok   {stem}")
            continue
        failures += 1
        print(f"FAIL {stem}: stdout of {' '.join(command)} differs from "
              f"{golden_path.relative_to(ROOT)}")
        sys.stdout.writelines(difflib.unified_diff(
            expected.splitlines(keepends=True), run.stdout.splitlines(keepends=True),
            fromfile=str(golden_path.relative_to(ROOT)), tofile=" ".join(command)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
