#!/usr/bin/env python3
"""List the library functions that only the test executables link.

    python3 scripts/check_test_only_surface.py --build-dir build-surface \\
        --e2e-build-dir build-surface-e2e

Both build directories must come from a Release configure with
-ffunction-sections -fdata-sections and -Wl,--gc-sections, so that an
executable keeps only the functions it can reach:

    cmake -B build-surface -S . -G Ninja -DCMAKE_BUILD_TYPE=Release \\
        -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-surface -j
    cmake -B build-surface-e2e -S bench/e2e -G Ninja (same three -D flags)
    cmake --build build-surface-e2e -j

A strong (`T`) function of libenvnws.a counts as test-only when
envnws_tests or envnws_alloc_budget_tests links it but no example, no
bench/*.cpp binary and not bench_e2e does (`nm -C`). Each test-only
function must be on the allowlist (scripts/test_only_surface_allowlist.txt):
one function per line, `<qualified name>  # <reason>`, where the reason
names the doc that presents the function as API, the production caller
the compiler inlined, or its safety role (a reference a test compares
against, a parser of outside input, a test seam). An entry without an
argument list covers every overload of that name. Exit 1 when a
test-only function is not on the allowlist; entries that no longer
match anything are reported too, so the list shrinks with the code.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_ALLOWLIST = REPO / "scripts" / "test_only_surface_allowlist.txt"
TEST_EXECUTABLES = ("envnws_tests", "envnws_alloc_budget_tests")
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")


def strong_functions(path):
    """Demangled names of the strong text symbols (`T`) defined in `path`."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "T":
            names.add(ABI_TAG.sub("", parts[2]))
    return names


def base_name(signature):
    """`ns::Class::fn(args) const` -> `ns::Class::fn` (operator names kept whole)."""
    depth = 0
    i = 0
    while i < len(signature):
        if signature.startswith("operator", i):
            # Skip the operator's own symbol: `operator()`, `operator<`, ...
            i += len("operator")
            if signature.startswith("()", i):
                i += 2
            while i < len(signature) and signature[i] in "<>=!+-*/%&|^~[]":
                i += 1
            continue
        c = signature[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            return signature[:i]
        i += 1
    return signature


def executables(directory):
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.iterdir()
                  if p.is_file() and os.access(p, os.X_OK) and p.suffix == "")


def load_allowlist(path):
    entries = {}
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition("  # ")
        if not sep or not reason.strip():
            sys.exit(f"{path}:{number}: expected `<function>  # <reason>`")
        entries[name.strip()] = reason.strip()
    return entries


def allowed_by(signature, entries):
    if signature in entries:
        return signature
    name = base_name(signature)
    return name if name in entries and "(" not in name else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, required=True,
                        help="root build: libenvnws.a, tests, examples/, bench/")
    parser.add_argument("--e2e-build-dir", type=Path, required=True,
                        help="bench/e2e build holding bench_e2e")
    parser.add_argument("--allowlist", type=Path, default=DEFAULT_ALLOWLIST)
    args = parser.parse_args()

    library = strong_functions(args.build_dir / "libenvnws.a")
    tests = [args.build_dir / name for name in TEST_EXECUTABLES
             if (args.build_dir / name).is_file()]
    production = (executables(args.build_dir / "examples") +
                  executables(args.build_dir / "bench") +
                  [args.e2e_build_dir / "bench_e2e"])
    for required in [args.build_dir / "envnws_tests", args.e2e_build_dir / "bench_e2e"]:
        if not required.is_file():
            sys.exit(f"missing {required}: build it first (see --help)")

    in_tests = set().union(*(strong_functions(p) for p in tests)) & library
    in_production = set().union(*(strong_functions(p) for p in production)) & library
    test_only = sorted(in_tests - in_production)

    entries = load_allowlist(args.allowlist)
    allowed = {signature: allowed_by(signature, entries) for signature in test_only}
    missing = [signature for signature, entry in allowed.items() if entry is None]

    print(f"{len(test_only)} of {len(library)} strong functions of libenvnws.a are "
          f"linked only into {', '.join(p.name for p in tests)} "
          f"({len(production)} production executables checked)")
    for signature, entry in allowed.items():
        print(f"  {'ok ' if entry else 'NEW'} {signature}")
    for name in sorted(set(entries) - set(allowed.values())):
        print(f"note: allowlist entry matches no test-only function: {name}")
    sys.stdout.flush()
    if missing:
        print(f"{len(missing)} test-only function(s) not on {args.allowlist.name}: delete "
              "them with the tests that only exercise them, or add a line with the doc, "
              "inlined caller or safety role that keeps them", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
