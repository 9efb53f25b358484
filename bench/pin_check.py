#!/usr/bin/env python3
"""Checks a regenerated BENCH_*.json against its pinned baseline.

    python3 bench/pin_check.py GOT.json WANT.json

The two documents must match field for field: the same keys, list lengths,
strings, booleans and nulls, and numbers equal to 1e-9 relative with no
absolute slack (a 0 must stay 0). Prints every differing path (up to 20)
and exits 1 on any mismatch, 0 when the files match. A change that moves a
pinned number on purpose regenerates the baseline instead.
"""
import json
import math
import sys

REL_TOL = 1e-9
MAX_REPORTED = 20


def diff(got, want, path, out):
    """Appends one message per mismatch between got and want to out."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            out.append(f"{path}: expected an object, got {got!r}")
        elif got.keys() != want.keys():
            out.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
        else:
            for key in want:
                diff(got[key], want[key], f"{path}.{key}", out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: expected a list of {len(want)}, got {got!r}")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                diff(g, w, f"{path}[{i}]", out)
    elif isinstance(want, (bool, str)) or want is None:
        if got != want or type(got) is not type(want):
            out.append(f"{path}: {got!r} != {want!r}")
    elif (isinstance(got, bool) or not isinstance(got, (int, float)) or
          not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)):
        out.append(f"{path}: {got!r} != {want!r}")


def main(argv):
    if len(argv) != 3:
        print("usage: pin_check.py GOT.json WANT.json", file=sys.stderr)
        return 2
    got_path, want_path = argv[1], argv[2]
    with open(got_path) as f:
        got = json.load(f)
    with open(want_path) as f:
        want = json.load(f)
    mismatches = []
    diff(got, want, "$", mismatches)
    if mismatches:
        print(f"{got_path} differs from {want_path} "
              f"({len(mismatches)} fields):")
        for m in mismatches[:MAX_REPORTED]:
            print("  " + m)
        return 1
    print(f"{got_path} matches {want_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
