#!/usr/bin/env python3
"""Prints tier-1 line coverage of src/, one line per file.

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
    cmake --build build-cov -j"$(nproc)"
    ctest --test-dir build-cov -j"$(nproc)"
    python3 scripts/coverage.py build-cov

Runs `gcov -n` (summaries only, no .gcov files) on every .gcda under the
build directory. A header is compiled into many translation units, each of
which runs a different part of it, so every file is reported from its best
unit: the one that executed the most of its lines. Informational: it exits 0
whatever the coverage, and 1 only when there is nothing to read.
"""

import argparse
import os
import re
import subprocess
import sys

FILE_RE = re.compile(r"^File '(.+)'$")
LINES_RE = re.compile(r"^Lines executed:\s*([0-9.]+)% of (\d+)$")


def gcov_summaries(gcda):
    """Yields (source path, executed lines, executable lines) per file of one unit."""
    out = subprocess.run(
        ["gcov", "-n", "-o", os.path.dirname(gcda), gcda],
        capture_output=True, text=True, check=False).stdout
    source = None
    for line in out.splitlines():
        match = FILE_RE.match(line.strip())
        if match:
            source = match.group(1)
            continue
        match = LINES_RE.match(line.strip())
        if match and source is not None:
            total = int(match.group(2))
            executed = round(float(match.group(1)) * total / 100)
            yield source, executed, total
            source = None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build", help="a Debug --coverage build tree that has run ctest")
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    args = parser.parse_args()

    src = os.path.realpath(args.src) + os.sep
    gcdas = [os.path.join(root, name)
             for root, _, names in os.walk(args.build)
             for name in names if name.endswith(".gcda")]
    if not gcdas:
        print(f"coverage: no .gcda files under {args.build}", file=sys.stderr)
        return 1

    best = {}  # Path under src/ -> (executed, total) of its best unit.
    for gcda in sorted(gcdas):
        for source, executed, total in gcov_summaries(gcda):
            path = os.path.realpath(os.path.join(os.path.dirname(gcda), source))
            if not path.startswith(src):
                continue
            rel = os.path.join("src", path[len(src):])
            if rel not in best or executed > best[rel][0]:
                best[rel] = (executed, total)
    if not best:
        print(f"coverage: no unit under {args.build} covers {src}", file=sys.stderr)
        return 1

    width = max(len(rel) for rel in best)
    for rel in sorted(best):
        executed, total = best[rel]
        pct = 100.0 * executed / total if total else 100.0
        print(f"{rel:<{width}}  {executed:>5} / {total:<5} {pct:6.1f}%  unrun {total - executed}")
    executed = sum(e for e, _ in best.values())
    total = sum(t for _, t in best.values())
    print(f"{'total':<{width}}  {executed:>5} / {total:<5} {100.0 * executed / total:6.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
