"""Chain the committed benchmark comparisons into a trajectory.

Usage:

    python3 tools/trajectory.py [DIR]

DIR (default: the root of this checkout) holds the ``BENCH_<PR>_<workload>.json``
files that ``tools/pairs.py --json`` wrote, one per workload for each PR
that measured itself against its parent. For each workload it prints one
line per end-to-end metric, with ``PR <n> <ratio> -> <product> [<low>, <high>]``
for each PR in PR order: that PR's median per-pair ratio change/parent, the
running product of those medians, and an interval whose ends are the running
products of the PRs' ratio first and third quartiles. The product is how far
the metric has moved since the first file, measured within pairs, so that the
host's drift between PRs cancels; the interval shows how much of that the
spread within each PR's pairs could account for. A PR whose ratio is missing
(every parent value was zero) prints "n/a" and leaves all three values as
they were. A reader that closes standard output early ends it quietly,
with exit status 0. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

NAME = re.compile(r"BENCH_(\d+)_(.+)\.json")


def load(directory: Path) -> dict[str, list[tuple[int, dict]]]:
    """Workload -> [(PR, report)], in PR order."""
    found: dict[str, list[tuple[int, dict]]] = {}
    for path in directory.iterdir():
        match = NAME.fullmatch(path.name)
        if match:
            found.setdefault(match[2], []).append((int(match[1]), json.loads(path.read_text())))
    return {workload: sorted(reports, key=lambda item: item[0]) for workload, reports in sorted(found.items())}


Step = tuple[int, float | None, float, float, float]  # PR, median ratio, products of medians, q1s, q3s


def trajectory(reports: list[tuple[int, dict]]) -> dict[str, list[Step]]:
    """Metric -> [(PR, median ratio or None, running product of the medians,
    running products of the q1s and of the q3s)] over one workload's reports."""
    out: dict[str, list[Step]] = {}
    for pr, report in reports:
        for name, metric in report["metrics"].items():
            steps = out.setdefault(name, [])
            product, low, high = steps[-1][2:] if steps else (1.0, 1.0, 1.0)
            ratio = metric["ratio"]
            if ratio is not None:
                product, low, high = product * ratio["median"], low * ratio["q1"], high * ratio["q3"]
            steps.append((pr, None if ratio is None else ratio["median"], product, low, high))
    return out


def lines(found: dict[str, list[tuple[int, dict]]]) -> list[str]:
    out = []
    for workload, reports in found.items():
        out.append(workload)
        for name, steps in trajectory(reports).items():
            shown = "  ".join(f"PR {pr} {'n/a' if ratio is None else f'{ratio:.4g}'} -> {product:.4g} "
                              f"[{low:.4g}, {high:.4g}]" for pr, ratio, product, low, high in steps)
            out.append(f"  {name:12} {shown}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", type=Path, nargs="?", default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    try:
        print("\n".join(lines(load(args.directory))))
        sys.stdout.flush()  # a closed standard output fails here, not at the interpreter's exit
    except BrokenPipeError:  # the reader of standard output has gone: nothing is left to tell it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the exit flush of what is still buffered stays quiet
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
