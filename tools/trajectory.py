"""Chain the committed benchmark comparisons into a trajectory.

Usage:

    python3 tools/trajectory.py [DIR]

DIR (default: the root of this checkout) holds the ``BENCH_<PR>_<workload>.json``
files that ``tools/pairs.py --json`` wrote, one per workload for each PR
that measured itself against its parent. For each workload it prints one
line per end-to-end metric, with ``PR <n> <ratio> -> <product>`` for each PR
in PR order: that PR's median per-pair ratio change/parent and the running
product of those medians. The product is how far the metric has moved since
the first file, measured within pairs, so that the host's drift between PRs
cancels. A PR whose ratio is missing (every parent value was zero) prints
"n/a" and leaves the product as it was. Standard library only.
"""

from __future__ import annotations

import argparse
import json
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


def trajectory(reports: list[tuple[int, dict]]) -> dict[str, list[tuple[int, float | None, float]]]:
    """Metric -> [(PR, median ratio or None, running product)] over one
    workload's reports."""
    out: dict[str, list[tuple[int, float | None, float]]] = {}
    for pr, report in reports:
        for name, metric in report["metrics"].items():
            steps = out.setdefault(name, [])
            product = steps[-1][2] if steps else 1.0
            ratio = metric["ratio"]["median"] if metric["ratio"] else None
            steps.append((pr, ratio, product * ratio if ratio is not None else product))
    return out


def lines(found: dict[str, list[tuple[int, dict]]]) -> list[str]:
    out = []
    for workload, reports in found.items():
        out.append(workload)
        for name, steps in trajectory(reports).items():
            shown = "  ".join(f"PR {pr} {'n/a' if ratio is None else f'{ratio:.4g}'} -> {product:.4g}"
                              for pr, ratio, product in steps)
            out.append(f"  {name:12} {shown}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", type=Path, nargs="?", default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    print("\n".join(lines(load(args.directory))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
