"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage:

    python3 tools/pairs.py PARENT CHANGE --workload apce-reprior --seeds 401-410 --seconds 10

PARENT and CHANGE are checkouts of this repository (for instance a
``git archive`` of the parent commit and the working tree). Pair i runs
``perfbench/run.py`` once in each, at the i-th seed, the parent first in
even pairs and the change first in odd ones, so drift in the host's speed
falls on both sides alike. ``--busy`` keeps one CPU-bound process of this
tool's own running through every run, to see how each side does when a
core is taken.

For each pair it prints every end-to-end metric of both sides and the steal
ticks that ``/proc/stat`` counted during each run (the time the host gave
this machine's vCPUs to others). Then, per metric, each side's median and
quartiles, the median and quartiles of the per-pair ratio change/parent
(over the pairs whose parent value is not zero), and the number of pairs
the change won, judged by the metric's ``better`` direction in the
change's ``BENCHMARK.json``; ties count for neither side. Then whether a
claimed gain on it would hold: the change wins at least 9 in 10 of the
pairs, and its median is better than the parent's by more than the
parent's interquartile range. Last is the benchmark's no-regression
verdict, with the metric's ``bound`` from the same file: "worse" when the
change's median is worse than the parent's by more than bound x the
parent's median; else "unresolved" when the parent's own interquartile
range is wider than that, unless every run of the change beats every run
of the parent; else "within bound".

``--json PATH`` also writes all of that to PATH: the workload, seeds and
run length, each checkout's ``git rev-parse HEAD`` (null where it is not a
git checkout) and ``perfbench`` environment line, every pair's metrics and
steal, and the per-metric summary. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'401-405,510' -> [401, 402, 403, 404, 405, 510]. A range that ends
    below its start holds no seed, and is refused."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        low, high = int(low), int(high or low)
        if high < low:
            raise argparse.ArgumentTypeError(f"seed range {part!r} ends below its start")
        seeds.extend(range(low, high + 1))
    return seeds


def git_head(checkout: Path) -> str | None:
    """The commit ``checkout`` has checked out, or None if it is no git checkout."""
    if not (checkout / ".git").exists():  # not the HEAD of a repository around it
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) ticks of all CPUs so far, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields[:8])  # user .. steal; guest time is inside user


def run_once(checkout: Path, workload: str, seed: int, seconds: float, busy: bool
             ) -> tuple[dict, dict | None, dict]:
    """One benchmark run: its metric values (and failed sessions), the steal
    seen during it as {"ticks", "percent"} (None off Linux), and the
    environment that ``perfbench/run.py`` printed."""
    spinner = subprocess.Popen([sys.executable, "-c", "while True: pass"]) if busy else None
    before = cpu_ticks()
    try:
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds)],
                              cwd=checkout, capture_output=True, text=True)
    finally:
        after = cpu_ticks()
        if spinner is not None:
            spinner.kill()
            spinner.wait()
    if done.returncode != 0:
        sys.exit(f"{checkout}: perfbench/run.py exited {done.returncode}\n{done.stderr}")
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed"] = result["failed"]
    steal = None
    if before and after:
        ticks, total = after[0] - before[0], after[1] - before[1]
        steal = {"ticks": ticks, "percent": round(100 * ticks / max(total, 1), 1)}
    return values, steal, info.get("env", {})


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def ratio_quartiles(parent: list[float], change: list[float]) -> tuple[float, float, float] | None:
    """(q1, median, q3) of change/parent, pair by pair, skipping pairs whose
    parent value is zero; None when every pair is skipped."""
    ratios = [c / p for p, c in zip(parent, change) if p != 0]
    return quartiles(ratios) if ratios else None


def claim_holds(wins: int, pairs: int, parent: tuple[float, float, float], change_median: float,
                sign: int) -> bool:
    """A gain may be claimed: at least 9 in 10 pairs won, and the medians
    apart, in the better direction, by more than the parent's IQR.
    ``parent`` is its (q1, median, q3); ``sign`` is 1 when lower is better."""
    q1, median, q3 = parent
    return 10 * wins >= 9 * pairs and sign * (median - change_median) > q3 - q1


def regression_verdict(parent: list[float], change: list[float], bound: float, sign: int) -> str:
    """'worse', 'unresolved' or 'within bound' (see the module docstring)
    for one metric's runs on each side; ``sign`` is 1 when lower is better."""
    q1, median, q3 = quartiles(parent)
    allowed = bound * abs(median)
    if sign * (statistics.median(change) - median) > allowed:
        return "worse"
    if q3 - q1 > allowed and not all(sign * (c - p) < 0 for c in change for p in parent):
        return "unresolved"
    return "within bound"


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric of ``spec`` (a ``BENCHMARK.json``), over
    ``pairs`` (each {"parent": values, "change": values, ...}): each side's
    quartiles, the ratio quartiles, wins, the claim result and the verdict;
    and each side's failed sessions."""
    metrics = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        sides = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        q = {side: quartiles(sides[side]) for side in SIDES}
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        ratio = ratio_quartiles(sides["parent"], sides["change"])
        metrics[name] = {
            "better": m["better"], "bound": m["bound"],
            **{side: dict(zip(("q1", "median", "q3"), q[side])) for side in SIDES},
            "ratio": dict(zip(("q1", "median", "q3"), ratio)) if ratio else None,
            "wins": wins,
            "claim_holds": claim_holds(wins, len(pairs), q["parent"], q["change"][1], sign),
            "verdict": regression_verdict(sides["parent"], sides["change"], m["bound"], sign),
        }
    failed = {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES}
    return {"metrics": metrics, "failed": failed}


def steal_text(steal: dict | None) -> str:
    return f"{steal['ticks']} ticks ({steal['percent']:.1f}%)" if steal else "n/a"


def pair_line(n: int, pair: dict, names: list[str]) -> str:
    shown = "  ".join(f"{name} {pair['parent'][name]:.4g}/{pair['change'][name]:.4g}" for name in names)
    return (f"pair {n + 1} seed {pair['seed']} ({pair['first']} first)  parent/change  {shown}  "
            f"steal parent {steal_text(pair['steal']['parent'])}, change {steal_text(pair['steal']['change'])}")


def summary_lines(report: dict) -> list[str]:
    """The closing summary that ``main`` prints for a ``--json`` report."""
    pairs = len(report["pairs"])
    lines = [f"{report['workload']}: {pairs} pairs of {report['seconds']:g} s runs"
             f"{' with a CPU-bound process alongside' if report['busy'] else ''}"]
    for name, m in report["metrics"].items():
        summary = "  ".join(f"{side} {m[side]['median']:.4g} [{m[side]['q1']:.4g}-{m[side]['q3']:.4g}]"
                            for side in SIDES)
        ratio = m["ratio"]
        ratio_text = f"{ratio['median']:.4g} [{ratio['q1']:.4g}-{ratio['q3']:.4g}]" if ratio else "n/a"
        lines.append(f"  {name:12} median [IQR]  {summary}  change/parent {ratio_text}  "
                     f"change better in {m['wins']} of {pairs}, claim {'holds' if m['claim_holds'] else 'fails'}, "
                     f"{m['verdict']} (bound {m['bound']:g})")
    lines.append(f"  failed sessions  parent {report['failed']['parent']}  change {report['failed']['change']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 401-410 or 3,7,9")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--busy", action="store_true", help="run a CPU-bound process alongside")
    parser.add_argument("--json", type=Path, metavar="PATH", help="also write everything printed to PATH")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent, "change": args.change}
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    env: dict[str, dict] = {}
    pairs = []
    for n, seed in enumerate(args.seeds):
        order = SIDES if n % 2 == 0 else SIDES[::-1]
        pair: dict = {"seed": seed, "first": order[0], "steal": {}}
        for side in order:
            pair[side], pair["steal"][side], env[side] = run_once(checkouts[side], args.workload, seed,
                                                                  args.seconds, args.busy)
        pairs.append(pair)
        print(pair_line(n, pair, names), flush=True)

    report = {
        "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds, "busy": args.busy,
        "checkouts": {side: {"head": git_head(checkouts[side]), "env": env[side]} for side in SIDES},
        "pairs": pairs,
        **summarize(pairs, spec),
    }
    print()
    print("\n".join(summary_lines(report)))
    if args.json:
        args.json.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
