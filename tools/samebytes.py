"""Check that two checkouts write the same reports, CSV and JSON, and that
their demos print the same.

Usage:

    python3 tools/samebytes.py PARENT CHANGE [--seed 0] [--work DIR]

PARENT and CHANGE are checkouts of this repository (for instance a
``git archive`` of the parent commit and the working tree). The tool writes
one seeded JSONL corpus, made by ``perfbench/workloads.py``: the three
records of a corpus-sweep corpus plus one apce-reprior document as record
``long00``. Then it runs, in each checkout's ``src``:

- ``apce run`` on ``long00`` as apce with asynchronous start and recompute,
  and then as dense, with ``--no-recompute``, with ``--no-reprioritization``,
  with ``--interval 1`` (a boundary on the token the prefill emits), with
  ``--async-start`` above the chunk count (the clamp's ``warning`` event),
  and with ``embedding.provider = file`` over seeded random vectors that
  the tool writes;
- ``apce sweep`` over the whole corpus on each axis: ``n_chunks`` (over a
  base ``--fraction``, so the flag's reset is exercised), ``chunk_size`` and
  ``reprioritization_interval``, the last also over values that are not
  ascending, repeat one and go past ``--max-new-tokens``;
- ``apce memtable`` as plain text, with ``--flag-inconsistent``, as CSV, as
  JSON, as JSON for 28 layers, for one custom ``--row`` with its own widths,
  and for two custom ``--row`` groups with ``--flag-inconsistent``, keeping
  each standard output;
- every script in the checkout's ``demos``, keeping its standard output.

It compares each report minus its ``timestamps`` field, and every CSV,
sweep JSON, memtable and demo output byte for byte. It names each file that
differs, with the first differing paths of a report, and exits 0 when
everything is equal and 1 otherwise. Standard library only, plus
``perfbench/workloads.py``, which it only reads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# the apce-reprior session's settings, for the runs on long00
LONG = ["--record-id", "long00", "--chunk-size", "200", "--max-chunks", "9", "--interval", "8",
        "--async-start", "4", "--load-latency", "0.136", "--decode-latency", "0.02"]
# a flag given twice takes its last value
RUNS = {
    "apce": LONG,
    "dense": [*LONG, "--mode", "dense"],
    "no-recompute": [*LONG, "--no-recompute"],
    "no-reprioritization": [*LONG, "--no-reprioritization"],
    "interval-1": [*LONG, "--interval", "1"],
    "async-clamped": [*LONG, "--async-start", "99"],
    "file-embeddings": LONG,
}
CONFIGS = {"file-embeddings": "file.conf"}  # every other job reads run.conf
VECTORS = 64  # chunk vectors written, more than long00 has chunks
EMBEDDING_DIM = 384
SHORT = ["--chunk-size", "100", "--max-new-tokens", "16", "--interval", "4", "--async-start", "2",
         "--load-latency", "0.01", "--decode-latency", "0.02"]
SWEEPS = {
    "n_chunks": ["--axis", "n_chunks", "--values", "2,4,6", "--fraction", "0.5", *SHORT],
    "chunk_size": ["--axis", "chunk_size", "--values", "80,100,160", *SHORT],
    "reprioritization_interval": ["--axis", "reprioritization_interval", "--values", "2,4,8", *SHORT],
    # not ascending, 4 repeated and 20 past --max-new-tokens: forks of each
    # record's shared session beside fresh sessions
    "reprioritization_interval-unsorted": ["--axis", "reprioritization_interval", "--values", "8,4,20,2,4",
                                           *SHORT],
}
MEMTABLES = {
    "text": [],
    "flag-inconsistent": ["--flag-inconsistent"],
    "csv": ["--format", "csv"],
    "json": ["--format", "json"],
    "json-28-layers": ["--layers", "28", "--format", "json"],
    "custom-widths": ["--row", "1000,1,500", "--d-q", "64", "--d-kv", "512", "--bytes-per-element", "4"],
    "custom-rows": ["--row", "1000,1,500,short", "--row", "30000,20,1000", "--flag-inconsistent"],
}
SHOWN = 8  # differing paths printed per file


def write_corpus(work: Path, seed: int) -> Path:
    """The seeded corpus, config files and chunk vectors both checkouts run on."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    corpus = workloads.corpus_sweep(seed)[0]
    long = workloads.apce_reprior(seed)[0]
    lines = [*corpus.lines, json.dumps({"id": "long00", "text": long.doc, "query": long.query})]
    corpus_path = work / "corpus.jsonl"
    corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (work / "run.conf").write_text(corpus.config_text, encoding="utf-8")
    rng = random.Random(seed)
    vectors = work / "vectors.jsonl"
    vectors.write_text("".join(
        json.dumps({"chunk_index": i, "vector": [rng.gauss(0.0, 1.0) for _ in range(EMBEDDING_DIM)]}) + "\n"
        for i in range(VECTORS)), encoding="utf-8")
    (work / "file.conf").write_text(
        f"{corpus.config_text}embedding.provider = file\nembedding.dim = {EMBEDDING_DIM}\n"
        f"embedding.file = {vectors.resolve()}\n", encoding="utf-8")
    return corpus_path


def run_side(checkout: Path, out: Path, corpus: Path, work: Path) -> None:
    """Every run and sweep in one checkout, each into its own directory, and
    the stdout of every memtable and of every demo under ``demos``."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    jobs = [("run", name, args) for name, args in RUNS.items()]
    jobs += [("sweep", name, args) for name, args in SWEEPS.items()]
    for command, name, args in jobs:
        config = work / CONFIGS.get(name, "run.conf")
        argv = [sys.executable, "-m", "apce.cli", command, "--input", str(corpus),
                "--config", str(config), "--out-dir", str(out / f"{command}-{name}"), *args]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{checkout}: apce {command} {name} exited {done.returncode}\n{done.stderr}")
    printed = [(f"memtable/{name}.txt", f"apce memtable {name}",
                [sys.executable, "-m", "apce.cli", "memtable", *args]) for name, args in MEMTABLES.items()]
    printed += [(f"demos/{demo.stem}.txt", demo.name, [sys.executable, str(demo.resolve())])
                for demo in sorted((checkout / "demos").glob("*.py"))]
    for name, what, argv in printed:
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{checkout}: {what} exited {done.returncode}\n{done.stderr}")
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(done.stdout, encoding="utf-8")

def differing_paths(a, b, path: str = "") -> list[str]:
    """The paths at which two JSON values differ, in document order."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for key in sorted(a.keys() | b.keys())
                for p in differing_paths(a.get(key), b.get(key), f"{path}.{key}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in differing_paths(x, y, f"{path}[{i}]")]
    return [] if a == b else [path or "."]


def compare(parent: Path, change: Path) -> list[str]:
    """One line per file that is missing on a side or differs."""
    problems = []
    names = sorted({p.relative_to(side) for side in (parent, change) for p in side.rglob("*") if p.is_file()})
    for name in names:
        old, new = parent / name, change / name
        if not (old.exists() and new.exists()):
            problems.append(f"{name}: only in {'parent' if old.exists() else 'change'}")
            continue
        if name.parent.name.startswith("run-") and name.suffix == ".json":
            a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (old, new))
            a.pop("timestamps", None)
            b.pop("timestamps", None)
            paths = differing_paths(a, b)
            if paths:
                shown = ", ".join(paths[:SHOWN]) + (f" and {len(paths) - SHOWN} more" if len(paths) > SHOWN else "")
                problems.append(f"{name}: differs minus timestamps at {shown}")
        elif old.read_bytes() != new.read_bytes():
            problems.append(f"{name}: bytes differ")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated corpus")
    parser.add_argument("--work", type=Path, help="keep the corpus and outputs here (default: a temporary directory)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="samebytes-") as scratch:
        work = args.work or Path(scratch)
        work.mkdir(parents=True, exist_ok=True)
        corpus = write_corpus(work, args.seed)
        for side, checkout in zip(SIDES, (args.parent, args.change)):
            run_side(checkout, work / side, corpus, work)
        problems = compare(work / "parent", work / "change")
    for line in problems:
        print(line)
    print(f"{len(problems)} file(s) differ" if problems
          else "all reports, CSV, JSON, memtable and demo output equal minus timestamps")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
