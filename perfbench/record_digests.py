"""Record the output digests that the benchmark checks at its default seeds.

Run from the root of a checkout, on the code whose outputs are the
reference:

    python3 perfbench/record_digests.py

It runs every item of every workload once per seed in ``SEEDS``, untimed,
and rewrites ``perfbench/digests.json`` as a whole. A session that raises
or breaks a count law is reported and gets no digest (``null``): the
benchmark then fails it on the error itself.
"""

from __future__ import annotations

import json
import os
import sys

import outcheck
import run
import workloads

SEEDS = range(40)


def main() -> int:
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.ROOT / "src"))
    work = run.WORK_ROOT / f"record-{os.getpid()}"
    table: dict[str, dict[str, list]] = {}
    failed = 0
    try:
        for name in workloads.WORKLOADS:
            table[name] = {}
            for seed in SEEDS:
                wl = run.make_workload(name, seed, work)
                try:
                    digests = [record(wl, name, seed, item) for item in range(wl.items)]
                finally:
                    wl.close()
                failed += digests.count(None)
                table[name][str(seed)] = digests
                print(name, seed, digests, flush=True)
    finally:
        run.remove_work(work)
    outcheck.DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    print(f"{failed} sessions failed", file=sys.stderr)
    return 0


def record(wl, name: str, seed: int, item: int) -> str | None:
    wl.before(item)
    try:
        got, problems, _ = wl.inspect(item, wl.execute(item))
    except Exception as exc:  # a crash of the package is reported, not recorded
        got, problems = None, [repr(exc)]
    if problems:
        print(f"{name} seed {seed} item {item} failed: {'; '.join(problems)}", file=sys.stderr)
        return None
    return got


if __name__ == "__main__":
    sys.exit(main())
