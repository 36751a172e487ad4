"""The benchmark's recorded output digests hold for the package in ``src``.

``perfbench/digests.json`` holds a digest of every benchmark session's
deterministic output (tokens, counters, selection history, virtual times and,
for corpus-sweep, the reports and sweep JSON). This runs item 0 of every
workload at seed 0 the way ``perfbench/record_digests.py`` records it: in a
fresh interpreter, with the BLAS pinned to the benchmark's one thread. Each
digest must equal the recorded one, so a change that moves any output bit of
those sessions fails here rather than only in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SCRIPT = """
import json, os, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import record_digests, run, workloads

for var in run.BLAS_ENV:  # before anything imports numpy
    os.environ[var] = str(run.BLAS_THREADS)
sys.path.insert(0, str(run.ROOT / "src"))
got = {}
for name in workloads.WORKLOADS:
    wl = run.make_workload(name, 0, Path(sys.argv[2]) / name)
    try:
        got[name] = record_digests.record(wl, name, 0, 0)
    finally:
        wl.close()
print(json.dumps(got))
"""


def test_item_zero_of_every_workload_matches_its_recorded_digest(tmp_path):
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(PERFBENCH), str(tmp_path)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout.splitlines()[-1])
    recorded = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    want = {name: seeds["0"][0] for name, seeds in recorded.items()}
    assert got == want, result.stderr
