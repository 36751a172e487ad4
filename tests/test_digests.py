"""The benchmark's recorded output digests hold for the package in ``src``.

``perfbench/digests.json`` holds a digest of every benchmark session's
deterministic output (tokens, counters, selection history, virtual times and,
for corpus-sweep, the reports and sweep JSON). This runs item 0 of every
workload at seed 0 the way ``perfbench/record_digests.py`` records it: in a
fresh interpreter, with the BLAS pinned to the benchmark's one thread. Each
digest must equal the recorded one, so a change that moves any output bit of
those sessions fails here rather than only in the benchmark.

The check runs once more under another OpenBLAS kernel, where numpy's
OpenBLAS picks its kernel at run time: float internals (logits, K/V) differ
between kernels, but the digested outputs are expected not to.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


CORENAME = """
import ctypes
from apce.cli import _openblas

corename = _openblas().scipy_openblas_get_corename64_
corename.argtypes, corename.restype = [], ctypes.c_char_p
print(corename().decode())
"""


def _openblas_picks_its_kernel_at_run_time() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict view
        return False
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "") and any(libs.glob("libscipy_openblas*"))


def _corename(env: dict) -> str:
    result = subprocess.run([sys.executable, "-c", CORENAME], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.skipif(not _openblas_picks_its_kernel_at_run_time(),
                    reason="needs numpy's OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.skipif("OPENBLAS_CORETYPE" in os.environ, reason="the suite already runs under a chosen kernel")
def test_digests_hold_under_the_prescott_kernel():
    prescott = {**os.environ, "OPENBLAS_CORETYPE": "Prescott"}
    assert _corename(prescott) != _corename(dict(os.environ)), "OPENBLAS_CORETYPE had no effect"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_item_zero_of_every_workload_matches_its_recorded_digest"],
        cwd=ROOT, env=prescott, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
