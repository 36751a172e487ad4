"""apce benchmark: seeded session workloads timed by wall clock.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload apce-reprior --seed 3 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout and driven in this
one process through its public entry points: ``apce.sched.
simulate_generation`` for the session workloads and ``apce.cli.main`` for
``corpus-sweep``. Inputs come from ``workloads.py`` and depend only on the
seed. Every session's output goes through ``outcheck.py``. Only the
set-up time is sampled elsewhere: in fresh processes of this script that
set up and exit, so that it covers the imports too.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced sessions and reports the
per-layer metrics from the spans of the traced ones, plus the overhead of
tracing. The last line of standard output is the result as one JSON
object; the lines before it are JSON too and carry the session count, the
environment and, for a traced run, each layer's share of the session.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import outcheck
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

# One BLAS thread: never more than nproc, and steadier than two on a small
# shared machine, where the matrices here gain little from a second thread.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3  # cold set-ups per run; setup_s is their median

# Layers whose busy time per session is reported as "<name>.ms".
BUSY_LAYERS = (
    "model.prefill", "model.rebuild_blocks", "model.init",
    "reprior.reprioritize", "reprior.update_enhanced_query",
    "select.score_chunks", "select.select_top_k", "embed.from_chunks",
    "textpipe.tokenize", "textpipe.chunk", "metrics.rouge_l_f1", "cli.write_report",
)
# Spans whose self time per session is reported, under these metric names.
SELF_LAYERS = {
    "reprior.apply_plan": "reprior.apply_plan.self_ms",
    "cli.run_record": "cli.run_record.self_ms",
    "sched.simulate_generation": "sched.self_ms",
}
# The layer each workload exists to stress, for the share printed with a trace.
MAIN_LAYER = {
    "prefill-dense": "model.prefill",
    "apce-reprior": "model.rebuild_blocks",
    "decode-long": "model.decode_step",
    "corpus-sweep": "model.init",
}


class SessionWorkload:
    """Sessions that call ``apce.sched.simulate_generation`` directly."""

    def __init__(self, name: str, seed: int, work: Path):
        from apce.config import RunConfig
        from apce.sched import LoadModel

        self.calls = [(s.doc, s.query, s.mode, LoadModel(**s.load), replace(RunConfig(), **s.config))
                      for s in workloads.WORKLOADS[name](seed)]
        self.items = len(self.calls)

    def before(self, item: int) -> None:
        pass

    def execute(self, item: int):
        import apce.sched as sched  # looked up per call, so a traced session sees the wrappers

        return sched.simulate_generation(*self.calls[item])

    def inspect(self, item: int, trace) -> tuple[str, list[str], list]:
        config = self.calls[item][4]
        problems = outcheck.law_violations(trace, config.chunk_size, config.max_new_tokens)
        return outcheck.digest([outcheck.session_summary(trace)]), problems, [trace]

    def close(self) -> None:
        pass


class CorpusWorkload:
    """One ``apce sweep`` and one ``apce run`` per session, in-process.

    The package's sessions are kept by a pass-through around
    ``apce.cli.simulate_generation`` so that the output check sees each one.
    """

    def __init__(self, name: str, seed: int, work: Path):
        import apce.cli as cli

        self.specs = workloads.corpus_sweep(seed)
        self.items = len(self.specs)
        work.mkdir(parents=True, exist_ok=True)
        for item, spec in enumerate(self.specs):
            (work / f"corpus{item}.jsonl").write_text("\n".join(spec.lines) + "\n", encoding="utf-8")
            (work / f"run{item}.conf").write_text(spec.config_text, encoding="utf-8")
        self.work = work
        self.out = work / "out"
        self.captured: list = []
        self._cli = cli
        self._original = cli.simulate_generation

        def capture(*args, **kwargs):
            trace = self._original(*args, **kwargs)
            self.captured.append(trace)
            return trace

        cli.simulate_generation = capture

    def before(self, item: int) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.captured = []

    def execute(self, item: int):
        spec = self.specs[item]
        common = ["--input", str(self.work / f"corpus{item}.jsonl"),
                  "--config", str(self.work / f"run{item}.conf"), "--out-dir", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):  # the commands print output paths
            return (self._cli.main(["sweep", *common, *spec.sweep_args]),
                    self._cli.main(["run", *common, *spec.run_args]))

    def inspect(self, item: int, codes) -> tuple[str, list[str], list]:
        spec = self.specs[item]
        problems = [f"exit code {c}" for c in codes if c != 0]
        parts: list = []
        for trace in self.captured:
            problems += outcheck.law_violations(trace, spec.chunk_size, spec.max_new_tokens)
            parts.append(outcheck.session_summary(trace))
        if not problems:
            parts.append(json.loads((self.out / "sweep_reprioritization_interval.json").read_text()))
            for path in sorted(self.out.glob("rec*.json")):
                report = json.loads(path.read_text())
                report.pop("timestamps")
                parts.append(report)
        return outcheck.digest(parts), problems, list(self.captured)

    def close(self) -> None:
        self._cli.simulate_generation = self._original


def make_workload(name: str, seed: int, work: Path):
    kind = CorpusWorkload if name == "corpus-sweep" else SessionWorkload
    return kind(name, seed, work)


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
        WORK_ROOT.rmdir()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_build = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile; the value itself for one sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return {"sessions": n, "tail": "fewer than 20 sessions: none above the median"}
    return {"sessions": n, "tail_percentile": int(100 * (n - 10) / n),
            "tail_session_s": sorted(values)[n - 11]}


def layer_metrics(recorder, traced: list[float], untraced: list[float]) -> dict:
    total, own, calls = recorder.layer_times()
    n = len(traced)
    metrics = {}
    for name in BUSY_LAYERS:
        metrics[f"{name}.ms"] = (total.get(name, 0.0) * 1000 / n, "ms")
    for name, key in SELF_LAYERS.items():
        metrics[key] = (own.get(name, 0.0) * 1000 / n, "ms")
    steps = [s * 1000 for s in calls.get("model.decode_step", [])] or [0.0]
    metrics["model.decode_step.ms.p50"] = (quantile(steps, 0.5), "ms")
    metrics["model.decode_step.ms.p99"] = (quantile(steps, 0.99), "ms")
    metrics["model.decode_step.samples"] = (len(calls.get("model.decode_step", [])), "count")
    c = recorder.counts
    for key in ("prefill_elements", "rebuild_elements", "decode_elements"):
        metrics[f"model.{key}"] = (c[key] / n, "count")
    metrics["reprior.taken_per_boundary"] = (
        c["plans_taken"] / c["boundaries"] if c["boundaries"] else 0.0, "ratio")
    metrics["reprior.recomputed_per_admitted"] = (
        c["recomputed"] / c["admitted"] if c["admitted"] else 0.0, "ratio")
    traced_s = statistics.median(traced)
    untraced_s = statistics.median(untraced) if untraced else traced_s
    metrics["trace.session_s"] = (traced_s, "s")
    metrics["trace.untraced_session_s"] = (untraced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics


def shares(recorder, workload: str, traced: list[float]) -> dict:
    """Each layer's busy time as a share of the traced session time."""
    total, _, _ = recorder.layer_times()
    session = sum(traced)
    out = {name: round(t / session, 4) for name, t in sorted(total.items(), key=lambda kv: -kv[1])}
    return {"main_layer": MAIN_LAYER[workload], "main_share": out.get(MAIN_LAYER[workload], 0.0),
            "layer_share_of_session": out}


def set_up(args: argparse.Namespace, work: Path):
    """Import the package, generate the inputs and run one warm-up session."""
    wl = make_workload(args.workload, args.seed, work)
    try:
        wl.before(0)
        wl.execute(0)
    except Exception:
        traceback.print_exc(file=sys.stderr)  # the timed sessions count the failure
    return wl


def cold_setups(args: argparse.Namespace) -> list[float]:
    """Seconds from the start of a fresh process to the end of its ``set_up``.

    Each sample starts its own interpreter, so it covers the import of numpy
    and of the package as well as input generation and the warm-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited with code {child.returncode}")
    return times


def bench(args: argparse.Namespace, work: Path) -> dict:
    digests = outcheck.DigestTable.load()
    setups = cold_setups(args) if not args.trace else []
    wl = set_up(args, work)

    recorder = tracing.SpanRecorder() if args.trace else None
    # A traced run alternates untraced and traced sessions on each document,
    # and every run ends on a whole cycle, so each document weighs the same.
    cycle = wl.items * (2 if args.trace else 1)
    timed: list[float] = []
    traced: list[float] = []
    untraced: list[float] = []
    first_outputs: dict[int, list] = {}  # item -> its traces, from its first passing session
    failed = 0
    start = time.perf_counter()
    i = 0
    try:
        while i == 0 or i % cycle or time.perf_counter() - start < args.seconds:
            traced_now = bool(args.trace) and i % 2 == 1
            item = (i // 2 if args.trace else i) % wl.items
            wl.before(item)
            if traced_now:
                recorder.session = len(traced)
                tracing.install(recorder)
            t = time.perf_counter()
            try:
                out = wl.execute(item)
                error = None
            except Exception:
                out, error = None, traceback.format_exc()
            finally:
                elapsed = time.perf_counter() - t
                if traced_now:
                    recorder.restore()
            timed.append(elapsed)
            (traced if traced_now else untraced).append(elapsed)
            if error is None:
                got, problems, traces = wl.inspect(item, out)
                mismatch = digests.mismatch(args.workload, args.seed, item, got)
                problems += [mismatch] if mismatch else []
            else:
                problems, traces = [error], []
            if problems:
                failed += 1
                print(f"session {i} failed: {'; '.join(problems)}", file=sys.stderr)
            else:
                first_outputs.setdefault(item, traces)
            i += 1
    finally:
        wl.close()

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), **tail(timed)}
    if args.trace:
        metrics = layer_metrics(recorder, traced, untraced)
        info.update(shares(recorder, args.workload, traced))
    else:
        # each item once, so the virtual times do not depend on the session count
        outputs = [t for traces in first_outputs.values() for t in traces]
        ttft = [t.ttft for t in outputs] or [0.0]
        total = [t.total_time for t in outputs] or [0.0]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "session_s": (statistics.median(timed), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "sim_ttft_s": (statistics.median(ttft), "virtual_s"),
            "sim_total_s": (statistics.median(total), "virtual_s"),
            "ok_frac": ((len(timed) - failed) / len(timed), "ratio"),
        }
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once, print "ready" and exit; one sample of setup_s
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    src = ROOT / "src"
    if not (src / "apce" / "__init__.py").is_file():
        print(f"error: no apce package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = WORK_ROOT / f"run-{os.getpid()}"
    try:
        if args.setup_probe:
            set_up(args, work).close()
            print("ready", flush=True)
            return 0
        result = bench(args, work)
    finally:
        remove_work(work)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
