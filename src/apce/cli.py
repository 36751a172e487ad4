"""Command-line entry point: run, sweep, memtable.

``run`` executes one session on one record and writes its report and a CSV
row. ``sweep`` runs every record at each value of one axis and writes
aggregate CSV and JSON; ``--axis reprioritization_interval`` is the interval
ablation. ``memtable`` prints the analytical memory table.

Exit codes are stable: 0 all runs completed (also when the reader of
standard output has closed it), 2 bad configuration or
arguments (an output path of the wrong kind among them), 3 missing input
(a file or record that is not there, or an input path that is a
directory), 4 internal error (a broken invariant of the engine, or any
other unexpected exception; APCE_LOG=DEBUG logs its traceback). Set
APCE_LOG to control log verbosity. Each flag of ``run`` and ``sweep`` sets
the config key that ``--help`` shows for it. ``main`` first sets numpy's
OpenBLAS to one thread unless the environment sets a thread count.
Reports are schema-versioned JSON; everything in them except the
"timestamps" field is a pure function of (config, corpus, seed).
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import json
import logging
import math
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy

from . import memmodel
from .config import CHOICES, RunConfig, apply_overrides, load_config_file, with_one_selection_rule
from .embed import HashingEmbedder
from .metrics import embedding_cosine_proxy, mean_std, rouge_l_f1
from .sched import simulate_generation
from .textpipe import Record, load_jsonl_records, tokenize

log = logging.getLogger("apce")

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_INTERNAL = 4

SCHEMA_VERSION = 1


class MissingInput(Exception):
    pass


# (flag, config key it sets, argparse options): the run and sweep overrides
RUN_FLAGS: tuple[tuple[str, str, dict], ...] = (
    ("--seed", "seed", {}),
    ("--mode", "mode", {}),
    ("--chunk-size", "chunk.size", {}),
    ("--max-chunks", "select.max_chunks", {}),
    ("--fraction", "select.fraction", {}),
    ("--interval", "reprioritization.interval", {}),
    ("--no-recompute", "reprioritization.recompute", {"action": "store_const", "const": "false"}),
    ("--no-reprioritization", "reprioritization.enabled", {"action": "store_const", "const": "false"}),
    ("--async-start", "load.async_start_chunks", {}),
    ("--max-new-tokens", "generation.max_new_tokens", {}),
    ("--load-latency", "load.per_chunk_latency", {"help": "simulated seconds per chunk load"}),
    ("--decode-latency", "load.decode_latency", {"help": "simulated seconds per decode step"}),
)


def build_run_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        config = apply_overrides(config, load_config_file(_input_file(args.config, "config file")))
    flags = {key: getattr(args, key) for _, key, _ in RUN_FLAGS if getattr(args, key) is not None}
    config = apply_overrides(config, with_one_selection_rule(flags))
    config.validate()
    if config.embedding_provider == "file":
        _input_file(config.embedding_file, "embedding.file")
    return config


def _input_file(path: str | Path, what: str) -> Path:
    """``path``, if it names a file; else MissingInput (exit 3)."""
    path = Path(path)
    if not path.exists():  # also a path that runs through a file
        raise MissingInput(f"{what} not found: {path}")
    if path.is_dir():
        raise MissingInput(f"{what} {path} is a directory")
    return path


def _check_output(path: Path, flag: str, directory: bool) -> Path:
    """Refuse an output path of the wrong kind (exit 2) before any work: a
    file given for a directory, a directory given for a file, or a path
    under a file."""
    if path.exists() and path.is_dir() != directory:
        raise ValueError(f"{flag} {path} is {'not ' if directory else ''}a directory")
    under = next((p for p in path.parents if p.exists()), None)  # None for "." and "/"
    if under is not None and not under.is_dir():
        raise ValueError(f"{flag} {path} lies under {under}, which is not a directory")
    return path


def load_records(args: argparse.Namespace) -> list[Record]:
    path = _input_file(args.input, "input file")
    if path.suffix == ".jsonl":
        if args.query is not None:
            raise ValueError("--query applies only to plain-text input; JSONL records carry their own")
        records = load_jsonl_records(path)
        if not records:
            raise MissingInput(f"no records in {path}")
        return records
    if args.query is None:
        raise ValueError("plain-text input needs --query")
    return [Record(id=path.stem, text=path.read_text(encoding="utf-8"), query=args.query, reference=None)]


def run_record(record: Record, config: RunConfig) -> dict:
    """Execute one session and assemble its report.

    Its ``timestamps`` hold the session's wall time; ``write_report`` adds
    the time of writing.
    """
    trace = simulate_generation(record.text, record.query, config.mode, config.load_model(), config)

    metrics: dict[str, object] = {}
    if record.reference:
        reference_ids = tokenize(record.reference, vocab_size=config.vocab_size)
        rouge = rouge_l_f1(trace.tokens, reference_ids)
        metrics["rouge_l_token_ids"] = {
            "precision": rouge.precision, "recall": rouge.recall, "f1": rouge.f1,
        }
        metrics["embedding_cosine_proxy"] = embedding_cosine_proxy(
            trace.tokens, reference_ids, HashingEmbedder(config.embedding_dim))
    else:
        metrics["rouge_l_token_ids"] = None
        metrics["embedding_cosine_proxy"] = None

    return {
        "schema_version": SCHEMA_VERSION,
        "run_id": f"{record.id}-{config.mode}-s{config.seed}",
        "mode": config.mode,
        "config": config.as_flat_dict(),
        "document": {"id": record.id, "tokens": trace.doc_tokens, "chunks": trace.n_chunks},
        "selection": {
            "initial": trace.initial_selection,
            "scores": [[i, s] for i, s in trace.initial_scores],
            "k_effective": trace.k_effective,
        },
        "replacement_log": [e.as_dict() for e in trace.replacement_stats.events],
        "replacement_stats": {
            "taken": trace.replacement_stats.taken,
            "available": trace.replacement_stats.available,
        },
        "trace": {
            "ttft": trace.ttft,
            "total_time": trace.total_time,
            "events": [e._asdict() for e in trace.events],
        },
        "tokens": trace.tokens,
        "counters": trace.counters,
        "metrics": metrics,
        "timestamps": {"wall_seconds": trace.wall_seconds},
    }


def write_report(report: dict, out_dir: Path) -> Path:
    report = dict(report)
    report["timestamps"] = {
        **report.get("timestamps", {}),
        "written_utc": datetime.now(timezone.utc).isoformat(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report['run_id']}.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return path


def append_csv_row(report: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "runs.csv"
    new = not path.exists()
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(["run_id", "mode", "ttft", "total_time", "tokens"])
        writer.writerow([
            report["run_id"], report["mode"],
            repr(report["trace"]["ttft"]), repr(report["trace"]["total_time"]),
            len(report["tokens"]),
        ])
    return path


def cmd_run(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    out_dir = _check_output(Path(args.out_dir), "--out-dir", directory=True)
    records = load_records(args)
    record = records[0]
    if args.record_id is not None:
        record = next((r for r in records if r.id == args.record_id), None)
        if record is None:
            raise MissingInput(f"record {args.record_id!r} not found in {args.input}")
    report = run_record(record, config)
    path = write_report(report, out_dir)
    append_csv_row(report, out_dir)
    log.info("wrote %s", path)
    print(path)
    return EXIT_OK


SWEEP_AXES = {
    "n_chunks": "select.max_chunks",
    "chunk_size": "chunk.size",
    "reprioritization_interval": "reprioritization.interval",
}


# per-run columns that a sweep reports as <column>_mean and <column>_std
AGGREGATED = ("ttft", "total_time", "rouge_f1", "taken", "available")


def _aggregate(rows: list[dict]) -> dict:
    """Mean and stddev per numeric column across runs of one sweep value;
    ValueError if one overflows (each run's times are finite, their sum need not be)."""
    out: dict[str, float | None] = {}
    for column in AGGREGATED:
        values = [r[column] for r in rows if r[column] is not None]
        out[f"{column}_mean"], out[f"{column}_std"] = mean_std(values) if values else (None, None)
    overflowed = [name for name, value in out.items() if value is not None and not math.isfinite(value)]
    if overflowed:
        raise ValueError(f"sweep column {overflowed[0]} overflowed: load.per_chunk_latency, load.decode_latency "
                         "and load.compute_seconds_per_element are too large for this sweep")
    return out


def run_sweep(axis: str, values: list[int], base: RunConfig, records: list[Record],
              out_dir: Path, name: str) -> tuple[Path, Path]:
    key = SWEEP_AXES[axis]
    per_run: list[dict] = []
    aggregates: list[dict] = []
    for value in values:
        config = apply_overrides(base, with_one_selection_rule({key: str(value)}))  # each session validates it
        rows = []
        for record in records:
            report = run_record(record, config)
            rouge = report["metrics"]["rouge_l_token_ids"]
            row = {
                "axis": axis,
                "value": value,
                "run_id": report["run_id"],
                "ttft": report["trace"]["ttft"],
                "total_time": report["trace"]["total_time"],
                "rouge_f1": rouge["f1"] if rouge else None,
                "taken": report["replacement_stats"]["taken"],
                "available": report["replacement_stats"]["available"],
            }
            rows.append(row)
            per_run.append(row)
        aggregates.append({"axis": axis, "value": value, "runs": len(rows), **_aggregate(rows)})

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    columns = ["axis", "value", "runs",
               *(f"{column}_{stat}" for column in AGGREGATED for stat in ("mean", "std"))]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in aggregates:
            writer.writerow({c: row.get(c) for c in columns})
    json_path = out_dir / f"{name}.json"
    summary = {"axis": axis, "values": values, "aggregates": aggregates, "per_run": per_run}
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return csv_path, json_path


def _parse_values(raw: str) -> list[int]:
    try:
        return [int(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad sweep values {raw!r}: {exc}") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    values = _parse_values(args.values)
    if not values:
        raise ValueError("sweep needs at least one value")
    out_dir = _check_output(Path(args.out_dir), "--out-dir", directory=True)
    records = load_records(args)
    csv_path, json_path = run_sweep(args.axis, values, config, records, out_dir, f"sweep_{args.axis}")
    print(csv_path)
    print(json_path)
    return EXIT_OK


# the MemConfig field or memory_report argument that a memtable flag sets -> the flag
_MEMTABLE_FLAGS = {"d_q": "--d-q", "d_kv": "--d-kv", "bytes_per_element": "--bytes-per-element",
                   "layer_count": "--layers"}


def _naming_flags(exc: ValueError) -> str:
    """The message of a memmodel refusal, the setting it starts with named by its flag."""
    return re.sub(r"^\w+", lambda word: _MEMTABLE_FLAGS.get(word[0], word[0]), str(exc))


def _parse_memtable_row(raw: str, widths: dict[str, int]) -> tuple[str, memmodel.MemConfig]:
    parts = raw.split(",")
    if len(parts) not in (3, 4):
        raise ValueError(f"--row expects 'L,k,m[,label]', got {raw!r}")
    try:
        seq_len, k, m = (int(p) for p in parts[:3])
        config = memmodel.MemConfig(seq_len=seq_len, n_chunks_selected=k, chunk_size=m, **widths)
    except ValueError as exc:
        raise ValueError(f"--row {raw!r}: {_naming_flags(exc)}") from exc
    label = parts[3] if len(parts) == 4 else f"L{seq_len}"
    if not label or not label.isprintable():  # a line of the table holds it
        raise ValueError(f"--row {raw!r} needs a printable non-empty label")
    return label, config


def cmd_memtable(args: argparse.Namespace) -> int:
    out = _check_output(Path(args.out), "--out", directory=False) if args.out else None
    widths = {name: getattr(args, name) for name in ("d_q", "d_kv", "bytes_per_element")
              if getattr(args, name) is not None}
    if widths and not args.row:
        raise ValueError("--d-q, --d-kv and --bytes-per-element apply only to --row rows")
    configs = {}
    for raw in args.row or ():
        label, cfg = _parse_memtable_row(raw, widths)
        if label in configs:
            raise ValueError(f"--row label {label!r} is given twice")
        configs[label] = cfg
    try:
        rows = memmodel.memory_report(configs=configs or None, layer_count=args.layers)
        if args.format == "text":
            output = memmodel.report_text(rows, flag_inconsistent=args.flag_inconsistent)
        elif args.format == "csv":
            output = memmodel.report_csv(rows)
        else:
            output = json.dumps(memmodel.report_json(rows, args.layers), sort_keys=True, indent=2)
    except ValueError as exc:
        raise ValueError(_naming_flags(exc)) from exc
    except OverflowError as exc:  # a byte count past the float range that MB cells are in
        raise ValueError(f"--row and --layers give a byte count too large for the table ({exc})") from exc
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(output + ("\n" if not output.endswith("\n") else ""), encoding="utf-8")
        print(out)
    else:
        print(output)
    return EXIT_OK


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--input", required=True, help="JSONL corpus or plain-text file")
    parser.add_argument("--query", help="instruction text (required for plain-text input)")
    parser.add_argument("--out-dir", default="out", help="report directory")
    for flag, key, options in RUN_FLAGS:  # each value is parsed and checked as its key's
        if "const" in options:  # a switch: say what it sets
            options = {"help": f"sets {key} = {options['const']}", **options}
        else:
            options = {"metavar": "{" + ",".join(CHOICES[key]) + "}" if key in CHOICES else key, **options}
        parser.add_argument(flag, dest=key, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="apce", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one generation session, one record")
    _add_run_options(p_run)
    p_run.add_argument("--record-id", help="pick a record by id (default: first)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an axis sweep over the corpus")
    _add_run_options(p_sweep)
    p_sweep.add_argument("--axis", choices=sorted(SWEEP_AXES), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated integers")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mem = sub.add_parser("memtable", help="analytical memory table")
    p_mem.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_mem.add_argument("--flag-inconsistent", action="store_true",
                       help="mark cells where the formula disagrees with reference figures")
    p_mem.add_argument("--row", action="append",
                       help="custom row 'L,k,m[,label]' (repeatable; replaces presets)")
    p_mem.add_argument("--d-q", type=int, help="query/output embedding width for custom rows")
    p_mem.add_argument("--d-kv", type=int, help="aggregate K/V width for custom rows")
    p_mem.add_argument("--bytes-per-element", type=int)
    p_mem.add_argument("--layers", type=int, default=1)
    p_mem.add_argument("--out", help="write to a file instead of stdout")
    p_mem.set_defaults(func=cmd_memtable)
    return parser


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (``numpy.libs/libscipy_openblas*``), whose
    ``scipy_openblas_*64_`` calls set and report its threads and kernel; None
    where numpy brings no such library."""
    try:
        lib = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))[0]
        return ctypes.CDLL(str(lib))
    except (IndexError, OSError) as exc:
        log.debug("numpy's OpenBLAS not found: %r", exc)
        return None


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread, as the model's threaded
    passes assume, unless the environment sets a thread count. Skipped,
    and logged at DEBUG, where that library or its call is missing."""
    if any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    set_threads = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if set_threads is None:
        log.debug("BLAS threads left as they are: no OpenBLAS thread call")
        return
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("APCE_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    _pin_blas_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, which matches our bad-config code
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed standard output fails here, not at the interpreter's exit
        return code
    except BrokenPipeError:  # the reader of standard output has gone: nothing is left to tell it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the exit flush of what is still buffered stays quiet
        os.close(devnull)
        return EXIT_OK
    except (MissingInput, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except Exception as exc:  # a broken invariant, expected (RuntimeError) or not
        log.debug("internal error", exc_info=exc)
        detail = exc if isinstance(exc, RuntimeError) else f"{type(exc).__name__}: {exc}"
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
