"""Command-line entry point: run, sweep, ablate, memtable.

Exit codes are stable: 0 all runs completed, 2 bad configuration or
arguments, 3 missing input (file or record), 4 internal error (a broken
invariant of the engine; APCE_LOG=DEBUG logs its traceback). Set APCE_LOG
to control log verbosity. Reports are schema-versioned JSON; everything in
them except the "timestamps" field is a pure function of (config, corpus,
seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import jsonschema

from . import memmodel
from .config import RunConfig, apply_overrides, load_config_file
from .embed import HashingEmbedder
from .metrics import embedding_cosine_proxy, mean_std, rouge_l_f1
from .sched import LoadModel, simulate_generation, trace_events_json
from .textpipe import Record, load_jsonl_records, load_text_file, tokenize

log = logging.getLogger("apce")

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_INTERNAL = 4

SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "run_id", "mode", "config", "document", "selection",
        "replacement_log", "replacement_stats", "trace", "tokens", "counters",
        "metrics", "timestamps",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "run_id": {"type": "string"},
        "mode": {"enum": ["dense", "apce"]},
        "config": {"type": "object"},
        "document": {
            "type": "object",
            "required": ["id", "tokens", "chunks"],
            "properties": {
                "id": {"type": "string"},
                "tokens": {"type": "integer", "minimum": 0},
                "chunks": {"type": "integer", "minimum": 0},
            },
        },
        "selection": {
            "type": "object",
            "required": ["initial", "scores", "k_effective"],
        },
        "replacement_log": {"type": "array"},
        "replacement_stats": {
            "type": "object",
            "required": ["taken", "available"],
        },
        "trace": {
            "type": "object",
            "required": ["ttft", "total_time", "events"],
        },
        "tokens": {"type": "array", "items": {"type": "integer"}},
        "counters": {"type": "object"},
        "metrics": {"type": "object"},
        "timestamps": {"type": "object"},
    },
}


class MissingInput(Exception):
    pass


def build_run_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        try:
            raw = load_config_file(args.config)
        except FileNotFoundError as exc:
            raise MissingInput(str(exc)) from exc
        config = apply_overrides(config, raw)
    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.chunk_size is not None:
        overrides["chunk.size"] = str(args.chunk_size)
    if args.max_chunks is not None and args.fraction is not None:
        raise ValueError("set at most one of --max-chunks and --fraction")
    if args.max_chunks is not None:
        # an explicit flag replaces whichever selection rule the file set
        overrides["select.max_chunks"] = str(args.max_chunks)
        overrides["select.fraction"] = "none"
    if args.fraction is not None:
        overrides["select.fraction"] = str(args.fraction)
        overrides["select.max_chunks"] = "none"
    if args.interval is not None:
        overrides["reprioritization.interval"] = str(args.interval)
    if args.no_recompute:
        overrides["reprioritization.recompute"] = "false"
    if args.no_reprioritization:
        overrides["reprioritization.enabled"] = "false"
    if args.async_start is not None:
        overrides["load.async_start_chunks"] = str(args.async_start)
    if args.max_new_tokens is not None:
        overrides["generation.max_new_tokens"] = str(args.max_new_tokens)
    if args.load_latency is not None:
        overrides["load.per_chunk_latency"] = str(args.load_latency)
    if args.decode_latency is not None:
        overrides["load.decode_latency"] = str(args.decode_latency)
    config = apply_overrides(config, overrides)
    if config.max_chunks is not None and config.fraction is not None:
        raise ValueError("set at most one of max_chunks and fraction")
    config.validate()
    return config


def load_records(args: argparse.Namespace) -> list[Record]:
    path = Path(args.input)
    if not path.exists():
        raise MissingInput(f"input file not found: {path}")
    if path.suffix == ".jsonl":
        records = load_jsonl_records(path)
        if not records:
            raise MissingInput(f"no records in {path}")
        return records
    if args.query is None:
        raise ValueError("plain-text input needs --query")
    return [Record(id=path.stem, text=load_text_file(path), query=args.query,
                   reference=None)]


def run_record(record: Record, config: RunConfig) -> dict:
    """Execute one session and assemble its report.

    Its ``timestamps`` hold the session's wall time; ``write_report`` adds
    the time of writing.
    """
    load = LoadModel.from_config(config)
    trace = simulate_generation(record.text, record.query, config.mode, load, config)

    metrics: dict[str, object] = {}
    if record.reference:
        reference_ids = list(tokenize(record.reference, vocab_size=config.vocab_size).tokens)
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
            "events": trace_events_json(trace),
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
    jsonschema.validate(report, REPORT_SCHEMA)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report['run_id']}.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
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
    records = load_records(args)
    if args.record_id is not None:
        matched = [r for r in records if r.id == args.record_id]
        if not matched:
            raise MissingInput(f"record {args.record_id!r} not found in {args.input}")
        records = matched[:1]
    else:
        records = records[:1]
    out_dir = Path(args.out_dir)
    report = run_record(records[0], config)
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


def _aggregate(rows: list[dict]) -> dict:
    """Mean and stddev per numeric column across runs of one sweep value."""
    out: dict[str, float | None] = {}
    for column in ("ttft", "total_time", "rouge_f1", "taken", "available"):
        values = [r[column] for r in rows if r[column] is not None]
        if values:
            mean, std = mean_std(values)
            out[f"{column}_mean"], out[f"{column}_std"] = mean, std
        else:
            out[f"{column}_mean"] = out[f"{column}_std"] = None
    return out


def run_sweep(axis: str, values: list[int], base: RunConfig, records: list[Record],
              out_dir: Path, name: str) -> tuple[Path, Path]:
    key = SWEEP_AXES[axis]
    per_run: list[dict] = []
    aggregates: list[dict] = []
    for value in values:
        config = apply_overrides(base, {key: str(value)})
        if axis == "n_chunks":
            config = replace(config, fraction=None)
        config.validate()
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
               "ttft_mean", "ttft_std", "total_time_mean", "total_time_std",
               "rouge_f1_mean", "rouge_f1_std", "taken_mean", "taken_std",
               "available_mean", "available_std"]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in aggregates:
            writer.writerow({c: row.get(c) for c in columns})
    json_path = out_dir / f"{name}.json"
    json_path.write_text(json.dumps({
        "axis": axis,
        "values": values,
        "aggregates": aggregates,
        "per_run": per_run,
    }, sort_keys=True, indent=2) + "\n", encoding="utf-8")
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
    records = load_records(args)
    csv_path, json_path = run_sweep(args.axis, values, config, records,
                                    Path(args.out_dir), f"sweep_{args.axis}")
    print(csv_path)
    print(json_path)
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    values = _parse_values(args.intervals)
    if not values:
        raise ValueError("ablate needs at least one interval")
    records = load_records(args)
    csv_path, json_path = run_sweep("reprioritization_interval", values, config, records,
                                    Path(args.out_dir), "ablation_interval")
    print(csv_path)
    print(json_path)
    return EXIT_OK


def _parse_memtable_row(raw: str) -> tuple[str, memmodel.MemConfig]:
    parts = raw.split(",")
    if len(parts) not in (3, 4):
        raise ValueError(f"--row expects 'L,k,m[,label]', got {raw!r}")
    seq_len, k, m = (int(p) for p in parts[:3])
    label = parts[3] if len(parts) == 4 else f"L{seq_len}"
    return label, memmodel.MemConfig(seq_len=seq_len, n_chunks_selected=k, chunk_size=m)


def cmd_memtable(args: argparse.Namespace) -> int:
    configs = None
    if args.row:
        configs = {}
        for raw in args.row:
            label, cfg = _parse_memtable_row(raw)
            if args.d_q or args.d_kv or args.bytes_per_element:
                cfg = memmodel.MemConfig(
                    seq_len=cfg.seq_len,
                    n_chunks_selected=cfg.n_chunks_selected,
                    chunk_size=cfg.chunk_size,
                    d_q=args.d_q or memmodel.LLAMA_3B_D_Q,
                    d_kv=args.d_kv or memmodel.LLAMA_3B_D_KV,
                    bytes_per_element=args.bytes_per_element or memmodel.FP16_BYTES,
                )
            configs[label] = cfg
    report = memmodel.memory_report(configs=configs, layer_count=args.layers)
    if args.format == "text":
        output = memmodel.report_text(report, flag_inconsistent=args.flag_inconsistent)
    elif args.format == "csv":
        output = memmodel.report_csv(report)
    else:
        output = json.dumps(memmodel.report_json(report), sort_keys=True, indent=2)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(output + ("\n" if not output.endswith("\n") else ""), encoding="utf-8")
        print(path)
    else:
        print(output)
    return EXIT_OK


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--input", required=True, help="JSONL corpus or plain-text file")
    parser.add_argument("--query", help="instruction text (required for plain-text input)")
    parser.add_argument("--out-dir", default="out", help="report directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mode", choices=["dense", "apce"])
    parser.add_argument("--chunk-size", type=int)
    parser.add_argument("--max-chunks", type=int)
    parser.add_argument("--fraction", type=float)
    parser.add_argument("--interval", type=int)
    parser.add_argument("--no-recompute", action="store_true")
    parser.add_argument("--no-reprioritization", action="store_true")
    parser.add_argument("--async-start", type=int)
    parser.add_argument("--max-new-tokens", type=int)
    parser.add_argument("--load-latency", type=float, help="simulated seconds per chunk load")
    parser.add_argument("--decode-latency", type=float, help="simulated seconds per decode step")


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

    p_ablate = sub.add_parser("ablate", help="reprioritization interval ablation")
    _add_run_options(p_ablate)
    p_ablate.add_argument("--intervals", default="1,5,10,25,50,100,200")
    p_ablate.set_defaults(func=cmd_ablate)

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


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("APCE_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, which matches our bad-config code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MissingInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except RuntimeError as exc:
        log.debug("internal error", exc_info=exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
