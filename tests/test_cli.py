import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import apce.cli
from apce.cli import SWEEP_AXES, main
from apce.config import KEY_SPECS, RunConfig
from apce.embed import HashingEmbedder
from apce.model import DecoderModel
from apce.textpipe import tokenize

from report_schema import REPORT_SCHEMA

TOY_CONF = """
chunk.size = 10
tokenizer.vocab_size = 512
model.n_layers = 2
model.n_heads = 2
model.d_model = 32
model.d_head = 16
model.d_kv_total = 32
embedding.dim = 48
generation.max_new_tokens = 10
select.fraction = 0.5
reprioritization.interval = 5
load.per_chunk_latency = 0.25
load.decode_latency = 0.01
"""


@pytest.fixture
def corpus(tmp_path):
    rows = [
        {"id": "r1", "text": " ".join(f"a{i%17}b{i%7} c{i%5}" for i in range(50)),
         "query": "summarize the a-passages", "reference": "a1b2 c3 a4b5"},
        {"id": "r2", "text": " ".join(f"d{i%11} e{i%13}" for i in range(60)),
         "query": "what about the d-sections", "reference": "d things e things"},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    conf = tmp_path / "toy.conf"
    conf.write_text(TOY_CONF)
    return path, conf


def run_cli(*argv):
    return main(list(argv))


def read_report(path):
    """Load a report the CLI wrote and check it against the report schema."""
    report = json.loads(path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    return report


def test_run_writes_valid_report_and_csv(corpus, tmp_path, capsys):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    code = run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--seed", "5")
    assert code == 0
    report_path = out / "r1-apce-s5.json"
    assert report_path.exists()
    report = read_report(report_path)
    assert report["document"]["chunks"] == 10
    assert len(report["tokens"]) == 10
    with open(out / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["run_id"] == "r1-apce-s5"
    assert rows[0]["tokens"] == "10"


def test_run_specific_record(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    code = run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--record-id", "r2")
    assert code == 0
    assert read_report(out / "r2-apce-s0.json")["document"]["id"] == "r2"


def test_dense_run_has_empty_replacement_log(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--mode", "dense") == 0
    report = read_report(out / "r1-dense-s0.json")
    assert report["replacement_log"] == []
    assert report["replacement_stats"] == {"taken": 0, "available": 0}


def test_apce_with_all_chunks_matches_dense_output(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    common = ["--input", str(corpus_path), "--config", str(conf), "--out-dir", str(out),
              "--no-reprioritization", "--async-start", "100"]
    assert run_cli("run", *common, "--mode", "dense") == 0
    assert run_cli("run", *common, "--mode", "apce", "--max-chunks", "10") == 0
    dense = read_report(out / "r1-dense-s0.json")
    apce = read_report(out / "r1-apce-s0.json")
    assert apce["tokens"] == dense["tokens"]


def test_replay_determinism_outside_timestamps(corpus, tmp_path):
    corpus_path, conf = corpus
    reports = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                       "--out-dir", str(out), "--seed", "7") == 0
        payload = read_report(out / "r1-apce-s7.json")
        payload.pop("timestamps")
        reports.append(json.dumps(payload, sort_keys=True))
    assert reports[0] == reports[1]


def test_report_timestamps_hold_the_session_wall_time(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--seed", "7") == 0
    report = read_report(out / "r1-apce-s7.json")
    stamps = report.pop("timestamps")
    assert sorted(stamps) == ["wall_seconds", "written_utc"]
    assert stamps["wall_seconds"] > 0
    assert "wall_seconds" not in json.dumps(report)


@pytest.mark.parametrize("past_bound,code", [(0, 0), (1, 2)])
def test_position_bound_is_checked_before_prefill(corpus, tmp_path, monkeypatch, past_bound, code):
    """The first new token comes from the prefill, so the last decode step
    runs at doc_tokens + max_new_tokens - 2 and needs max_position one above."""
    corpus_path, _ = corpus
    text = json.loads(corpus_path.read_text().splitlines()[0])["text"]
    doc_tokens = len(tokenize(text, vocab_size=512))
    conf = tmp_path / "bounded.conf"
    conf.write_text(TOY_CONF + f"model.max_position = {doc_tokens + 10 - 1 - past_bound}\n")
    prefills = []
    prefill = DecoderModel.prefill

    def counted(self, *args):
        prefills.append(args)
        return prefill(self, *args)

    monkeypatch.setattr(DecoderModel, "prefill", counted)
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(tmp_path / "o")) == code
    assert len(prefills) == (1 if code == 0 else 0)


def test_internal_error_exit_code(corpus, tmp_path, monkeypatch, capsys):
    corpus_path, conf = corpus

    def broken(*args):
        raise RuntimeError("internal consistency: no tokens available for chunks [7]")

    monkeypatch.setattr(apce.cli, "simulate_generation", broken)
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(tmp_path / "o")) == 4
    assert capsys.readouterr().err == "error: internal consistency: no tokens available for chunks [7]\n"


def test_unexpected_exception_exits_4_and_logs_its_traceback(corpus, tmp_path, monkeypatch, capsys, caplog):
    corpus_path, conf = corpus

    def broken(*args):
        raise KeyError(7)  # as KVCache.evict raises for a chunk that is not resident

    monkeypatch.setattr(apce.cli, "simulate_generation", broken)
    with caplog.at_level("DEBUG", logger="apce"):
        assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                       "--out-dir", str(tmp_path / "o")) == 4
    assert capsys.readouterr().err == "error: KeyError: 7\n"
    assert [r.exc_info[0] for r in caplog.records if r.message == "internal error"] == [KeyError]
    assert not (tmp_path / "o").exists()


def test_missing_input_exit_code(corpus, tmp_path, capsys):
    """An input path that is not there, or names a directory, exits 3."""
    corpus_path, conf = corpus
    folder = tmp_path / "folder.jsonl"
    folder.mkdir()
    embeddings = tmp_path / "emb.conf"
    embeddings.write_text(TOY_CONF + f"embedding.provider = file\nembedding.file = {folder}\n")
    for args in (("--input", str(tmp_path / "nope.jsonl")),
                 ("--input", str(folder), "--config", str(conf)),
                 ("--input", str(folder), "--config", str(conf), "--query", "q"),
                 ("--input", str(corpus_path), "--config", str(folder)),
                 ("--input", str(corpus_path), "--config", str(corpus_path / "under_a_file.conf")),
                 ("--input", str(corpus_path), "--config", str(embeddings))):
        assert run_cli("run", *args, "--out-dir", str(tmp_path / "o")) == 3, args
        assert capsys.readouterr().err.startswith("error: "), args
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [("run",), ("sweep", "--axis", "n_chunks", "--values", "1,2")])
def test_a_virtual_clock_that_overflows_is_refused(corpus, tmp_path, capsys, command):
    """Each latency is finite, but their sum is not: the run exits 2 naming
    the load.* keys, and writes no report, CSV row or sweep file."""
    corpus_path, conf = corpus
    assert run_cli(*command, "--input", str(corpus_path), "--config", str(conf), "--decode-latency", "1e308",
                   "--max-new-tokens", "4", "--out-dir", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "virtual clock overflowed" in err
    for key in ("load.per_chunk_latency", "load.decode_latency", "load.compute_seconds_per_element"):
        assert key in err
    assert not (tmp_path / "o").exists()


def test_a_sweep_aggregate_that_overflows_is_refused(corpus, tmp_path, capsys):
    """Each run's total_time is finite, but the sum of two is not: the sweep
    exits 2 naming the column and the load.* keys, with no numpy warning, and
    writes neither sweep file."""
    corpus_path, conf = corpus
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("sweep", "--axis", "n_chunks", "--values", "1", "--input", str(corpus_path),
                       "--config", str(conf), "--decode-latency", "4e307", "--max-new-tokens", "4",
                       "--out-dir", str(tmp_path / "o")) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("error: sweep column total_time_mean overflowed: ")
    for key in ("load.per_chunk_latency", "load.decode_latency", "load.compute_seconds_per_element"):
        assert key in err
    assert not (tmp_path / "o").exists()


def test_missing_record_exit_code(corpus, tmp_path):
    corpus_path, conf = corpus
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--record-id", "ghost", "--out-dir", str(tmp_path / "o")) == 3


def test_bad_config_exit_code(corpus, tmp_path, capsys):
    corpus_path, conf = corpus
    bad = tmp_path / "bad.conf"
    latencies = "latencies must be finite and >= 0"
    # a window below 1 would slice as tokens[-0:] (every token) or drop a head;
    # a NaN or infinite latency, or a rope_theta <= 0 or not finite, would
    # poison the virtual clock or the rope tables
    for line, complaint in (
            ("reprioritization.interval = never", "bad value"),
            ("query.recent_tokens = 0", "query.recent_tokens must be >= 1"),
            ("query.recent_tokens = -3", "query.recent_tokens must be >= 1"),
            ("query.tail_chars = 0", "query.tail_chars must be >= 1"),
            ("query.tail_chars = -3", "query.tail_chars must be >= 1"),
            ("load.compute_seconds_per_element = nan", latencies),
            ("load.decode_latency = inf", latencies), ("load.per_chunk_latency = nan", latencies),
            ("model.rope_theta = 0", "rope_theta"), ("model.rope_theta = -5", "rope_theta"),
            ("model.rope_theta = inf", "rope_theta"),
            # each refusal names the key, a model or load setting's too
            ("seed = -1", "seed must be >= 0"), ("embedding.dim = 0", "embedding.dim must be >= 1"),
            ("chunk.size = 0", "chunk.size must be >= 1"), ("model.n_layers = 0", "model.n_layers must be positive"),
            ("load.decode_latency = inf", "load.decode_latency is inf"),
            ("load.async_start_chunks = 0", "load.async_start_chunks must be >= 1"),
            ("model.n_heads = 1\nmodel.d_model = 3\nmodel.d_head = 3\nmodel.d_kv_total = 3",
             "model.d_head must be even"),
            ("chunk.size = 10\nchunk.size = 20", "line 2: key 'chunk.size' repeats line 1")):
        bad.write_text(line + "\n")
        assert run_cli("run", "--input", str(corpus_path), "--config", str(bad),
                       "--out-dir", str(tmp_path / "o")) == 2, line
        assert complaint in capsys.readouterr().err, line
    # an output path of the wrong kind is bad usage too, refused before any session
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for argv, complaint in (
            (("run", "--out-dir", str(a_file)), f"--out-dir {a_file} is not a directory"),
            (("sweep", "--axis", "n_chunks", "--values", "1", "--out-dir", str(a_file)),
             f"--out-dir {a_file} is not a directory"),
            (("run", "--out-dir", str(a_file / "o")), f"lies under {a_file}, which is not a directory"),
            (("memtable", "--out", str(tmp_path)), f"--out {tmp_path} is a directory"),
            (("memtable", "--out", str(a_file / "t.txt")), f"lies under {a_file}")):
        if argv[0] != "memtable":
            argv = (*argv, "--input", str(corpus_path), "--config", str(conf))
        assert run_cli(*argv) == 2, argv
        assert complaint in capsys.readouterr().err, argv
    assert a_file.read_text() == ""
    assert not (tmp_path / "o").exists()


# each key with a declared bound or set of values: a value just outside it, and the run flag that sets it
OUTSIDE = {
    "mode": ("sparse", "--mode"), "seed": ("-1", "--seed"), "chunk.size": ("0", "--chunk-size"),
    "select.max_chunks": ("0", "--max-chunks"), "reprioritization.interval": ("0", "--interval"),
    "generation.max_new_tokens": ("0", "--max-new-tokens"), "query.tail_chars": ("0", None),
    "query.recent_tokens": ("0", None), "embedding.dim": ("0", None), "embedding.provider": ("bert", None),
}


def test_every_declared_domain_is_checked_by_file_and_by_flag(corpus, tmp_path, capsys):
    declared = {f.metadata["key"] for f in dataclasses.fields(RunConfig)
                if f.metadata["least"] is not None or f.metadata["choices"]}
    assert declared == OUTSIDE.keys()
    corpus_path, _ = corpus
    conf = tmp_path / "one.conf"
    for key, (value, flag) in OUTSIDE.items():
        conf.write_text(f"{key} = {value}\n")
        attempts = [("--config", str(conf))] + ([(flag, value)] if flag else [])
        for extra in attempts:
            assert run_cli("run", "--input", str(corpus_path), f"{extra[0]}={extra[1]}",
                           "--out-dir", str(tmp_path / "o")) == 2, (key, extra)
            assert capsys.readouterr().err.startswith(f"error: {key} must be "), (key, extra)
    assert not (tmp_path / "o").exists()


def test_a_flag_value_is_parsed_by_its_key(corpus, tmp_path, capsys):
    corpus_path, conf = corpus
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf), "--seed", "x",
                   "--out-dir", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: bad value for 'seed': 'x' (")
    # "none" clears a selection rule by flag as it does in a file
    base = "".join(line + "\n" for line in TOY_CONF.splitlines() if not line.startswith("select."))
    by_file, by_flag = tmp_path / "by_file.conf", tmp_path / "by_flag.conf"
    by_file.write_text(base + "select.max_chunks = none\n")
    by_flag.write_text(base)
    reports = []
    for conf, flags in ((by_file, ()), (by_flag, ("--max-chunks", "none")), (by_flag, ("--fraction", "none"))):
        out = tmp_path / conf.stem / "-".join(flags)
        assert run_cli("run", "--input", str(corpus_path), "--config", str(conf), *flags,
                       "--out-dir", str(out)) == 0
        report = read_report(next(out.glob("*.json")))
        report.pop("timestamps")
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["selection"]["k_effective"] == 7  # the default fraction 0.7 of 10 chunks


def test_out_dir_may_be_the_working_directory(corpus, tmp_path, monkeypatch):
    """"." has no parent to check, and is a directory: run and sweep write there."""
    corpus_path, conf = corpus
    monkeypatch.chdir(tmp_path)
    common = ("--input", str(corpus_path), "--config", str(conf), "--out-dir", ".")
    assert run_cli("run", *common) == 0
    assert run_cli("sweep", "--axis", "n_chunks", "--values", "1", *common) == 0
    assert (tmp_path / "runs.csv").is_file()
    assert (tmp_path / "sweep_n_chunks.csv").is_file() and (tmp_path / "sweep_n_chunks.json").is_file()


@pytest.mark.parametrize("record_id", ["a/b", "../escape", "a\\b", "a\0b", "", ".", ".."])
def test_record_id_must_be_a_file_name(tmp_path, capsys, record_id):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(json.dumps({"id": "ok", "text": "one two", "query": "q"}) + "\n"
                           + json.dumps({"id": record_id, "text": "three four", "query": "q"}) + "\n")
    before = sorted(tmp_path.rglob("*"))
    assert run_cli("run", "--input", str(corpus_path), "--record-id", record_id,
                   "--out-dir", str(tmp_path / "nest" / "out")) == 2
    assert sorted(tmp_path.rglob("*")) == before
    assert f"{corpus_path}: line 2: record id" in capsys.readouterr().err


@pytest.mark.parametrize("line,complaint", [
    ('{"id": "a", "text": 5, "query": "q"}', "fields ['text'] must be strings"),
    ('{"id": "a", "text": "t", "query": ["q"]}', "fields ['query'] must be strings"),
    ('{"id": "a", "text": "t", "query": "q", "reference": 3}', "fields ['reference'] must be strings"),
    ('{"id": null, "text": "t", "query": "q"}', "fields ['id'] must be strings"),
    ('{"id": 7, "text": "t", "query": "q"}', "fields ['id'] must be strings"),
    ('{"id": {"a": 1}, "text": "t", "query": "q"}', "fields ['id'] must be strings"),
    ("5", "a record must be a JSON object"),
    ('["a", "t", "q"]', "a record must be a JSON object"),
])
def test_record_fields_must_be_strings(tmp_path, capsys, line, complaint):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(json.dumps({"id": "ok", "text": "one two", "query": "q"}) + "\n" + line + "\n")
    for cmd in ("run", "sweep"):
        extra = ("--axis", "n_chunks", "--values", "1") if cmd == "sweep" else ()
        assert run_cli(cmd, "--input", str(corpus_path), *extra,
                       "--out-dir", str(tmp_path / "o")) == 2, cmd
        assert f"{corpus_path}: line 2: {complaint}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_null_reference_means_none(corpus, tmp_path):
    _, conf = corpus
    corpus_path = tmp_path / "nullref.jsonl"
    corpus_path.write_text(json.dumps({"id": "a", "text": "one two", "query": "q", "reference": None}) + "\n")
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(tmp_path / "o")) == 0
    assert read_report(tmp_path / "o" / "a-apce-s0.json")["metrics"]["rouge_l_token_ids"] is None


def test_duplicate_record_ids_are_refused(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("\n".join(json.dumps({"id": rid, "text": "one two", "query": "q"})
                                     for rid in ("a", "b", "c", "a")) + "\n")
    for argv in (("sweep", "--axis", "n_chunks", "--values", "1"), ("run", "--record-id", "a"), ("run",)):
        assert run_cli(*argv, "--input", str(corpus_path), "--out-dir", str(tmp_path / "o")) == 2, argv
        assert f"{corpus_path}: line 4: record id 'a' repeats line 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_conflicting_selection_flags_exit_code(corpus, tmp_path):
    corpus_path, conf = corpus
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--max-chunks", "3", "--fraction", "0.5",
                   "--out-dir", str(tmp_path / "o")) == 2


def test_plain_text_input_requires_query(corpus, tmp_path):
    text = tmp_path / "doc.txt"
    text.write_text("some plain document " * 20)
    _, conf = corpus
    assert run_cli("run", "--input", str(text), "--config", str(conf),
                   "--out-dir", str(tmp_path / "o")) == 2
    assert run_cli("run", "--input", str(text), "--config", str(conf),
                   "--query", "summarize this", "--out-dir", str(tmp_path / "o")) == 0


def test_query_flag_is_refused_with_jsonl_input(corpus, tmp_path, capsys):
    corpus_path, conf = corpus
    for cmd in ("run", "sweep"):
        extra = ("--axis", "n_chunks", "--values", "1") if cmd == "sweep" else ()
        assert run_cli(cmd, "--input", str(corpus_path), "--config", str(conf), *extra,
                       "--query", "x", "--out-dir", str(tmp_path / "o")) == 2, cmd
        assert "--query applies only to plain-text input" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_embedding_file_line_exits_2(corpus, tmp_path, capsys):
    corpus_path, conf = corpus
    emb = tmp_path / "emb.jsonl"
    conf.write_text(TOY_CONF + f"embedding.provider = file\nembedding.file = {emb}\n")
    for line in ("5", '{"chunk_index": null, "vector": [1.0]}', '{"chunk_index": 0.7, "vector": [1.0]}',
                 '{"chunk_index": 1, "vector": {"x": 1.0}}'):
        emb.write_text(line + "\n")
        assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                       "--out-dir", str(tmp_path / "o")) == 2, line
        assert f"{emb}: line 1: " in capsys.readouterr().err, line
    assert not (tmp_path / "o").exists()


def test_sweep_chunk_size(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    code = run_cli("sweep", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--axis", "chunk_size", "--values", "8,10,15")
    assert code == 0
    with open(out / "sweep_chunk_size.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["8", "10", "15"]
    assert all(r["runs"] == "2" for r in rows)
    payload = json.loads((out / "sweep_chunk_size.json").read_text())
    assert payload["axis"] == "chunk_size"
    assert len(payload["per_run"]) == 6


def test_sweep_n_chunks_overrides_fraction(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    code = run_cli("sweep", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--axis", "n_chunks", "--values", "2,5,10")
    assert code == 0
    with open(out / "sweep_n_chunks.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3


def test_single_value_sweep_matches_run(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    assert run_cli("sweep", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--axis", "reprioritization_interval",
                   "--values", "5") == 0
    payload = json.loads((out / "sweep_reprioritization_interval.json").read_text())
    run_out = tmp_path / "single"
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(run_out), "--interval", "5") == 0
    report = read_report(run_out / "r1-apce-s0.json")
    sweep_row = [r for r in payload["per_run"] if r["run_id"] == "r1-apce-s0"][0]
    assert sweep_row["ttft"] == report["trace"]["ttft"]
    assert sweep_row["total_time"] == report["trace"]["total_time"]
    with open(out / "sweep_reprioritization_interval.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["5"]
    assert "taken_mean" in rows[0] and "available_mean" in rows[0]


def test_memtable_text(capsys):
    assert run_cli("memtable", "--flag-inconsistent") == 0
    text = capsys.readouterr().out
    assert "21.88" in text and "147.31" in text and "1003.12" in text
    assert "1085.67*" in text and "2175.49*" in text


def test_memtable_json(capsys):
    assert run_cli("memtable", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 6
    assert payload["layer_count"] == 1
    assert run_cli("memtable", "--layers", "28", "--format", "json") == 0
    stacked = json.loads(capsys.readouterr().out)
    assert stacked["layer_count"] == 28
    for one, many in zip(payload["rows"], stacked["rows"], strict=True):
        for cell in ("kv_cache_bytes", "prefill_attn_bytes", "decode_attn_bytes"):
            assert many[cell] == 28 * one[cell]


def test_memtable_csv_to_file(tmp_path):
    out = tmp_path / "mem.csv"
    assert run_cli("memtable", "--format", "csv", "--out", str(out)) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 6
    assert rows[0]["kv_cache_mb"] == "32.40"


def test_memtable_custom_row(capsys):
    assert run_cli("memtable", "--row", "1000,1,500,custom", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert {r["group"] for r in payload["rows"]} == {"custom"}
    assert payload["flagged_cells"] == []
    assert run_cli("memtable", "--row", "1000,1,500,custom", "--row", "2000,2,500") == 0
    text = capsys.readouterr().out
    assert "custom: savings vs dense  kv 50.1%" in text
    assert "L2000: savings vs dense  kv 49.9%" in text


@pytest.mark.parametrize("rows, label", [
    (["1000,1,500,x", "2000,1,500,x"], "'x'"),
    (["1000,1,500", "1000,1,400"], "'L1000'"),
    (["1000,1,500,"], "'1000,1,500,'"),
], ids=["repeated", "repeated-default", "empty"])
def test_memtable_refuses_a_repeated_or_empty_label(capsys, rows, label):
    assert run_cli("memtable", *(arg for row in rows for arg in ("--row", row))) == 2
    err = capsys.readouterr().err
    assert label in err and ("given twice" in err or "empty label" in err)


def test_memtable_bad_row():
    assert run_cli("memtable", "--row", "badrow") == 2


def test_memtable_custom_row_widths(capsys):
    assert run_cli("memtable", "--row", "1000,1,500", "--d-q", "64", "--d-kv", "512",
                   "--bytes-per-element", "1", "--format", "json") == 0
    dense = json.loads(capsys.readouterr().out)["rows"][0]
    assert dense["kv_cache_bytes"] == 1000 * 2 * 512
    assert dense["decode_attn_bytes"] == 2 * 1000 * 512 + 1000 + 2 * 64


@pytest.mark.parametrize("flag", ["--d-q", "--d-kv", "--bytes-per-element"])
def test_memtable_width_flags_need_rows(capsys, flag):
    assert run_cli("memtable", flag, "4") == 2
    assert "apply only to --row rows" in capsys.readouterr().err


def test_zero_norm_chunk_document_runs(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text(" ".join([f"w{i}" for i in range(800)] + ["z6", "z54"]))
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(doc), "--query", "summarize the text",
                   "--max-new-tokens", "4", "--out-dir", str(out)) == 0
    report = read_report(out / "doc-apce-s0.json")
    assert report["selection"]["scores"][1] == [1, 0.0]


def package_env():
    """The environment of a subprocess that imports this checkout's apce."""
    src = Path(apce.cli.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_run_needs_no_jsonschema(corpus, tmp_path):
    corpus_path, conf = corpus
    env = package_env()
    blocked = ("import sys; sys.modules['jsonschema'] = None; "
               "from apce.cli import main; sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "out"
    result = subprocess.run([sys.executable, "-c", blocked, "run", "--input", str(corpus_path),
                             "--config", str(conf), "--out-dir", str(out)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    read_report(out / "r1-apce-s0.json")


@pytest.mark.parametrize("query", ["Summarize the document." + " " * 120, "z6 z54", ""],
                         ids=["blank-tail", "cancelling-tail", "empty"])
def test_unusable_query_tail_exits_2_naming_the_tail_and_its_key(tmp_path, capsys, query):
    """A tail with no token, one whose signed hashes cancel (under the
    default vocabulary and embedding width) and an empty query give one message."""
    doc = tmp_path / "doc.txt"
    doc.write_text("some plain document " * 20)
    assert run_cli("run", "--input", str(doc), "--query", query, "--out-dir", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (f"error: query tail {query[-100:]!r}, the last query.tail_chars = 100 "
                                       "characters of the query, holds no token or embeds to the zero vector\n")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_standard_output_exits_0_quietly(unbuffered):
    """The reader of standard output closed it before the table was written:
    exit 0 with nothing on standard error, whether the write fails at once
    (PYTHONUNBUFFERED) or at the flush."""
    env = {key: value for key, value in package_env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "apce.cli", "memtable"], stdout=write,
                                stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (0, "")


BLAS_THREADS = """
import ctypes, sys
from apce.cli import _openblas, main

threads = getattr(_openblas(), "scipy_openblas_get_num_threads64_", None)
if threads is None:
    print("missing")
    sys.exit(0)
threads.argtypes, threads.restype = [], ctypes.c_int
before = threads()
code = main(sys.argv[1:])
print(before, threads(), code)
"""


@pytest.mark.parametrize("count", [None, "2"], ids=["unset", "OPENBLAS_NUM_THREADS=2"])
def test_apce_runs_blas_on_one_thread_unless_the_environment_sets_a_count(corpus, tmp_path, count):
    """After ``apce run``, numpy's OpenBLAS reports one thread; a count the
    environment sets is kept."""
    corpus_path, conf = corpus
    env = {key: value for key, value in package_env().items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if count:
        env["OPENBLAS_NUM_THREADS"] = count
    result = subprocess.run([sys.executable, "-c", BLAS_THREADS, "run", "--input", str(corpus_path),
                             "--config", str(conf), "--max-new-tokens", "2", "--out-dir", str(tmp_path / "out")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    last = result.stdout.splitlines()[-1]
    if last == "missing":
        pytest.skip("numpy's OpenBLAS or its thread call is missing")
    before, after, code = (int(x) for x in last.split())
    assert code == 0
    if count:
        assert after == before  # the environment's count, capped by OpenBLAS at the cores it sees
        if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
            assert after == 2
    else:
        assert after == 1


def config_value(value):
    """``value`` as config-file text."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


HUGE = sys.float_info.max / 2  # a latency that the virtual clock can add only once
LATENCIES = ("load.per_chunk_latency", "load.decode_latency", "load.compute_seconds_per_element")
VECTORS = "vectors.jsonl"  # the generated vectors file, in the example's directory


@st.composite
def cli_inputs(draw):
    """Random Unicode records, a config file and a command. The config sets
    every key of ``KEY_SPECS`` inside ``validate``'s domain (a tiny model, at
    most 4 new tokens, latencies of at most a million seconds, hashed
    embeddings or the generated ``VECTORS`` file), or one key just outside
    it; in half of the examples one latency is ``HUGE`` instead, which two
    chunk arrivals, two decode steps or two score elements overflow. The
    command is ``run`` on a JSONL corpus or on plain text with ``--query``,
    or ``sweep`` of a random axis over one or two values from 0 (outside
    every axis's domain) to 6. Returns (records, config lines, the key
    outside its domain or None, plain text or not, the sweep's axis and
    values or None)."""
    kv_heads, group, d_head = draw(st.integers(1, 2)), draw(st.integers(1, 2)), 2 * draw(st.integers(1, 4))
    rule = draw(st.sampled_from(["max_chunks", "fraction", "neither"]))
    provider = draw(st.sampled_from(["hash", "file"]))
    huge = draw(st.sampled_from([None] * len(LATENCIES) + list(LATENCIES)))
    finite = dict(allow_nan=False, allow_infinity=False)
    inside = {
        "mode": st.sampled_from(["dense", "apce"]), "seed": st.integers(0, 2 ** 64),
        "chunk.size": st.integers(1, 12),
        "select.max_chunks": st.integers(1, 8) if rule == "max_chunks" else st.none(),
        "select.fraction": st.floats(0, 1, exclude_min=True) if rule == "fraction" else st.none(),
        "reprioritization.enabled": st.booleans(), "reprioritization.interval": st.integers(1, 4),
        "reprioritization.recompute": st.booleans(),
        "query.tail_chars": st.integers(1, 120), "query.recent_tokens": st.integers(1, 60),
        "query.alpha": st.floats(0, 1), "embedding.dim": st.integers(1, 64),
        "embedding.provider": st.just(provider),
        "embedding.file": st.just(VECTORS) if provider == "file" else st.none() | st.just("unread.jsonl"),
        "tokenizer.vocab_size": st.integers(1, 512), "generation.max_new_tokens": st.integers(1, 4),
        "load.per_chunk_latency": st.floats(0, 1e6), "load.async_start_chunks": st.integers(1, 8),
        "load.decode_latency": st.floats(0, 1e6), "load.compute_seconds_per_element": st.floats(0, 1e3),
        "model.n_layers": st.integers(1, 2), "model.n_heads": st.just(kv_heads * group),
        "model.d_model": st.just(kv_heads * group * d_head), "model.d_head": st.just(d_head),
        "model.d_kv_total": st.just(kv_heads * d_head),
        "model.rope_theta": st.floats(0, exclude_min=True, **finite),
        "model.max_position": st.integers(512, 65536),  # above any document drawn below
    }
    assert inside.keys() == KEY_SPECS.keys()
    values = {key: config_value(HUGE if key == huge else draw(inside[key])) for key in KEY_SPECS}
    below_zero, above_one = repr(math.nextafter(0.0, -1.0)), repr(math.nextafter(1.0, 2.0))
    outside = {
        "mode": "sparse", "seed": "-1", "chunk.size": "0", "select.max_chunks": "0",
        "select.fraction": st.sampled_from(["0.0", above_one]), "reprioritization.enabled": "maybe",
        "reprioritization.interval": "0", "reprioritization.recompute": "maybe",
        "query.tail_chars": "0", "query.recent_tokens": "0", "query.alpha": st.sampled_from([below_zero, above_one]),
        "embedding.dim": "0", "embedding.provider": "bert", "embedding.file": "none",
        "tokenizer.vocab_size": "0", "generation.max_new_tokens": "0",
        "load.per_chunk_latency": st.sampled_from([below_zero, "inf", "nan"]), "load.async_start_chunks": "0",
        "load.decode_latency": st.sampled_from([below_zero, "inf", "nan"]),
        "load.compute_seconds_per_element": st.sampled_from([below_zero, "inf", "nan"]),
        "model.n_layers": "0", "model.n_heads": "0", "model.d_model": str(kv_heads * group * d_head + d_head),
        "model.d_head": str(d_head + 1), "model.d_kv_total": str(kv_heads * d_head + 1),
        "model.rope_theta": st.sampled_from(["0.0", "inf", "nan"]), "model.max_position": "0",
    }
    assert outside.keys() == KEY_SPECS.keys()
    broken = draw(st.none() | st.sampled_from(sorted(KEY_SPECS))) if draw(st.booleans()) else None
    if broken is not None:
        value = outside[broken]
        values[broken] = value if isinstance(value, str) else draw(value)
        if broken == "embedding.file":  # no file is outside the domain of the file provider only
            values["embedding.provider"] = "file"
    texts = st.text(max_size=100)
    records = [{"id": f"r{i}", "text": draw(texts) + " word", "query": draw(texts),
                "reference": draw(st.none() | texts)} for i in range(draw(st.integers(1, 2)))]
    plain = draw(st.booleans())
    if plain:  # one document, its query given by --query
        records = records[:1]
    sweep = None
    if draw(st.booleans()):
        sweep = draw(st.sampled_from(sorted(SWEEP_AXES))), draw(st.lists(st.integers(0, 6), min_size=1, max_size=2))
    return records, [f"{key} = {value}" for key, value in values.items()], broken, plain, sweep


def unusable_tail(query, config):
    """The query tail ``config`` makes of ``query`` if it holds no token or
    embeds to zero (exit 2), else None."""
    tail = query[-int(config["query.tail_chars"]):]
    tokens = tokenize(tail, int(config["tokenizer.vocab_size"]))
    usable = tokens and HashingEmbedder(int(config["embedding.dim"])).embed_tokens(tokens).any()
    return None if usable else tail


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cli_inputs())
def test_generated_configs_and_records_exit_as_the_readme_says(inputs):
    """A config inside ``validate``'s domain runs to a report that passes the
    schema and the count laws, or a sweep to its CSV and JSON, unless a
    query tail is unusable (exit 2, naming it) or a sweep value is outside
    its key's domain (exit 2, naming the key), whichever comes first, or the
    virtual clock overflows (exit 2, naming the load.* keys). One key outside
    its domain exits 2, naming the key. Nothing exits 4, and nothing is
    written on exit 2."""
    records, lines, broken, plain, sweep = inputs
    config = dict(line.split(" = ", 1) for line in lines)
    event("sweep" if sweep else "run")
    event("plain text" if plain else "JSONL")
    event(f"embedding.provider = {config['embedding.provider']}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if plain:
            source = tmp / "doc.txt"
            source.write_text(records[0]["text"], encoding="utf-8")
            records[0]["text"] = source.read_text(encoding="utf-8")  # newlines as the program reads them
            argv = ["--input", str(source), f"--query={records[0]['query']}"]
        else:
            source = tmp / "corpus.jsonl"
            source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            argv = ["--input", str(source)]
        if config["embedding.file"] == VECTORS:
            lines = [f"embedding.file = {tmp / VECTORS}" if line.startswith("embedding.file") else line
                     for line in lines]
            rows = max(len(tokenize(r["text"])) for r in records)  # at least one per chunk at any size
            vectors = np.random.default_rng(len(lines)).standard_normal((rows, int(config["embedding.dim"])))
            (tmp / VECTORS).write_text("".join(json.dumps({"chunk_index": i, "vector": v.tolist()}) + "\n"
                                               for i, v in enumerate(vectors)), encoding="utf-8")
        (tmp / "run.conf").write_text("\n".join(lines) + "\n", encoding="utf-8")
        command = ["run"]
        if sweep is not None:
            command = ["sweep", f"--axis={sweep[0]}", f"--values={','.join(map(str, sweep[1]))}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, *argv, "--config", str(tmp / "run.conf"), "--out-dir", str(tmp / "out")])
        written = {path.name: path.read_text(encoding="utf-8") for path in tmp.glob("out/*")}
    err = err.getvalue()
    if broken is not None:
        event("a key outside its domain")
        assert (code, written) == (2, {}), (broken, err)
        assert broken in err, broken
        return
    if code == 2 and err.startswith(("error: the virtual clock overflowed", "error: sweep column ")):
        event("the virtual clock overflowed")
        assert HUGE in {float(config[key]) for key in LATENCIES}, err
        assert written == {}, err
        assert all(key in err for key in LATENCIES), err
        return
    axis, values = sweep or (None, [None])
    for value in values:  # the runs in the order they are made, each over every record a sweep reads
        if value == 0:
            event("a sweep value outside its key's domain")
            assert (code, written) == (2, {}), err
            assert err.startswith(f"error: {SWEEP_AXES[axis]} must be >= 1"), err
            return
        for record in records if sweep else records[:1]:
            tail = unusable_tail(record["query"], config)
            if tail is not None:
                event("an unusable query tail")
                assert (code, written) == (2, {}), err
                assert err.startswith(f"error: query tail {tail!r}, the last query.tail_chars"), err
                return
    assert code == 0, err
    event("exit 0")
    if sweep:
        assert sorted(written) == [f"sweep_{axis}.csv", f"sweep_{axis}.json"]
        summary = json.loads(written[f"sweep_{axis}.json"])
        assert [row["value"] for row in summary["aggregates"]] == values
        assert all(row["runs"] == len(records) for row in summary["aggregates"])
        assert len(summary["per_run"]) == len(values) * len(records)
        return
    report_file, = (name for name in written if name.endswith(".json"))
    assert sorted(written) == [report_file, "runs.csv"]
    report = json.loads(written[report_file])
    jsonschema.validate(report, REPORT_SCHEMA)
    assert len(report["tokens"]) == int(config["generation.max_new_tokens"])
    size, doc_tokens = int(config["chunk.size"]), report["document"]["tokens"]
    resident = sum(min(size, doc_tokens - i * size) for i in report["selection"]["initial"])
    assert report["counters"]["prefill_elements"] == resident * resident
    assert report["replacement_stats"]["taken"] <= report["replacement_stats"]["available"]


# each way to break a line of VECTORS: the line, given the vectors' dimension, and the complaint it
# draws. It follows the line that holds chunk 0, and names chunk -1, which no document has, or chunk 0 again.
BROKEN_VECTOR_LINES = {
    "invalid JSON": (lambda dim: '{"chunk_index": -1, "vector": [', "invalid JSON ("),
    "not an object": (lambda dim: json.dumps([-1, [1.0] * dim]), "a line must be a JSON object"),
    "no vector": (lambda dim: json.dumps({"chunk_index": -1}), "needs 'chunk_index' and 'vector'"),
    "index not an integer": (lambda dim: json.dumps({"chunk_index": "-1", "vector": [1.0] * dim}),
                             "chunk_index must be an integer"),
    "index repeated": (lambda dim: json.dumps({"chunk_index": 0, "vector": [1.0] * dim}), "duplicate chunk_index 0"),
    "not numbers": (lambda dim: json.dumps({"chunk_index": -1, "vector": [True] * dim}),
                    "vector must be a list of numbers"),
    "past the float range": (lambda dim: json.dumps({"chunk_index": -1, "vector": [10 ** 400] + [1.0] * (dim - 1)}),
                             "non-finite entry in vector"),
    "a wrong dimension": (lambda dim: json.dumps({"chunk_index": -1, "vector": [1.0] * (dim + 1)}),
                          "dimension mismatch"),
    "not finite": (lambda dim: json.dumps({"chunk_index": -1, "vector": [float("nan")] * dim}),
                   "non-finite entry in vector"),
    "zero": (lambda dim: json.dumps({"chunk_index": -1, "vector": [0] * dim}), "zero vector cannot be normalized"),
}


@pytest.mark.parametrize("fault", sorted(BROKEN_VECTOR_LINES))
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 8), before=st.integers(1, 4), after=st.integers(0, 4), blanks=st.integers(0, 2),
       sweep=st.booleans())
def test_each_broken_vectors_line_exits_2_naming_the_path_and_the_line(fault, dim, before, after, blanks, sweep):
    """Sound lines for chunks 0 to before + after - 1, after ``blanks``
    blank lines, with one broken line after the first ``before`` of them:
    ``run`` or ``sweep`` exits 2 at its first session, naming the file and
    the broken line's number, and writes nothing."""
    line, complaint = BROKEN_VECTOR_LINES[fault]
    sound = [json.dumps({"chunk_index": i, "vector": [1.0] * dim}) for i in range(before + after)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        vectors, corpus, conf = tmp / VECTORS, tmp / "corpus.jsonl", tmp / "run.conf"
        vectors.write_text("\n" * blanks + "".join(f"{text}\n" for text in (*sound[:before], line(dim),
                                                                           *sound[before:])))
        corpus.write_text(json.dumps({"id": "r", "text": "one two three", "query": "q"}) + "\n")
        conf.write_text(f"embedding.provider = file\nembedding.file = {vectors}\nembedding.dim = {dim}\n")
        command = ["sweep", "--axis=chunk_size", "--values=1,2"] if sweep else ["run"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, "--input", str(corpus), "--config", str(conf), "--out-dir", str(tmp / "out")])
        assert (code, (tmp / "out").exists()) == (2, False), err.getvalue()
    assert err.getvalue().startswith(f"error: {vectors}: line {blanks + before + 1}: {complaint}"), err.getvalue()


HUGE_ROW, HUGE_LAYERS = 10 ** 200, 10 ** 400  # an L whose L^2, and a layer count whose every cell, no float holds
PRESET_GROUPS = ["8k", "20k", "30k"]


@st.composite
def memtable_inputs(draw):
    """Random ``memtable`` options: zero to three sound ``--row`` groups
    (sizes from 1 up, k * m <= L, a printable Unicode label or the default
    one), each width flag or not, ``--layers`` or not,
    ``--flag-inconsistent`` or not, and ``--out`` to a new file or none. In
    most examples one of them is then broken: a row's size below 1,
    k * m above L, a label that is empty, not printable or given twice, a
    comma too many or random text for a row; width flags without rows, a
    width or ``--layers`` below 1; ``HUGE_ROW`` or ``HUGE_LAYERS``; or
    ``--out`` to a directory that is there."""
    label = st.text(st.characters(exclude_categories=("C", "Z"), exclude_characters=",", include_characters=" "),
                    min_size=1, max_size=4)

    def row(seq_len=None, k=None, m=None, name=None):
        k, m = k if k is not None else draw(st.integers(1, 30)), m if m is not None else draw(st.integers(1, 800))
        seq_len = seq_len if seq_len is not None else k * m + draw(st.integers(0, 10 ** 5))
        name = name if name is not None else draw(st.none() | label)
        return f"{seq_len},{k},{m}" + ("" if name is None else f",{name}")

    options = {
        "rows": [row() for _ in range(draw(st.integers(0, 3)))],
        "widths": {flag: draw(st.integers(1, 4096)) for flag in ("--d-q", "--d-kv", "--bytes-per-element")
                   if draw(st.booleans())},
        "layers": draw(st.none() | st.integers(1, 100)),
        "flag_inconsistent": draw(st.booleans()),
        "out": draw(st.sampled_from([None, "file"])),
    }
    if not options["rows"]:
        options["widths"] = {}
    broken_rows = {
        "size below 1": lambda: [row(**{draw(st.sampled_from(["seq_len", "k", "m"])): draw(st.integers(-1, 0))})],
        "k * m above L": lambda: [row(seq_len=draw(st.integers(1, 10 ** 4)), k=10 ** 4, m=2)],
        "empty label": lambda: [row(name="")],
        "label not printable": lambda: [row(name=draw(st.sampled_from(["a\nb", "\t", "\x00", "\u2028", "\xa0"])))],
        "label given twice": lambda: [row(name="same"), row(name="same")],
        "a comma too many": lambda: [row(name="a,b")],
        "random text": lambda: [draw(st.text(st.sampled_from("0123456789,-x _"), max_size=10))],
        "HUGE_ROW": lambda: [row(seq_len=HUGE_ROW)],
    }
    fault = draw(st.sampled_from([None, *broken_rows, "widths without rows", "width below 1", "layers below 1",
                                  "HUGE_LAYERS", "--out a directory"]))
    if fault in broken_rows:
        at = draw(st.integers(0, len(options["rows"])))
        options["rows"][at:at] = broken_rows[fault]()
    elif fault == "widths without rows":
        options["rows"], options["widths"] = [], {"--d-q": draw(st.integers(1, 4096))}
    elif fault == "width below 1":
        options["widths"][draw(st.sampled_from(["--d-q", "--d-kv", "--bytes-per-element"]))] = draw(st.integers(-1, 0))
    elif fault == "layers below 1":
        options["layers"] = draw(st.integers(-1, 0))
    elif fault == "HUGE_LAYERS":
        options["layers"] = HUGE_LAYERS
    elif fault == "--out a directory":
        options["out"] = "directory"
    return options


def memtable_outcome(options):
    """The groups ``memtable`` prints for ``options``, in order, and the
    flags at fault: exit 2 names one of them, and without any it exits 0."""
    groups, faults, overflows = [], set(), options["layers"] == HUGE_LAYERS
    for raw in options["rows"]:
        parts = raw.split(",")
        try:
            seq_len, k, m = (int(part) for part in parts[:3])
        except ValueError:
            faults.add("--row")
            continue
        label = parts[3] if len(parts) == 4 else f"L{seq_len}"
        if len(parts) > 4 or min(seq_len, k, m) < 1 or k * m > seq_len or not label or not label.isprintable() \
                or label in groups:
            faults.add("--row")
            continue
        groups.append(label)
        overflows |= seq_len == HUGE_ROW
    faults |= {flag for flag, width in options["widths"].items() if width < 1 or not options["rows"]}
    if options["layers"] is not None and options["layers"] < 1:
        faults.add("--layers")
    if options["out"] == "directory":
        faults.add("--out")
    if overflows:
        faults |= {"--row", "--layers"}
    return groups or PRESET_GROUPS, faults


@pytest.mark.parametrize("format_", [None, "text", "csv", "json"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(options=memtable_inputs())
def test_generated_memtable_options_exit_as_the_readme_says(format_, options):
    """Options that ``memtable_outcome`` finds no fault in exit 0 with a
    dense and a selected row for each group, in the format given or the
    default text, on standard output or in the ``--out`` file; else exit 2,
    naming a flag at fault, and nothing is written. Nothing exits 4."""
    options["format"] = format_
    groups, faults = memtable_outcome(options)
    argv = ["memtable", *(f"--row={raw}" for raw in options["rows"]),
            *(f"{flag}={width}" for flag, width in options["widths"].items())]
    argv += [f"--layers={options['layers']}"] * (options["layers"] is not None)
    argv += [f"--format={options['format']}"] * (options["format"] is not None)
    argv += ["--flag-inconsistent"] * options["flag_inconsistent"]
    with tempfile.TemporaryDirectory() as tmp:
        out = {None: None, "file": Path(tmp) / "new" / "table.out", "directory": Path(tmp)}[options["out"]]
        argv += [f"--out={out}"] * (out is not None)
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = main(argv)
        written = out.read_text(encoding="utf-8") if options["out"] == "file" and out.exists() else None
    err = err.getvalue()
    if faults:
        event(f"exit 2 at {' or '.join(sorted(faults))}")
        assert (code, written) == (2, None), err
        assert any(flag in err for flag in faults), (faults, err)
        return
    event(f"exit 0, {options['format'] or 'text'}")
    assert code == 0, err
    if out is not None:
        assert stdout.getvalue() == f"{out}\n"
        output = written
    else:
        output = stdout.getvalue()
    pairs = [(group, method) for group in groups for method in ("dense", "selected")]
    if options["format"] == "json":
        payload = json.loads(output)
        assert [(row["group"], row["method"]) for row in payload["rows"]] == pairs
        assert payload["layer_count"] == (options["layers"] or 1)
    elif options["format"] == "csv":
        assert [(row["group"], row["method"]) for row in csv.DictReader(io.StringIO(output))] == pairs
    else:
        lines = output.split("\n")
        assert len(lines) >= 3 + len(pairs) + len(groups)
        assert all(line.startswith(f"{group:<8}{method:<10}") for line, (group, method) in zip(lines[2:], pairs))
        assert lines[2 + len(pairs)] == ""
        savings = lines[3 + len(pairs):]
        assert all(line.startswith(f"{group}: savings vs dense ") for line, group in zip(savings, groups))
