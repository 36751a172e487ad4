import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import apce.cli
from apce.cli import main
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


def test_missing_input_exit_code(tmp_path):
    assert run_cli("run", "--input", str(tmp_path / "nope.jsonl")) == 3


def test_missing_record_exit_code(corpus, tmp_path):
    corpus_path, conf = corpus
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--record-id", "ghost", "--out-dir", str(tmp_path / "o")) == 3


def test_bad_config_exit_code(corpus, tmp_path):
    corpus_path, _ = corpus
    bad = tmp_path / "bad.conf"
    # a window below 1 would slice as tokens[-0:] (every token) or drop a head
    for line in ("reprioritization.interval = never", "query.recent_tokens = 0",
                 "query.recent_tokens = -3", "query.tail_chars = 0", "query.tail_chars = -3"):
        bad.write_text(line + "\n")
        assert run_cli("run", "--input", str(corpus_path), "--config", str(bad),
                       "--out-dir", str(tmp_path / "o")) == 2, line
    assert not (tmp_path / "o").exists()


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


def test_run_needs_no_jsonschema(corpus, tmp_path):
    corpus_path, conf = corpus
    src = Path(apce.cli.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    blocked = ("import sys; sys.modules['jsonschema'] = None; "
               "from apce.cli import main; sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "out"
    result = subprocess.run([sys.executable, "-c", blocked, "run", "--input", str(corpus_path),
                             "--config", str(conf), "--out-dir", str(out)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    read_report(out / "r1-apce-s0.json")
