import csv
import json

import jsonschema
import pytest

import apce.cli
from apce.cli import REPORT_SCHEMA, main
from apce.model import DecoderModel
from apce.textpipe import tokenize

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


def test_run_writes_valid_report_and_csv(corpus, tmp_path, capsys):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    code = run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--seed", "5")
    assert code == 0
    report_path = out / "r1-apce-s5.json"
    assert report_path.exists()
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
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
    assert (out / "r2-apce-s0.json").exists()


def test_dense_run_has_empty_replacement_log(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--mode", "dense") == 0
    report = json.loads((out / "r1-dense-s0.json").read_text())
    assert report["replacement_log"] == []
    assert report["replacement_stats"] == {"taken": 0, "available": 0}


def test_apce_with_all_chunks_matches_dense_output(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    common = ["--input", str(corpus_path), "--config", str(conf), "--out-dir", str(out),
              "--no-reprioritization", "--async-start", "100"]
    assert run_cli("run", *common, "--mode", "dense") == 0
    assert run_cli("run", *common, "--mode", "apce", "--max-chunks", "10") == 0
    dense = json.loads((out / "r1-dense-s0.json").read_text())
    apce = json.loads((out / "r1-apce-s0.json").read_text())
    assert apce["tokens"] == dense["tokens"]


def test_replay_determinism_outside_timestamps(corpus, tmp_path):
    corpus_path, conf = corpus
    reports = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                       "--out-dir", str(out), "--seed", "7") == 0
        payload = json.loads((out / "r1-apce-s7.json").read_text())
        payload.pop("timestamps")
        reports.append(json.dumps(payload, sort_keys=True))
    assert reports[0] == reports[1]


def test_report_timestamps_hold_the_session_wall_time(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--seed", "7") == 0
    report = json.loads((out / "r1-apce-s7.json").read_text())
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
    bad.write_text("reprioritization.interval = never\n")
    assert run_cli("run", "--input", str(corpus_path), "--config", str(bad)) == 2


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
    report = json.loads((run_out / "r1-apce-s0.json").read_text())
    sweep_row = [r for r in payload["per_run"] if r["run_id"] == "r1-apce-s0"][0]
    assert sweep_row["ttft"] == report["trace"]["ttft"]
    assert sweep_row["total_time"] == report["trace"]["total_time"]


def test_ablate_shape(corpus, tmp_path):
    corpus_path, conf = corpus
    out = tmp_path / "out"
    code = run_cli("ablate", "--input", str(corpus_path), "--config", str(conf),
                   "--out-dir", str(out), "--intervals", "1,5,10,25,50,100,200")
    assert code == 0
    with open(out / "ablation_interval.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["1", "5", "10", "25", "50", "100", "200"]
    for row in rows:
        assert "taken_mean" in row and "available_mean" in row


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


def test_zero_norm_chunk_document_runs(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text(" ".join([f"w{i}" for i in range(800)] + ["z6", "z54"]))
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(doc), "--query", "summarize the text",
                   "--max-new-tokens", "4", "--out-dir", str(out)) == 0
    report = json.loads((out / "doc-apce-s0.json").read_text())
    assert report["selection"]["scores"][1] == [1, 0.0]
