"""Tests for the benchmark's own code. Run: python -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import outcheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from apce.config import RunConfig  # noqa: E402
from apce.textpipe import chunk, tokenize  # noqa: E402

TINY = RunConfig(chunk_size=10, vocab_size=512, n_layers=2, n_heads=2, d_model=32, d_head=16,
                 d_kv_total=32, embedding_dim=48, max_new_tokens=12, max_chunks=4, interval=3,
                 seed=3)


def tiny_trace():
    import apce.sched as sched

    rng = random.Random(7)
    common, topics = workloads._lexicons(rng)
    doc = workloads._text(rng, 95, 30, common, topics)
    query = workloads._query(rng, topics)
    load = sched.LoadModel(per_chunk_load_latency=0.1, decode_latency=0.01)
    return sched.simulate_generation(doc, query, "apce", load, TINY)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(5) == make(5)
    assert make(5) != make(6)


@pytest.mark.parametrize("name, n_chunks", [
    ("prefill-dense", 6), ("apce-reprior", 13), ("decode-long", 8),
])
def test_session_documents_keep_their_chunk_count(name, n_chunks):
    for seed in range(3):
        for session in workloads.WORKLOADS[name](seed):
            seq = tokenize(session.doc)
            assert len(chunk(seq, session.config["chunk_size"])) == n_chunks


def test_corpus_records_have_seven_chunks_and_references():
    import json

    for corpus in workloads.corpus_sweep(0):
        for line in corpus.lines:
            record = json.loads(line)
            assert record["reference"]
            assert len(chunk(tokenize(record["text"]), corpus.chunk_size)) == 7


def test_output_check_accepts_a_real_trace():
    trace = tiny_trace()
    assert outcheck.law_violations(trace, TINY.chunk_size, TINY.max_new_tokens) == []


def test_output_check_rejects_corrupted_traces():
    trace = tiny_trace()
    good = outcheck.digest([outcheck.session_summary(trace)])
    table = outcheck.DigestTable({"w": {"0": [good]}})
    assert table.mismatch("w", 0, 0, good) is None

    short = dataclasses.replace(trace, tokens=trace.tokens[:-1])
    assert outcheck.law_violations(short, TINY.chunk_size, TINY.max_new_tokens)
    counters = dict(trace.counters, prefill_elements=trace.counters["prefill_elements"] + 1)
    miscounted = dataclasses.replace(trace, counters=counters)
    assert outcheck.law_violations(miscounted, TINY.chunk_size, TINY.max_new_tokens)
    stats = dataclasses.replace(trace.replacement_stats, taken=trace.replacement_stats.available + 1)
    overtaken = dataclasses.replace(trace, replacement_stats=stats)
    assert outcheck.law_violations(overtaken, TINY.chunk_size, TINY.max_new_tokens)

    flipped = list(trace.tokens)
    flipped[0] += 1
    altered = dataclasses.replace(trace, tokens=flipped)
    assert outcheck.law_violations(altered, TINY.chunk_size, TINY.max_new_tokens) == []
    bad = outcheck.digest([outcheck.session_summary(altered)])
    assert table.mismatch("w", 0, 0, bad)
    retimed = dataclasses.replace(trace, total_time=trace.total_time + 1e-12)
    assert table.mismatch("w", 0, 0, outcheck.digest([outcheck.session_summary(retimed)]))


def _wrapped_attributes():
    import apce.cli as cli
    import apce.reprior as reprior
    import apce.sched as sched
    from apce.embed import EmbeddingStore
    from apce.model import DecoderModel

    owners = [cli, reprior, sched, EmbeddingStore, DecoderModel]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_traced_run_records_spans_and_restores_every_wrapper():
    before = _wrapped_attributes()
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    try:
        assert _wrapped_attributes() != before
        trace = tiny_trace()
    finally:
        recorder.restore()
    after = _wrapped_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    total, own, calls = recorder.layer_times()
    assert len(calls["model.decode_step"]) == TINY.max_new_tokens - 1
    assert recorder.counts["prefill_elements"] == trace.counters["prefill_elements"]
    assert recorder.counts["rebuild_elements"] == trace.counters["rebuild_elements"]
    assert recorder.counts["plans_taken"] == trace.replacement_stats.taken > 0
    assert [s[3] for s in recorder.spans].count(-1) == 1  # everything nests in the session
    direct = sum(end - start for _, start, end, parent, _ in recorder.spans if parent == 0)
    assert own["sched.simulate_generation"] == pytest.approx(
        total["sched.simulate_generation"] - direct / 1e9)


def test_self_time_subtracts_direct_children_only():
    recorder = tracing.SpanRecorder()
    recorder.spans = [
        ["outer", 0, 100, -1, 0],
        ["mid", 10, 60, 0, 0],
        ["leaf", 20, 40, 1, 0],
        ["mid", 70, 80, 0, 0],
    ]
    total, own, _ = recorder.layer_times()
    assert own["outer"] == pytest.approx((100 - 50 - 10) / 1e9)
    assert own["mid"] == pytest.approx((50 - 20 + 10) / 1e9)
    assert total["mid"] == pytest.approx(60 / 1e9)


def test_benchmark_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, "1")
    code = run.main(["--workload", "decode-long", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert "tail_percentile" not in run.tail([1.0] * 19)
    info = run.tail([float(i) for i in range(40)])
    assert info["tail_percentile"] == 75
    assert sum(1 for v in range(40) if v > info["tail_session_s"]) == 10
