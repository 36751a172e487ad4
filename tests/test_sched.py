import dataclasses

import pytest

from apce.config import RunConfig
from apce.sched import (
    GenerationTrace,
    LoadModel,
    simulate_generation,
    timing_summary,
    trace_csv_row,
    trace_events_json,
)

TOY = RunConfig(
    chunk_size=10,
    vocab_size=512,
    n_layers=2,
    n_heads=2,
    d_model=32,
    d_head=16,
    d_kv_total=32,
    embedding_dim=48,
    max_new_tokens=8,
    fraction=0.5,
    interval=5,
    seed=3,
)

DOC = " ".join(f"a{i % 17}b{i % 7} c{i % 5}" for i in range(50))  # 100 tokens, 10 chunks
QUERY = "summarize the a-passages please"


def run(mode, load, config=TOY):
    return simulate_generation(DOC, QUERY, mode, load, config)


def test_closed_form_async_schedule():
    # 10 chunks, 1 s per chunk, decoding free: generation may start after the
    # 4th chunk, so TTFT is 4 s vs 10 s for dense
    load = LoadModel(per_chunk_load_latency=1.0, async_start_chunks=4, decode_latency=0.0)
    assert run("apce", load).ttft == 4.0
    assert run("dense", load).ttft == 10.0


def test_zero_latency_ttft_differs_only_by_prefill_compute():
    sec = 1e-6
    load = LoadModel(per_chunk_load_latency=0.0, async_start_chunks=4,
                     compute_seconds_per_element=sec)
    apce, dense = run("apce", load), run("dense", load)
    k_tokens = apce.k_effective * 10
    assert apce.ttft == pytest.approx(k_tokens**2 * sec)
    assert dense.ttft == pytest.approx(100**2 * sec)


def test_async_start_equal_n_matches_dense_start():
    load_sync = LoadModel(per_chunk_load_latency=0.5, async_start_chunks=10)
    apce = run("apce", load_sync)
    dense = run("dense", load_sync)
    assert apce.ttft == dense.ttft == 5.0


def test_async_start_clamped_with_warning():
    load = LoadModel(per_chunk_load_latency=0.1, async_start_chunks=99)
    trace = run("apce", load)
    warnings = [e for e in trace.events if e.kind == "warning"]
    assert warnings and "clamped" in warnings[0].data["message"]
    assert trace.ttft == pytest.approx(1.0)


@pytest.mark.parametrize("latency,async_start,seed", [
    (0.2, 1, 0), (0.5, 4, 1), (1.5, 9, 2), (0.01, 2, 3),
])
def test_ttft_ordering_property(latency, async_start, seed):
    config = dataclasses.replace(TOY, seed=seed)
    load = LoadModel(per_chunk_load_latency=latency, async_start_chunks=async_start,
                     decode_latency=0.05, compute_seconds_per_element=1e-7)
    apce = simulate_generation(DOC, QUERY, "apce", load, config)
    dense = simulate_generation(DOC, QUERY, "dense", load, config)
    assert apce.ttft < dense.ttft


def test_event_monotonicity_and_conservation():
    load = LoadModel(per_chunk_load_latency=0.3, async_start_chunks=4, decode_latency=0.02)
    trace = run("apce", load)
    times = [e.time for e in trace.events]
    assert times == sorted(times)
    assert trace.total_time == times[-1]
    emitted = [e for e in trace.events if e.kind == "token_emitted"]
    assert len(emitted) == len(trace.tokens) == TOY.max_new_tokens
    assert trace.ttft == emitted[0].time


def test_dense_equivalence_token_for_token():
    config = dataclasses.replace(TOY, fraction=None, max_chunks=10,
                                 reprioritization_enabled=False)
    load = LoadModel(per_chunk_load_latency=0.0, async_start_chunks=10)
    apce = simulate_generation(DOC, QUERY, "apce", load, config)
    dense = simulate_generation(DOC, QUERY, "dense", load, config)
    assert apce.k_effective == dense.n_chunks
    assert apce.tokens == dense.tokens


def test_trace_deterministic_replay():
    load = LoadModel(per_chunk_load_latency=0.2, async_start_chunks=3, decode_latency=0.01)
    a, b = run("apce", load), run("apce", load)
    assert a.tokens == b.tokens
    assert [(e.time, e.kind, e.data) for e in a.events] == \
           [(e.time, e.kind, e.data) for e in b.events]


def test_dense_has_no_replacements():
    load = LoadModel(per_chunk_load_latency=0.1, async_start_chunks=4)
    trace = run("dense", load)
    assert trace.replacement_stats.events == []
    assert trace.replacement_stats.taken == trace.replacement_stats.available == 0
    assert all(e.kind != "reprioritization" for e in trace.events)


def test_late_arrivals_join_pool_at_boundaries():
    # slow loading: at the first boundary only a prefix of chunks has arrived
    config = dataclasses.replace(TOY, interval=2, max_new_tokens=12, fraction=0.8)
    load = LoadModel(per_chunk_load_latency=0.6, async_start_chunks=2, decode_latency=0.1)
    trace = simulate_generation(DOC, QUERY, "apce", load, config)
    pools = [e.data["pool_size"] for e in trace.events if e.kind == "reprioritization"]
    assert pools, "boundaries must fire"
    assert pools == sorted(pools)  # the candidate pool only grows
    assert pools[0] < trace.n_chunks  # strictly partial at the first boundary


def test_taken_le_available_over_run():
    config = dataclasses.replace(TOY, interval=1, max_new_tokens=20)
    load = LoadModel(per_chunk_load_latency=0.05, async_start_chunks=2)
    trace = simulate_generation(DOC, QUERY, "apce", load, config)
    assert trace.replacement_stats.taken <= trace.replacement_stats.available


def test_counters_present_in_trace():
    load = LoadModel()
    trace = run("apce", load)
    assert trace.counters["prefill_elements"] == (trace.k_effective * 10) ** 2
    assert trace.counters["decode_elements"] > 0


def test_timing_summary_examples():
    def fake(ttft, total):
        return GenerationTrace(mode="apce", events=[], ttft=ttft, total_time=total,
                               tokens=[], n_chunks=0, doc_tokens=0, k_effective=0,
                               initial_selection=[], initial_scores=[],
                               replacement_stats=None, counters={}, wall_seconds=0.0)

    single = timing_summary([fake(2.0, 5.0)])
    assert single.ttft_std == 0.0
    pair = timing_summary([fake(2.0, 6.0), fake(4.0, 8.0)])
    assert pair.ttft_formatted == "3.0000±1.0000"
    assert pair.total_formatted == "7.0000±1.0000"
    same = timing_summary([fake(1.5, 2.5)] * 3)
    assert same.ttft_mean == 1.5
    with pytest.raises(ValueError):
        timing_summary([])


def test_trace_exports():
    load = LoadModel(per_chunk_load_latency=0.1, async_start_chunks=4)
    trace = run("apce", load)
    events = trace_events_json(trace)
    assert all(set(e) == {"time", "kind", "data"} for e in events)
    row = trace_csv_row("run-1", trace)
    assert row.startswith("run-1,apce,")
    assert row.endswith(f",{TOY.max_new_tokens}")


def test_file_embedding_provider(tmp_path):
    import json

    import numpy as np

    from apce.embed import HashingEmbedder, embed_query_text
    from apce.select import cosine

    rng = np.random.default_rng(0)
    vectors = {i: rng.normal(size=48).tolist() for i in range(10)}
    path = tmp_path / "emb.jsonl"
    path.write_text("\n".join(
        json.dumps({"chunk_index": i, "vector": v}) for i, v in vectors.items()) + "\n")

    config = dataclasses.replace(TOY, embedding_provider="file", embedding_file=str(path))
    trace = run("apce", LoadModel(async_start_chunks=100), config)
    # initial scores must come from the file vectors, not hashed chunk bags
    query = embed_query_text(QUERY[-config.tail_chars:], HashingEmbedder(48),
                             vocab_size=config.vocab_size)
    for idx, score in trace.initial_scores:
        assert score == pytest.approx(cosine(query, np.asarray(vectors[idx])), abs=1e-12)

    missing = tmp_path / "missing.jsonl"
    missing.write_text(json.dumps({"chunk_index": 0, "vector": vectors[0]}) + "\n")
    bad = dataclasses.replace(config, embedding_file=str(missing))
    with pytest.raises(ValueError, match="lacks vectors"):
        run("apce", LoadModel(async_start_chunks=100), bad)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        run("hybrid", LoadModel())


def test_empty_document_rejected():
    with pytest.raises(ValueError):
        simulate_generation("   ", QUERY, "dense", LoadModel(), TOY)


# The tail chunk "z6 z54" embeds to the zero vector under the default
# embedding: the two tokens' signed hashes land on one coordinate and cancel.
ZERO_TAIL_DOC = " ".join([f"w{i}" for i in range(800)] + ["z6", "z54"])


@pytest.mark.parametrize("reprioritizing", [False, True])
def test_zero_norm_chunk_scores_zero_and_ranks_last(reprioritizing):
    config = RunConfig(max_new_tokens=6, interval=2, reprioritization_enabled=reprioritizing)
    trace = simulate_generation(ZERO_TAIL_DOC, "summarize the text", "apce",
                                LoadModel(async_start_chunks=2), config)
    scores = dict(trace.initial_scores)
    assert trace.n_chunks == 2 and trace.k_effective == 1
    assert scores[1] == 0.0
    assert trace.initial_selection == [0]
    assert len(trace.tokens) == 6
    assert all(1 not in e.admit for e in trace.replacement_stats.events)
