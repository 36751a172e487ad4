import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apce.sched as sched
from apce.cli import run_record
from apce.config import RunConfig
from apce.model import KVCache, _init_params
from apce.sched import LoadModel, Session, simulate_generation
from apce.textpipe import Record

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
    # the first run draws the weights, the second reuses the process's cached draw
    _init_params.cache_clear()
    load = LoadModel(per_chunk_load_latency=0.2, async_start_chunks=3, decode_latency=0.01)
    a, b = run("apce", load), run("apce", load)
    assert a.tokens == b.tokens
    assert a.counters == b.counters
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


@pytest.mark.parametrize("recompute", [True, False])
def test_recompute_event_lists_only_the_chunks_rebuilt(recompute):
    # a boundary that evicts chunk 2 leaves chunk 3 stale; with recompute off
    # only the admitted chunk is rebuilt, and the event must say so
    config = dataclasses.replace(TOY, interval=2, max_new_tokens=30, fraction=0.4, recompute=recompute)
    load = LoadModel(per_chunk_load_latency=0.1, async_start_chunks=3, decode_latency=0.1)
    trace = simulate_generation(DOC, QUERY, "apce", load, config)
    plans = {e.data["step"]: e.data for e in trace.events if e.kind == "reprioritization"}
    rebuilt = [e.data for e in trace.events if e.kind == "recompute"]
    assert any(plans[e["step"]]["recompute"] for e in rebuilt), "some plan must leave chunks stale"
    for event in rebuilt:
        plan = plans[event["step"]]
        assert event["chunks"] == sorted(plan["admit"] + (plan["recompute"] if recompute else []))


def test_counters_present_in_trace():
    load = LoadModel()
    trace = run("apce", load)
    assert trace.counters["prefill_elements"] == (trace.k_effective * 10) ** 2
    assert trace.counters["decode_elements"] > 0


def test_trace_exports():
    """A report lists each trace event as {time, kind, data}, in trace order."""
    config = dataclasses.replace(TOY, per_chunk_load_latency=0.1, async_start_chunks=4)
    report = run_record(Record(id="r", text=DOC, query=QUERY, reference=None), config)
    events = report["trace"]["events"]
    assert all(set(e) == {"time", "kind", "data"} for e in events)
    trace = run("apce", config.load_model(), config)
    assert events == [{"time": e.time, "kind": e.kind, "data": e.data} for e in trace.events]


def test_file_embedding_provider(tmp_path):
    import json

    import numpy as np

    from apce.embed import HashingEmbedder
    from apce.select import cosine
    from apce.textpipe import tokenize

    rng = np.random.default_rng(0)
    vectors = {i: rng.normal(size=48).tolist() for i in range(10)}
    path = tmp_path / "emb.jsonl"
    path.write_text("\n".join(
        json.dumps({"chunk_index": i, "vector": v}) for i, v in vectors.items()) + "\n")

    config = dataclasses.replace(TOY, embedding_provider="file", embedding_file=str(path))
    trace = run("apce", LoadModel(async_start_chunks=100), config)
    # initial scores must come from the file vectors, not hashed chunk bags
    query = HashingEmbedder(48).embed_tokens(tokenize(QUERY[-config.tail_chars:], vocab_size=config.vocab_size))
    for idx, score in trace.initial_scores:
        assert score == pytest.approx(cosine(query, np.asarray(vectors[idx])), abs=1e-12)

    missing = tmp_path / "missing.jsonl"
    missing.write_text(json.dumps({"chunk_index": 0, "vector": vectors[0]}) + "\n")
    bad = dataclasses.replace(config, embedding_file=str(missing))
    with pytest.raises(ValueError, match="lacks vectors"):
        run("apce", LoadModel(async_start_chunks=100), bad)


def test_bad_mode_rejected():
    with pytest.raises(ValueError, match="mode must be 'dense' or 'apce', got 'hybrid'"):
        run("hybrid", LoadModel())


def test_a_session_takes_its_mode_and_latencies_from_its_config():
    config = dataclasses.replace(TOY, mode="dense", per_chunk_load_latency=0.25, async_start_chunks=3,
                                 decode_latency=0.5, compute_seconds_per_element=2.0 ** -20)
    session = Session(DOC, QUERY, config)
    assert session.k_effective == 10  # dense: every chunk, where apce at fraction 0.5 keeps 5
    assert session.load == LoadModel(per_chunk_load_latency=0.25, async_start_chunks=3, decode_latency=0.5,
                                     compute_seconds_per_element=2.0 ** -20)
    assert session.ttft == 10 * 0.25 + 100 ** 2 * 2.0 ** -20


@pytest.mark.parametrize("setting", [
    {"recent_tokens": 0}, {"tail_chars": 0}, {"max_chunks": 0, "fraction": None}, {"fraction": 2.0},
    {"embedding_provider": "bogus"}, {"max_new_tokens": 0}, {"interval": 0},
], ids=lambda setting: ",".join(f"{k}={v}" for k, v in setting.items()))
def test_a_config_that_validate_refuses_does_not_run(setting):
    config = dataclasses.replace(TOY, **setting)
    with pytest.raises(ValueError):
        config.validate()
    with pytest.raises(ValueError):
        run("apce", LoadModel(), config)


def test_mode_and_load_come_from_the_arguments_not_the_config():
    # as the benchmark's prefill-dense calls it: "dense" beside an apce config,
    # whose load.* fields here disagree with the LoadModel passed in
    config = dataclasses.replace(TOY, per_chunk_load_latency=8.0, async_start_chunks=1, decode_latency=4.0,
                                 compute_seconds_per_element=1.0)
    assert config.mode == "apce"
    per_element = 2.0 ** -20
    load = LoadModel(per_chunk_load_latency=0.25, async_start_chunks=3, decode_latency=0.5,
                     compute_seconds_per_element=per_element)
    trace = run("dense", load, config)
    assert trace.k_effective == trace.n_chunks == 10  # dense: the config's apce would keep 5
    assert trace.counters["prefill_elements"] == 100 ** 2
    ttft = 10 * 0.25 + 100 ** 2 * per_element
    assert trace.ttft == pytest.approx(ttft, rel=1e-12)
    decode = (config.max_new_tokens - 1) * 0.5 + trace.counters["decode_elements"] * per_element
    assert trace.total_time == pytest.approx(ttft + decode, rel=1e-12)


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
    assert all(1 not in e.plan.admit for e in trace.replacement_stats.events)


@given(
    k=st.integers(min_value=1, max_value=10),
    interval=st.integers(min_value=1, max_value=6),
    async_start=st.integers(min_value=1, max_value=12),
    latency=st.sampled_from([0.0, 0.01, 0.05, 0.3]),
    recompute=st.booleans(),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_replayed_residency_obeys_the_buffer_laws(k, interval, async_start, latency, recompute,
                                                   seed):
    config = dataclasses.replace(TOY, fraction=None, max_chunks=k, interval=interval,
                                 recompute=recompute, max_new_tokens=16, seed=seed)
    load = LoadModel(per_chunk_load_latency=latency, async_start_chunks=async_start,
                     decode_latency=0.01, compute_seconds_per_element=1e-7)
    trace = simulate_generation(DOC, QUERY, "apce", load, config)

    resident = set(trace.initial_selection)
    assert len(resident) <= trace.k_effective
    for event in trace.events:
        if event.kind != "reprioritization":
            continue
        evict, admit = set(event.data["evict"]), set(event.data["admit"])
        assert evict <= resident
        assert not admit & resident
        resident = (resident - evict) | admit
        assert len(resident) <= trace.k_effective
    stats = trace.replacement_stats
    assert stats.taken <= stats.available
    times = [e.time for e in trace.events]
    assert times == sorted(times)
    resident_tokens = sum(min(TOY.chunk_size, trace.doc_tokens - i * TOY.chunk_size)
                          for i in trace.initial_selection)
    assert trace.counters["prefill_elements"] == resident_tokens ** 2


# --- Session ---

def run_session(load, config):
    """Drive a session through simulate_generation's loop, and keep it."""
    session = Session(DOC, QUERY, dataclasses.replace(config, mode="apce", **dataclasses.asdict(load)))
    for step in range(1, config.max_new_tokens + 1):
        if step > 1:
            session.step()
        if config.reprioritization_enabled and step % config.interval == 0:
            session.boundary()
    return session


def test_a_session_ends_with_a_fresh_prefill_of_its_resident_set():
    """Random async loads, intervals, k and seeds, recompute on: the final
    arena holds what a fresh prefill of the resident set would. Layer 0 K/V
    depend on tokens and positions alone, so they match bit for bit; later
    layers of a chunk last computed while the arena was narrower match to
    rounding (see the ``reprior`` module docstring)."""
    rng = np.random.default_rng(13)
    plans = 0
    for draw in range(40):
        config = dataclasses.replace(TOY, fraction=None, max_chunks=int(rng.integers(1, 11)),
                                     interval=int(rng.integers(1, 5)),
                                     max_new_tokens=int(rng.integers(2, 25)),
                                     seed=int(rng.integers(0, 4)), recompute=True)
        load = LoadModel(per_chunk_load_latency=float(rng.choice([0.0, 0.01, 0.05, 0.3])),
                         async_start_chunks=int(rng.integers(1, 12)), decode_latency=0.01,
                         compute_seconds_per_element=1e-7)
        session = run_session(load, config)
        trace = simulate_generation(DOC, QUERY, "apce", load, config)
        assert session.trace(0.0).events == trace.events, draw
        plans += session.stats.taken

        cache = session.cache
        fresh = KVCache(session.model.config, cache.resident_tokens)
        session.model.prefill([session.chunks[i] for i in cache.resident_indices()], fresh)
        assert cache.resident_indices() == fresh.resident_indices(), draw
        assert cache.chunk_tokens == fresh.chunk_tokens, draw
        width = fresh.chunk_tokens
        for layer in range(config.n_layers):
            for got, want in ((cache.keys, fresh.keys), (cache.values, fresh.values)):
                got, want = got[layer][:, :width], want[layer][:, :width]
                if layer == 0:
                    assert np.array_equal(got, want), draw
                assert np.max(np.abs(got - want)) <= 1e-5, (draw, layer)
    assert plans >= 40


def test_a_session_allocates_its_arena_once_at_its_bound(monkeypatch):
    """An apce session with asynchronous arrival and six non-empty plans
    keeps the arrays its cache was made with, sized for k chunks beside one
    generated token per decode step; a dense session's holds every chunk."""
    made = []

    class Recorded(KVCache):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((self, [*self.keys, *self.values]))

    monkeypatch.setattr(sched, "KVCache", Recorded)
    config = dataclasses.replace(TOY, fraction=None, max_chunks=4, interval=2, max_new_tokens=24)
    load = LoadModel(per_chunk_load_latency=0.05, async_start_chunks=2, decode_latency=0.01,
                     compute_seconds_per_element=1e-7)
    trace = simulate_generation(DOC, QUERY, "apce", load, config)
    assert trace.replacement_stats.taken >= 3
    (cache, arrays), = made
    assert all(a is b for a, b in zip([*cache.keys, *cache.values], arrays, strict=True))
    assert cache.capacity == 4 * config.chunk_size + config.max_new_tokens - 1

    dense = Session(DOC, QUERY, dataclasses.replace(config, mode="dense", **dataclasses.asdict(load)))
    assert dense.cache.capacity == dense.doc_tokens + config.max_new_tokens - 1


def test_dense_equivalence_under_slow_arrival():
    """k = n with every chunk awaited: boundaries find nothing to change, so
    tokens and TTFT equal dense's however slowly the chunks arrive."""
    rng = np.random.default_rng(21)
    for draw in range(20):
        config = dataclasses.replace(TOY, fraction=None, max_chunks=10,
                                     interval=int(rng.integers(1, 5)),
                                     max_new_tokens=int(rng.integers(2, 25)),
                                     seed=int(rng.integers(0, 4)))
        load = LoadModel(per_chunk_load_latency=float(rng.uniform(0.01, 1.0)), async_start_chunks=10,
                         decode_latency=float(rng.uniform(0.0, 0.1)), compute_seconds_per_element=1e-7)
        apce = simulate_generation(DOC, QUERY, "apce", load, config)
        dense = simulate_generation(DOC, QUERY, "dense", load, config)
        assert any(e.kind == "reprioritization" for e in apce.events), draw
        assert apce.tokens == dense.tokens, draw
        assert apce.ttft == dense.ttft, draw
        assert apce.replacement_stats.taken == 0, draw


def test_session_with_recompute_off_rebuilds_only_the_admitted_chunk():
    config = dataclasses.replace(TOY, fraction=None, max_chunks=3, recompute=False)
    session = Session(DOC, QUERY, dataclasses.replace(config, async_start_chunks=10))
    cache, last = session.cache, config.n_layers - 1
    resident = cache.resident_indices()
    admit = min(set(range(10)) - set(resident))
    session.evict([resident.pop()])  # the arena holds k chunks, as a plan keeps it
    stale = [i for i in resident if i > admit]
    assert stale, resident

    def block(i):
        slot = cache.slot(i)
        return cache.keys[last][:, slot:slot + 10].copy()

    before = {i: block(i) for i in stale}
    session.rebuild(admit=[admit], recompute=stale)
    assert cache.has(admit)
    assert all(np.array_equal(block(i), before[i]) for i in stale)  # stale blocks untouched
    assert session.events[-1].kind == "recompute"
    assert session.events[-1].data == {"step": 1, "elements": 10 * cache.chunk_tokens, "chunks": [admit]}


def test_the_clock_charges_exactly_what_the_counters_count():
    """With every latency 0 and a power-of-two price per element, each
    charge and each sum of charges is exact, so the clock reads the counted
    elements times the price with no rounding at all."""
    price = 2.0 ** -20
    load = LoadModel(per_chunk_load_latency=0.0, decode_latency=0.0, compute_seconds_per_element=price)
    rng = np.random.default_rng(29)
    rebuilt = 0
    for draw in range(30):
        mode = str(rng.choice(["dense", "apce"]))
        config = dataclasses.replace(TOY, fraction=None, max_chunks=int(rng.integers(1, 11)),
                                     interval=int(rng.integers(1, 6)), recompute=bool(rng.integers(0, 2)),
                                     max_new_tokens=int(rng.integers(2, 25)), seed=int(rng.integers(0, 4)))
        trace = simulate_generation(DOC, QUERY, mode, load, config)
        assert trace.ttft == trace.counters["prefill_elements"] * price, draw
        assert trace.total_time == sum(trace.counters.values()) * price, draw
        rebuilt += trace.counters["rebuild_elements"] > 0
    assert rebuilt >= 5
