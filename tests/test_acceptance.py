"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The heaviest entry is the 30k-token complexity sweep (criterion 6), which
takes about half a minute on a laptop-class CPU.
"""

import dataclasses
import itertools
import json
import random
import time
import zlib

import numpy as np
import pytest

from apce.cli import main as cli_main
from apce.config import RunConfig
from apce.embed import EmbeddingStore
from apce.metrics import lcs_length, rouge_l_f1
from apce.model import DecoderModel, KVCache, ModelConfig
from apce.reprior import reprioritize
from apce.sched import LoadModel, simulate_generation
from apce.select import ChunkScore, select_top_k
from apce.textpipe import chunk

VOCAB = 512

TOY = RunConfig(
    chunk_size=10,
    vocab_size=VOCAB,
    n_layers=2,
    n_heads=2,
    d_model=32,
    d_head=16,
    d_kv_total=32,
    embedding_dim=64,
    max_new_tokens=8,
)

SYNC = LoadModel(async_start_chunks=10**6)


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion}: PASS - {text}")


def random_doc(rng: random.Random, words: int) -> str:
    return " ".join(f"w{rng.randrange(60)}k{rng.randrange(9)}" for _ in range(words))


# ----------------------------------------------------------------------------

def test_criterion_1_memory_table_reproduction(capsys):
    """All 16 formula-consistent reference cells exact to 2 decimals, the two
    inconsistent dense prefill cells flagged, in under a second."""
    start = time.perf_counter()
    assert cli_main(["memtable", "--format", "json", "--flag-inconsistent"]) == 0
    payload = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start

    cells = {(r["group"], r["method"]): r for r in payload["rows"]}
    expected = {
        ("8k", "dense"): (32.40, 260.80, 32.43),
        ("8k", "selected"): (21.88, 147.31, 21.90),
        ("20k", "dense"): (78.56, None, 78.61),
        ("20k", "selected"): (56.25, 620.51, 56.29),
        ("30k", "dense"): (116.89, None, 116.96),
        ("30k", "selected"): (75.00, 1003.12, 75.05),
    }
    matched = 0
    for key, (kv, prefill, decode) in expected.items():
        row = cells[key]
        assert row["kv_cache_mb"] == kv, key
        assert row["decode_attn_mb"] == decode, key
        matched += 2
        if prefill is not None:
            assert row["prefill_attn_mb"] == prefill, key
            matched += 1
    assert matched == 16
    assert payload["flagged_cells"] == [["20k", "dense", "prefill_attn_mb"],
                                        ["30k", "dense", "prefill_attn_mb"]]
    assert elapsed < 1.0, f"memtable took {elapsed:.3f}s"
    report(1, f"16/18 reference cells exact, 2 flagged as inconsistent, {elapsed*1000:.0f} ms")


def test_criterion_2_dense_equivalence():
    """20 random (seed, document, query) triples: selective mode with k equal
    to the chunk count, reprioritization off, synchronous loading, must match
    dense output token for token."""
    checked = 0
    for trial in range(20):
        rng = random.Random(1000 + trial)
        doc = random_doc(rng, rng.randrange(60, 140))
        query = random_doc(rng, rng.randrange(3, 8))
        config = dataclasses.replace(
            TOY, seed=rng.randrange(10**6), max_chunks=10**6, fraction=None,
            reprioritization_enabled=False, max_new_tokens=6,
        )
        dense = simulate_generation(doc, query, "dense", SYNC, config)
        apce = simulate_generation(doc, query, "apce", SYNC, config)
        assert apce.k_effective == dense.n_chunks
        assert apce.tokens == dense.tokens, f"divergence on trial {trial}"
        checked += 1
    report(2, f"{checked} random triples, token-for-token identical, zero tolerance")


def test_criterion_3_selection_oracle():
    """select_top_k equals a brute-force sort oracle on 1000 random vectors."""

    def oracle(scores, k):
        ranked = sorted(scores, key=lambda s: (-s.score, s.chunk_index))
        return tuple(sorted(s.chunk_index for s in ranked[:min(k, len(ranked))]))

    rng = random.Random(2024)
    grid = [-1.0, -0.5, 0.0, 0.1, 0.5, 0.9, 1.0]
    for trial in range(1000):
        n = rng.randrange(1, 1001)
        k = rng.randrange(1, n + 1)
        if rng.random() < 0.5:
            scores = [ChunkScore(i, rng.choice(grid)) for i in range(n)]  # tie-heavy
        else:
            scores = [ChunkScore(i, rng.uniform(-1, 1)) for i in range(n)]
        assert select_top_k(scores, k) == oracle(scores, k), f"trial {trial}"
    report(3, "1000 random score vectors (n <= 1000) match the brute-force oracle exactly")


def test_criterion_4_recompute_soundness():
    """50 random replacement scenarios: after a plan's evictions and its
    rebuild of the admitted and stale chunks, every resident block equals a
    from-scratch prefill bitwise."""
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=32, d_head=16, d_kv_total=32,
                      vocab_size=VOCAB, init_seed=99)
    model = DecoderModel(cfg)
    ids = tuple((i * 31 + 5) % VOCAB for i in range(80))
    chunks = chunk(ids, 10)  # 8 chunks
    by_idx = {c.chunk_index: c for c in chunks}
    rng = np.random.default_rng(4)

    applied = 0
    attempts = 0
    while applied < 50:
        attempts += 1
        assert attempts < 500, "could not build enough non-trivial scenarios"
        dim = 16
        store = EmbeddingStore(
            {i: v / np.linalg.norm(v) for i, v in
             ((i, rng.normal(size=dim)) for i in range(len(chunks)))},
            dim=dim)
        k = int(rng.integers(2, 5))
        query_a = rng.normal(size=dim)
        initial = select_top_k(
            [ChunkScore(i, float(query_a @ store[i])) for i in range(len(chunks))], k)

        cache = KVCache(cfg, len(ids))
        model.prefill([by_idx[i] for i in initial], cache)

        plan = reprioritize(initial, k, store, rng.normal(size=dim), chunks, by_idx)
        if plan.is_empty():
            continue
        for i in plan.evict:
            cache.evict(i)
        model.rebuild_blocks(cache, [by_idx[i] for i in plan.admit + plan.recompute])

        # the set the plan must produce, derived from the plan itself
        final = sorted((set(initial) - set(plan.evict)) | set(plan.admit))
        oracle = KVCache(cfg, len(ids))
        model.prefill([by_idx[i] for i in final], oracle)
        assert cache.resident_indices() == oracle.resident_indices()
        # equal resident sets share one slot layout, so the chunk prefixes
        # are equal exactly when every chunk's K/V are
        n = oracle.chunk_tokens
        assert cache.chunk_tokens == n
        for layer in range(cfg.n_layers):
            for live, ref in ((cache.keys, oracle.keys), (cache.values, oracle.values)):
                assert np.array_equal(live[layer][:, :n], ref[layer][:, :n]), (applied, layer)
        applied += 1
    report(4, f"{applied} replacement scenarios bitwise-equal to from-scratch prefill")


def test_criterion_5_reprioritization_recovery():
    """A constructed corpus whose relevant chunk changes after 60 generated
    tokens: the newly relevant chunk is admitted at the step-100 boundary with
    reprioritization on, and never without it."""
    instruction = "locate the hidden chamber notes"
    tail_pieces = instruction.split()
    chunk_a = " ".join(tail_pieces * 10)  # 50 tokens, bag-identical to the tail
    placeholder_b = " ".join(f"junk{i}" for i in range(50))

    def pieces_for_ids(wanted):
        # invert the tokenizer hash: find a surface piece per wanted id
        lookup, needed, i = {}, set(wanted), 0
        while needed:
            piece = f"v{i}"
            tid = zlib.crc32(piece.encode()) % VOCAB
            if tid in needed:
                lookup[tid] = piece
                needed.discard(tid)
            i += 1
        return [lookup[t] for t in wanted]

    config = dataclasses.replace(
        TOY, chunk_size=50, max_new_tokens=120, max_chunks=1, fraction=None,
        interval=50, recent_tokens=50, seed=21,
    )

    # phase 1: observe what gets generated while only chunk A is selected
    probe = simulate_generation(chunk_a + " " + placeholder_b, instruction, "apce", SYNC, config)
    early = set(probe.tokens[:50])
    fresh = [t for t in probe.tokens[50:100] if t not in early]
    assert len(fresh) >= 20, "generation too repetitive for a clean construction"
    gen_ids = list(itertools.islice(itertools.cycle(fresh), 40))

    # phase 2: chunk B embeds like (instruction tail + tokens 51..100)
    chunk_b = " ".join(pieces_for_ids(gen_ids) + tail_pieces * 2)  # exactly 50 tokens
    doc = chunk_a + " " + chunk_b

    on = simulate_generation(doc, instruction, "apce", SYNC, config)
    assert on.initial_selection == [0]
    assert on.tokens[:100] == probe.tokens[:100]  # B is inert until admitted
    admitted = [e.step for e in on.replacement_stats.events if 1 in e.plan.admit]
    assert admitted == [100], f"expected admission exactly at step 100, got {admitted}"

    off = simulate_generation(doc, instruction, "apce", SYNC,
                              dataclasses.replace(config, reprioritization_enabled=False))
    assert off.replacement_stats.events == []
    report(5, "newly relevant chunk admitted at step 100 with interval 50; never when disabled")


def test_criterion_6_complexity_scaling():
    """Measured prefill counters give sparse/dense == (km/N)^2 in exact integer
    arithmetic across a sweep that includes the 30k configuration."""
    sweep = [
        (1200, 2, 300),
        (4800, 3, 800),
        (8000, 5, 800),
        (29924, 24, 800),
    ]
    for n_tokens, k, m in sweep:
        cfg = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_head=8, d_kv_total=8,
                          vocab_size=32768, init_seed=0, max_position=n_tokens + 64)
        model = DecoderModel(cfg)
        ids = tuple((i * 17 + 3) % 32000 for i in range(n_tokens))
        parts = chunk(ids, m)

        dense_cache = KVCache(cfg, n_tokens)
        dense = model.prefill(parts, dense_cache).score_elements
        sparse_cache = KVCache(cfg, k * m + 1)
        full_sized = [c for c in parts if c.size == m][:k]
        assert len(full_sized) == k
        sparse = model.prefill(full_sized, sparse_cache).score_elements

        assert dense == n_tokens * n_tokens
        assert sparse == (k * m) ** 2
        # exact ratio identity, integers only
        assert sparse * n_tokens**2 == dense * (k * m) ** 2

        step = model.decode_step(sparse_cache, 7, position=n_tokens)
        assert step.score_elements == k * m + 1  # resident plus generated so far
        if n_tokens == 29924:
            assert sparse / dense == pytest.approx(0.4117, abs=5e-5)
    report(6, "prefill counters satisfy sparse/dense == (km/N)^2 exactly, 30k ratio ~= 0.4117")


def test_criterion_7_async_ttft_ordering():
    """Whenever loading is slow and decoding may start early, selective TTFT
    beats dense TTFT, run for run."""
    doc = " ".join(f"a{i % 23} b{i % 6}" for i in range(80))  # 160 tokens, 16 chunks
    query = "find the a-passages"
    wins = 0
    rng = random.Random(77)
    for trial in range(12):
        latency = rng.choice([0.05, 0.2, 0.7, 1.3])
        async_start = rng.randrange(1, 16)  # strictly below n_chunks
        config = dataclasses.replace(TOY, seed=trial, fraction=rng.choice([0.3, 0.5, 0.8]),
                                     max_new_tokens=6, interval=3)
        load = LoadModel(per_chunk_load_latency=latency, async_start_chunks=async_start,
                         decode_latency=rng.choice([0.0, 0.02]),
                         compute_seconds_per_element=rng.choice([0.0, 1e-7]))
        apce = simulate_generation(doc, query, "apce", load, config)
        dense = simulate_generation(doc, query, "dense", load, config)
        assert apce.ttft < dense.ttft, f"trial {trial}: {apce.ttft} !< {dense.ttft}"
        wins += 1
    report(7, f"selective TTFT strictly below dense TTFT in {wins}/12 simulated runs")


def test_criterion_8_rouge_oracle():
    """Dynamic-program LCS equals exponential brute force (exhaustive for all
    pairs up to length 4 over a 3-symbol alphabet, 400 seeded pairs up to
    length 12), and the worked precision/recall example holds exactly."""

    def brute_force(a, b):
        best = 0
        for mask in range(1 << len(a)):
            sub = [a[i] for i in range(len(a)) if mask >> i & 1]
            it = iter(b)
            if all(x in it for x in sub):
                best = max(best, len(sub))
        return best

    alphabet = "abc"
    seqs = [tuple()]
    for length in range(1, 5):
        seqs.extend(itertools.product(alphabet, repeat=length))
    pairs = 0
    for a in seqs:
        for b in seqs:
            assert lcs_length(a, b) == brute_force(a, b)
            pairs += 1

    rng = random.Random(8)
    for _ in range(400):
        a = [rng.choice(alphabet) for _ in range(rng.randrange(13))]
        b = [rng.choice(alphabet) for _ in range(rng.randrange(13))]
        assert lcs_length(a, b) == brute_force(a, b)

    worked = rouge_l_f1("a b c d".split(), "a c d e".split())
    assert worked == (0.75, 0.75, 0.75)
    report(8, f"LCS oracle: {pairs} exhaustive pairs (len <= 4) + 400 seeded pairs (len <= 12); "
              "worked example P=R=F1=0.75 exact")


def test_criterion_9_accounting_in_place_of_absolute_scores():
    """Absolute summarization scores and wall-clock latencies need the real
    model, corpus, and GPU; what is asserted instead: taken <= available on
    every run and reprioritization events fired == floor(tokens / interval)."""
    doc = " ".join(f"p{i % 19}q{i % 11}" for i in range(70))  # 140 tokens
    query = "describe the p-sections"
    runs = 0
    for interval in (1, 5, 10, 25, 50):
        for seed in (0, 1):
            config = dataclasses.replace(TOY, seed=seed, interval=interval,
                                         fraction=0.4, max_new_tokens=50)
            trace = simulate_generation(doc, query, "apce", SYNC, config)
            stats = trace.replacement_stats
            assert stats.taken <= stats.available
            fired = sum(1 for e in trace.events if e.kind == "reprioritization")
            assert fired == len(trace.tokens) // interval, (interval, seed)
            runs += 1
    report(9, f"{runs} runs: taken <= available and events == floor(tokens/interval); "
              "absolute score/latency cells are explicitly out of scope")
