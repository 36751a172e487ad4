import collections
import ctypes
import os
import signal
import subprocess
import sys
import threading
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import apce.cli
import apce.model as model_module
from apce.model import (
    DecoderModel,
    KVCache,
    ModelConfig,
    _init_params,
    _rms_norm,
)
from apce.textpipe import Chunk, chunk
from test_digests import _corename, _openblas_picks_its_kernel_at_run_time

# numpy's default ufunc buffer size (8192 elements), read before any test runs:
# the kernel's own buffer size must not leak into any test after it.
DEFAULT_BUFSIZE = np.getbufsize()
# arena slots of the caches below: more than any of them holds
ARENA = 1024


def make_chunks(n_tokens, chunk_size, vocab=512, salt=0):
    ids = tuple((i * 7919 + salt) % vocab for i in range(n_tokens))
    return chunk(ids, chunk_size)


def chunk_kv(cache: KVCache, layer: int, c) -> tuple[np.ndarray, np.ndarray]:
    """Copies of chunk ``c``'s keys and values in ``layer`` of the arena."""
    slot = cache.slot(c.chunk_index)
    span = slice(slot, slot + c.size)
    return cache.keys[layer][:, span].copy(), cache.values[layer][:, span].copy()


def caches_equal(a: KVCache, b: KVCache, layers: int) -> bool:
    """Same resident set and the same chunk K/V. With equal resident sets both
    arenas lay the same chunks out at the same slots, so comparing the whole
    chunk prefix compares every chunk's block."""
    if a.resident_indices() != b.resident_indices():
        return False
    a.settle()
    b.settle()
    return all(np.array_equal(x[layer][:, :a.chunk_tokens], y[layer][:, :b.chunk_tokens])
               for layer in range(layers) for x, y in ((a.keys, b.keys), (a.values, b.values)))


@pytest.fixture(scope="module")
def model(toy_model_config):
    return DecoderModel(toy_model_config)


@pytest.fixture(scope="module")
def chunks():
    return make_chunks(96, 12)  # 8 chunks of 12 tokens


# --- prefill ---

def test_prefill_deterministic_and_equal_to_itself(model, chunks, toy_model_config):
    c1, c2 = KVCache(toy_model_config, ARENA), KVCache(toy_model_config, ARENA)
    r1 = model.prefill(chunks, c1)
    r2 = model.prefill(chunks, c2)
    assert np.array_equal(r1.last_logits, r2.last_logits)
    assert caches_equal(c1, c2, toy_model_config.n_layers)

    # prefill is the rebuild path run over an empty cache with every chunk reserved
    c3 = KVCache(toy_model_config, ARENA)
    for c in chunks:
        c3.reserve(c)
    elements = model.rebuild_blocks(c3, chunks)
    assert caches_equal(c1, c3, toy_model_config.n_layers)
    assert elements == r1.score_elements
    assert c3.counters["rebuild_elements"] == c1.counters["prefill_elements"]
    # once more, over the rebuilt cache, finishing the last block
    elements, hidden = model._forward_blocks(c3, model._chunk_blocks(c3, chunks), finish_last=True)
    assert elements == r1.score_elements and hidden.shape == (chunks[-1].size, toy_model_config.d_model)
    final = _rms_norm(hidden)
    assert np.array_equal(final[-1] @ model.params["head"], r1.last_logits)
    assert caches_equal(c1, c3, toy_model_config.n_layers)


def test_prefill_empty(model, toy_model_config):
    cache = KVCache(toy_model_config, ARENA)
    with pytest.raises(ValueError, match="at least one chunk"):
        model.prefill([], cache)
    assert cache.resident_tokens == 0 and cache.counters["prefill_elements"] == 0


def test_prefill_orders_blocks_by_offset_whatever_their_indices(model, chunks, toy_model_config):
    """Chunks numbered against their offsets prefill as the same chunks
    numbered in document order: the logits come from the last document
    position, and the K/V are the same."""
    parts = chunks[:3]
    backwards = [Chunk(chunk_index=2 - c.chunk_index, token_ids=c.token_ids,
                       doc_token_offset=c.doc_token_offset) for c in parts]
    forward_cache, backward_cache = KVCache(toy_model_config, ARENA), KVCache(toy_model_config, ARENA)
    want = model.prefill(parts, forward_cache)
    got = model.prefill(backwards[::-1], backward_cache)
    assert np.array_equal(got.last_logits, want.last_logits)
    assert got.score_elements == want.score_elements
    assert backward_cache.resident_indices() == [2, 1, 0]
    for c, b in zip(parts, backwards):
        for layer in range(toy_model_config.n_layers):
            for x, y in zip(chunk_kv(forward_cache, layer, c), chunk_kv(backward_cache, layer, b)):
                assert np.array_equal(x, y)


def test_prefill_refuses_a_repeated_chunk_index(model, chunks, toy_model_config):
    twin = Chunk(chunk_index=0, token_ids=chunks[1].token_ids, doc_token_offset=chunks[1].doc_token_offset)
    with pytest.raises(ValueError, match="duplicate chunk index 0"):
        model.prefill([chunks[0], twin], KVCache(toy_model_config, ARENA))


def test_prefill_refuses_overlapping_chunk_positions(model, toy_model_config):
    ids = tuple(range(12))
    with pytest.raises(ValueError, match=r"chunk 1 at positions \[6, 18\) overlaps chunk 0 at \[0, 12\)"):
        model.prefill([Chunk(0, ids, 0), Chunk(1, ids, 6)], KVCache(toy_model_config, ARENA))


def test_prefill_counts_squared_elements(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config, ARENA)
    result = model.prefill(chunks[:3], cache)
    assert result.score_elements == 36 * 36
    assert cache.counters["prefill_elements"] == 36 * 36


def test_prefill_positions_are_document_absolute(model, chunks, toy_model_config):
    """Layer-0 K/V depend only on a chunk's tokens and positions, so chunk 2's
    are the same whether chunk 1 is resident or not, and differ when the same
    tokens sit at other positions."""
    gapped, full = KVCache(toy_model_config, ARENA), KVCache(toy_model_config, ARENA)
    model.prefill([chunks[0], chunks[2]], gapped)
    model.prefill(chunks[:3], full)
    assert gapped.slot(2) == 12 and full.slot(2) == 24
    for got, want in zip(chunk_kv(gapped, 0, chunks[2]), chunk_kv(full, 0, chunks[2])):
        assert np.array_equal(got, want)

    moved = chunk(chunks[2].token_ids, chunks[2].size)[0]  # at positions 0-11
    alone = KVCache(toy_model_config, ARENA)
    model.prefill([moved], alone)
    assert not np.array_equal(chunk_kv(alone, 0, moved)[0], chunk_kv(full, 0, chunks[2])[0])


def test_prefill_requires_empty_cache(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config, ARENA)
    model.prefill(chunks[:2], cache)
    with pytest.raises(ValueError):
        model.prefill(chunks[2:3], cache)


def test_prefill_position_overflow():
    cfg = ModelConfig(n_layers=1, n_heads=1, d_model=16, d_head=16, d_kv_total=16,
                      vocab_size=64, max_position=10)
    model = DecoderModel(cfg)
    parts = make_chunks(16, 8, vocab=64)
    with pytest.raises(ValueError, match="overflow"):
        model.prefill(parts, KVCache(cfg, ARENA))


def test_out_of_order_admission_is_stale_until_recomputed(model, chunks, toy_model_config):
    """Admitting an earlier chunk leaves later blocks stale; recompute heals them."""
    layers = toy_model_config.n_layers

    live = KVCache(toy_model_config, ARENA)
    model.prefill([chunks[0], chunks[2]], live)
    model.rebuild_blocks(live, [chunks[1]])  # admit chunk 1, no recompute of chunk 2

    oracle = KVCache(toy_model_config, ARENA)
    model.prefill(chunks[:3], oracle)

    stale = chunk_kv(live, layers - 1, chunks[2])
    fresh = chunk_kv(oracle, layers - 1, chunks[2])
    assert not np.array_equal(stale[0], fresh[0])  # chunk 2 never saw chunk 1

    model.rebuild_blocks(live, [chunks[2]])
    assert caches_equal(live, oracle, layers)


# --- decode ---

def test_decode_deterministic(model, chunks, toy_model_config):
    logits = []
    for _ in range(2):
        cache = KVCache(toy_model_config, ARENA)
        pre = model.prefill(chunks[:4], cache)
        out = model.decode_step(cache, int(np.argmax(pre.last_logits)), position=96)
        logits.append(out.logits)
    assert np.array_equal(logits[0], logits[1])


def test_decode_elements_equal_resident_plus_generated(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config, ARENA)
    pre = model.prefill([chunks[0], chunks[3]], cache)  # 24 resident tokens
    token = int(np.argmax(pre.last_logits))
    for step in range(1, 4):
        out = model.decode_step(cache, token, position=96 + step - 1)
        assert out.score_elements == 24 + step
        token = out.token
    # strictly below what a dense cache would cost at the same step
    dense = KVCache(toy_model_config, ARENA)
    pre_d = model.prefill(chunks, dense)
    out_d = model.decode_step(dense, int(np.argmax(pre_d.last_logits)), position=96)
    assert out_d.score_elements == 96 + 1
    assert 24 + 1 < 96 + 1


def test_decode_logits_finite_and_counters_monotone(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config, ARENA)
    pre = model.prefill(chunks[:2], cache)
    token = int(np.argmax(pre.last_logits))
    seen = 0
    for step in range(5):
        out = model.decode_step(cache, token, position=96 + step)
        assert np.all(np.isfinite(out.logits))
        assert cache.counters["decode_elements"] > seen
        seen = cache.counters["decode_elements"]
        token = out.token


def test_decode_position_must_advance(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config, ARENA)
    model.prefill(chunks[:2], cache)
    with pytest.raises(ValueError):
        model.decode_step(cache, 1, position=5)  # inside the document


def test_decode_needs_cache(model, toy_model_config):
    with pytest.raises(ValueError):
        model.decode_step(KVCache(toy_model_config, ARENA), 1, position=0)


# --- causality ---

def test_causality_future_token_cannot_affect_past_kv(model, toy_model_config):
    """Flipping the document's last token leaves every layer's K/V at every
    earlier position bit-identical, in the flipped token's own block too,
    and does change that token's K/V and the last logits."""
    base = make_chunks(60, 10)
    cache_a = KVCache(toy_model_config, ARENA)
    logits_a = model.prefill(base, cache_a).last_logits

    mutated = make_chunks(60, 10)
    tokens = list(mutated[-1].token_ids)
    tokens[-1] = (tokens[-1] + 11) % 512
    object.__setattr__(mutated[-1], "token_ids", tuple(tokens))
    cache_b = KVCache(toy_model_config, ARENA)
    logits_b = model.prefill(mutated, cache_b).last_logits

    p = 59  # the flipped position
    for layer in range(toy_model_config.n_layers):
        for a, b in ((cache_a.keys, cache_b.keys), (cache_a.values, cache_b.values)):
            assert np.array_equal(a[layer][:, :p], b[layer][:, :p]), layer
            assert not np.array_equal(a[layer][:, p], b[layer][:, p]), layer
    assert not np.array_equal(logits_a, logits_b)


# --- recompute ---

def test_recompute_idempotent(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config, ARENA)
    model.prefill(chunks[:3], cache)
    snapshot = {(l, i): chunk_kv(cache, l, chunks[i])
                for l in range(toy_model_config.n_layers) for i in (0, 1, 2)}
    assert model.rebuild_blocks(cache, [*chunks[:3], chunks[1]]) == 36 * 36  # a repeat runs once
    for (l, i), (k, v) in snapshot.items():
        keys, values = chunk_kv(cache, l, chunks[i])
        assert np.array_equal(keys, k)
        assert np.array_equal(values, v)


def test_rebuild_refuses_a_chunk_overlapping_a_resident_one(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config, ARENA)
    model.prefill(chunks[:3], cache)
    shifted = Chunk(8, chunks[1].token_ids, chunks[1].doc_token_offset + 5)
    with pytest.raises(ValueError, match="chunk 8 at positions .* overlaps chunk 1 at"):
        model.rebuild_blocks(cache, [shifted])
    assert cache.resident_indices() == [0, 1, 2]


def test_recompute_first_chunk_is_noop(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config, ARENA)
    model.prefill(chunks[:3], cache)
    before = chunk_kv(cache, toy_model_config.n_layers - 1, chunks[0])[0]
    model.rebuild_blocks(cache, [chunks[0]])
    assert np.array_equal(chunk_kv(cache, toy_model_config.n_layers - 1, chunks[0])[0], before)


def test_rebuild_matches_fresh_prefill_after_swaps(model, chunks, toy_model_config):
    """Randomized replacement scenarios: cache after evict+rebuild must equal a
    from-scratch prefill of the final resident set."""
    rng = np.random.default_rng(7)
    by_idx = {c.chunk_index: c for c in chunks}
    all_idx = sorted(by_idx)
    layers = toy_model_config.n_layers
    for _ in range(10):
        start = sorted(rng.choice(all_idx, size=4, replace=False).tolist())
        leave = sorted(rng.choice(start, size=2, replace=False).tolist())
        outside = [i for i in all_idx if i not in start]
        enter = sorted(rng.choice(outside, size=2, replace=False).tolist())

        live = KVCache(toy_model_config, ARENA)
        model.prefill([by_idx[i] for i in start], live)
        for i in leave:
            live.evict(i)
        final = sorted(set(start) - set(leave) | set(enter))
        changed_offset = min(by_idx[i].doc_token_offset for i in leave + enter)
        stale = [i for i in set(start) - set(leave)
                 if by_idx[i].doc_token_offset > changed_offset]
        model.rebuild_blocks(live, [by_idx[i] for i in enter + stale])

        oracle = KVCache(toy_model_config, ARENA)
        model.prefill([by_idx[i] for i in final], oracle)
        assert caches_equal(live, oracle, layers), (start, leave, enter)


def test_rebuild_bits_depend_on_the_arena_width():
    """With the default model and 200-token chunks: rebuilding part of the
    same resident set gives a fresh prefill's bits. Admitting chunk 4 after
    a prefill of 0-3 leaves nothing stale, yet only layer 0's K/V (token and
    position alone) equal a fresh prefill of 0-4 bit for bit; later layers
    match to rounding, because the full-width row sums and scores·V run
    over the narrower arena of 0-3."""
    cfg = ModelConfig()
    model = DecoderModel(cfg)
    parts = make_chunks(1000, 200, vocab=cfg.vocab_size)
    fresh = KVCache(cfg, ARENA)
    model.prefill(parts, fresh)

    same = KVCache(cfg, ARENA)
    model.prefill(parts, same)
    same.evict(1)
    model.rebuild_blocks(same, parts[1:])  # chunk 1 back in, 2-4 stale
    assert caches_equal(same, fresh, cfg.n_layers)

    grown = KVCache(cfg, ARENA)
    model.prefill(parts[:4], grown)
    model.rebuild_blocks(grown, [parts[4]])
    assert grown.resident_indices() == fresh.resident_indices()
    for layer in range(cfg.n_layers):
        for got, want in ((grown.keys, fresh.keys), (grown.values, fresh.values)):
            got, want = got[layer][:, :1000], want[layer][:, :1000]
            if layer == 0:
                assert np.array_equal(got, want)
            assert np.max(np.abs(got - want)) <= 1e-5, layer


# --- arena ---

def project_qkv(model, hidden, layer, cos, sin):
    """q, k and v of ``hidden`` at ``layer``, through the model's projections."""
    x = _rms_norm(hidden)
    return (model._project(x, layer, "wq", cos, sin), model._project(x, layer, "wk", cos, sin),
            model._project(x, layer, "wv"))


def mlp(model, hidden, layer):
    """The SiLU MLP with fresh intermediates: the reference for the model's,
    which writes them into a workspace."""
    x = _rms_norm(hidden)
    inner = x @ model.params[f"layers.{layer}.w1"]
    inner = inner / (np.float32(1.0) + np.exp(-inner))
    return inner @ model.params[f"layers.{layer}.w2"]


def concat_decode(model, blocks, gen_kv, last_token, position):
    """decode_step as a per-chunk cache computes it: every layer concatenates
    the resident chunk blocks and each generated token's K/V. ``blocks[layer]``
    lists (keys, values) in document order; ``gen_kv[layer]`` gains this token's."""
    hidden = model.params["embedding"][[last_token]].copy()
    for layer in range(model.config.n_layers):
        q, k, v = project_qkv(model, hidden, layer, *model._rope_tables(np.asarray([position])))
        gen_kv[layer].append((k, v))
        parts = blocks[layer] + gen_kv[layer]
        k_all = np.concatenate([pk for pk, _ in parts], axis=1)
        v_all = np.concatenate([pv for _, pv in parts], axis=1)
        attn = serial_attend(model, q, k_all, v_all, None)
        hidden = hidden + attn @ model.params[f"layers.{layer}.wo"]
        hidden = hidden + mlp(model, hidden, layer)
    return (_rms_norm(hidden) @ model.params["head"])[0]


def block_copies(cache, chunks, layers):
    return [[chunk_kv(cache, l, chunks[i]) for i in cache.resident_indices()] for l in range(layers)]


def generated_kv(cache, layer):
    tail = slice(cache.chunk_tokens, cache.chunk_tokens + cache.gen_len)
    return cache.keys[layer][:, tail].copy(), cache.values[layer][:, tail].copy()


def test_settle_lays_the_arena_out_in_place_like_a_fresh_copy():
    """Random reserve, evict and settle sequences, with generated tokens
    written in between: after each settle, every arena array (the one made
    at construction) starts with each resident chunk's rows in document
    order, zeros for placeholders, then the generated tail, as a fresh array
    built from copies of each block would. Some settles move blocks both
    left and right."""
    cfg = D_HEAD_8
    rng = np.random.default_rng(11)
    mixed = 0
    for draw in range(40):
        sizes = rng.integers(1, 13, size=10)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        parts = [Chunk(i, tuple(range(int(n))), int(o)) for i, (n, o) in enumerate(zip(sizes, offsets))]
        cache = KVCache(cfg, 48)
        arrays = [*cache.keys, *cache.values]
        blocks = {}  # chunk -> its rows in every arena, (arenas, heads, tokens, d_head)
        gen = []  # the generated tokens' rows, likewise
        slots = {}  # chunk -> its slot at the last settle
        position = int(sizes.sum())
        for _ in range(8):
            for i in cache.resident_indices():
                if rng.random() < 0.3:
                    cache.evict(i)
                    del blocks[i], slots[i]
            reserved = []
            for c in parts:
                fits = cache.resident_tokens + cache.gen_len + c.size <= cache.capacity
                if not cache.has(c.chunk_index) and fits and rng.random() < 0.4:
                    cache.reserve(c)
                    reserved.append(c.chunk_index)
                    blocks[c.chunk_index] = np.zeros((len(arrays), cfg.n_kv_heads, c.size, cfg.d_head),
                                                     dtype=np.float32)
            cache.settle()
            moved = [cache.slot(i) - old for i, old in slots.items()]
            mixed += min(moved, default=0) < 0 < max(moved, default=0)
            slots = {i: cache.slot(i) for i in cache.resident_indices()}

            fresh = np.concatenate([blocks[i] for i in cache.resident_indices()] + gen, axis=2)
            used = cache.chunk_tokens + cache.gen_len
            assert used == fresh.shape[2], draw
            for arena, want in zip(arrays, fresh):
                assert np.array_equal(arena[:, :used], want), draw
            assert all(a is b for a, b in zip([*cache.keys, *cache.values], arrays)), draw

            for i in reserved:  # compute the placeholders
                blocks[i] = rng.standard_normal(blocks[i].shape, dtype=np.float32)
                for arena, rows in zip(arrays, blocks[i]):
                    arena[:, slots[i]:slots[i] + rows.shape[1]] = rows
            for _ in range(int(rng.integers(0, 3))):
                if used < cache.capacity:
                    rows = rng.standard_normal((len(arrays), cfg.n_kv_heads, 1, cfg.d_head), dtype=np.float32)
                    for arena, row in zip(arrays, rows):
                        arena[:, used:used + 1] = row
                    gen.append(rows)
                    cache.gen_positions.append(position)
                    position, used = position + 1, used + 1
    assert mixed >= 10, mixed


def test_decode_logits_match_concatenating_oracle(model, chunks, toy_model_config):
    """300 steps: each step's logits equal the oracle's, and the step adds its
    key width (resident, generated and its own token) to ``decode_elements``."""
    layers = toy_model_config.n_layers
    cache = KVCache(toy_model_config, ARENA)
    token = int(np.argmax(model.prefill([chunks[0], chunks[2], chunks[3]], cache).last_logits))
    blocks = block_copies(cache, chunks, layers)
    gen_kv = [[] for _ in range(layers)]
    for step in range(300):
        before = cache.counters["decode_elements"]
        want = concat_decode(model, blocks, gen_kv, token, 96 + step)
        out = model.decode_step(cache, token, 96 + step)
        assert np.array_equal(out.logits, want), step
        assert out.score_elements == cache.counters["decode_elements"] - before == 36 + step + 1, step
        token = out.token


def test_decode_fills_the_arena_and_refuses_a_step_past_it(model, chunks, toy_model_config):
    layers = toy_model_config.n_layers
    steps = 30
    cache = KVCache(toy_model_config, 24 + steps)
    token = int(np.argmax(model.prefill(chunks[:2], cache).last_logits))
    arrays = [*cache.keys, *cache.values]
    blocks = block_copies(cache, chunks, layers)
    gen_kv = [[] for _ in range(layers)]
    for step in range(steps):
        want = concat_decode(model, blocks, gen_kv, token, 96 + step)
        out = model.decode_step(cache, token, 96 + step)
        assert np.array_equal(out.logits, want), step
        assert out.score_elements == 24 + step + 1
        token = out.token
    with pytest.raises(RuntimeError, match="arena slots"):
        model.decode_step(cache, token, 96 + steps)
    assert all(a is b for a, b in zip([*cache.keys, *cache.values], arrays))
    assert cache.gen_positions == list(range(96, 96 + steps))
    for layer in range(layers):
        keys, values = generated_kv(cache, layer)
        assert np.array_equal(keys, np.concatenate([k for k, _ in gen_kv[layer]], axis=1))
        assert np.array_equal(values, np.concatenate([v for _, v in gen_kv[layer]], axis=1))
    assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
               for got, ref in zip(block_copies(cache, chunks, layers), blocks) for a, b in zip(got, ref))


def test_swap_mid_generation_matches_fresh_prefill_and_keeps_generated_kv(
        model, chunks, toy_model_config):
    layers = toy_model_config.n_layers
    cache = KVCache(toy_model_config, ARENA)
    token = int(np.argmax(model.prefill([chunks[1], chunks[3], chunks[5]], cache).last_logits))
    for step in range(4):
        token = model.decode_step(cache, token, 96 + step).token
    generated = [generated_kv(cache, layer) for layer in range(layers)]

    arena = cache.keys[0]
    cache.evict(3)
    assert cache.keys[0] is arena  # eviction only edits the slot index
    # admit 0 and 6; chunk 0 now precedes every resident, so 1 and 5 are stale as well
    model.rebuild_blocks(cache, [chunks[i] for i in (0, 1, 5, 6)])

    oracle = KVCache(toy_model_config, ARENA)
    model.prefill([chunks[i] for i in (0, 1, 5, 6)], oracle)
    assert caches_equal(cache, oracle, layers)
    assert cache.gen_positions == [96, 97, 98, 99]
    for layer in range(layers):
        keys, values = generated_kv(cache, layer)
        assert np.array_equal(keys, generated[layer][0])
        assert np.array_equal(values, generated[layer][1])

    gen_kv = [[(k[:, t:t + 1], v[:, t:t + 1]) for t in range(4)] for k, v in generated]
    want = concat_decode(model, block_copies(oracle, chunks, layers), gen_kv, token, 100)
    assert np.array_equal(model.decode_step(cache, token, 100).logits, want)


# --- block attention against the full-mask kernel ---

def full_mask_attend(model, q, k_all, v_all, future):
    """Chunk-block attention with a (block x resident) bool mask: every
    softmax step runs over the full width with future keys set to -inf."""
    cfg = model.config
    group = cfg.n_heads // cfg.n_kv_heads
    out = np.empty((q.shape[1], cfg.n_heads * cfg.d_head), dtype=np.float32)
    scores = np.empty((q.shape[1], k_all.shape[1]), dtype=np.float32)
    for h in range(cfg.n_heads):
        kv = h // group
        np.matmul(q[h], k_all[kv].T, out=scores)
        scores *= model._inv_sqrt_dh
        np.copyto(scores, np.float32(-np.inf), where=future)
        scores -= np.max(scores, axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.sum(scores, axis=1, keepdims=True)
        out[:, h * cfg.d_head:(h + 1) * cfg.d_head] = scores @ v_all[kv]
    return out


def block_major_forward(model, cache, blocks, finish_last, attend):
    """``_forward_blocks`` as a serial loop that runs each block through every
    layer before the next block starts, so the blocks after it hold
    placeholder or stale K/V, with the reference MLP. A block stops once its
    last-layer K/V are written, except the last block under ``finish_last``.
    ``attend(q, k_all, v_all, block)`` is the block attention."""
    last_layer = model.config.n_layers - 1
    for block in blocks:
        span = slice(block.slot, block.slot + len(block.token_ids))
        cos, sin = model._rope_tables(np.arange(block.position, block.position + len(block.token_ids)))
        hidden = model.params["embedding"][block.token_ids]
        for layer in range(last_layer + 1):
            q, k, v = project_qkv(model, hidden, layer, cos, sin)
            keys, values = cache.keys[layer], cache.values[layer]
            keys[:, span] = k
            values[:, span] = v
            if layer == last_layer and not (finish_last and block is blocks[-1]):
                break
            attn = attend(q, keys[:, :block.width], values[:, :block.width], block)
            hidden = hidden + attn @ model.params[f"layers.{layer}.wo"]
            hidden = hidden + mlp(model, hidden, layer)
    return sum(len(b.token_ids) * b.width for b in blocks), hidden if finish_last else None


def full_mask_model(cfg, parts):
    """A model whose passes and decode steps are block-major and mask each
    block with the document position of every arena slot: the resident
    chunks', the generated tokens', then the decode step's own. ``parts``
    holds every chunk."""
    oracle = DecoderModel(cfg)
    step = []  # the position of the decode step under way

    def decode_step(cache, last_token, position):
        step[:] = [position]
        return DecoderModel.decode_step(oracle, cache, last_token, position)

    def forward(cache, blocks, finish_last):
        chunks = [range(parts[i].doc_token_offset, parts[i].doc_token_offset + parts[i].size)
                  for i in cache.resident_indices()]
        positions = np.asarray([p for span in chunks for p in span] + cache.gen_positions + step)

        def attend(q, k_all, v_all, block):
            pos = positions[block.slot:block.slot + len(block.token_ids)]
            return full_mask_attend(oracle, q, k_all, v_all, positions[None, :block.width] > pos[:, None])

        return block_major_forward(oracle, cache, blocks, finish_last, attend)

    oracle.decode_step = decode_step
    oracle._forward_blocks = forward
    return oracle


def arena_session(model, parts):
    """Prefill, stale and mid-generation rebuilds; every observable output."""
    cfg = model.config
    by_idx = {c.chunk_index: c for c in parts}
    last = parts[-1].chunk_index
    seen = []
    arena = sum(c.size for c in parts) + 5  # every chunk, and the five decode steps below

    def snapshot(cache, *outputs):
        used = cache.chunk_tokens + cache.gen_len
        seen.append((outputs, dict(cache.counters),
                     [cache.keys[l][:, :used].copy() for l in range(cfg.n_layers)],
                     [cache.values[l][:, :used].copy() for l in range(cfg.n_layers)]))

    cache = KVCache(cfg, arena)
    result = model.prefill(parts, cache)
    snapshot(cache, result.last_logits)

    # mid-arena admission with recompute off: the tail holds stale K/V
    cache = KVCache(cfg, arena)
    result = model.prefill([by_idx[i] for i in (0, 2, 4, last)], cache)
    snapshot(cache, result.last_logits)
    model.rebuild_blocks(cache, [by_idx[1]])
    snapshot(cache)
    model.rebuild_blocks(cache, [by_idx[2]])  # 4 and the last chunk still stale after it
    snapshot(cache)

    # rebuild mid-generation
    cache = KVCache(cfg, arena)
    token = int(np.argmax(model.prefill([by_idx[i] for i in (1, 3, 5)], cache).last_logits))
    position = parts[-1].doc_token_offset + parts[-1].size
    logits = []
    for _ in range(3):
        out = model.decode_step(cache, token, position)
        logits.append(out.logits)
        token, position = out.token, position + 1
    cache.evict(3)
    model.rebuild_blocks(cache, [parts[i] for i in (0, 1, 4, 5)])  # admit 0 and 4, 1 and 5 stale
    snapshot(cache, *logits)
    for _ in range(2):
        out = model.decode_step(cache, token, position)
        logits.append(out.logits)
        token, position = out.token, position + 1
    snapshot(cache, *logits)
    return seen


def assert_sessions_equal(got, want):
    assert len(got) == len(want) == 6
    for n, ((outputs, counters, keys, values), (w_outputs, w_counters, w_keys, w_values)) in enumerate(
            zip(got, want)):
        assert counters == w_counters, n
        assert len(outputs) == len(w_outputs), n
        assert all(np.array_equal(a, b) for a, b in zip(outputs, w_outputs)), n
        assert all(np.array_equal(a, b) for a, b in zip(keys, w_keys)), n
        assert all(np.array_equal(a, b) for a, b in zip(values, w_values)), n


D_HEAD_32 = ModelConfig(n_layers=2, n_heads=2, d_model=64, d_head=32, d_kv_total=32,
                        vocab_size=512, init_seed=5)
D_HEAD_8 = ModelConfig(n_layers=2, n_heads=4, d_model=32, d_head=8, d_kv_total=16,
                       vocab_size=512, init_seed=6)


@pytest.mark.parametrize("cfg,chunk_size", [
    (D_HEAD_32, 1), (D_HEAD_32, 2), (D_HEAD_32, 7), (D_HEAD_32, 33),
    (D_HEAD_8, 3), (D_HEAD_8, 12),
])
def test_block_attention_matches_the_full_mask_kernel(cfg, chunk_size):
    """Masking only the block's diagonal triangle and zeroing the future tail
    gives the full-mask kernel's bits: logits, used K/V, counters.
    The oracle's passes run one block through every layer before the next
    starts, so the keys after a block hold placeholders or stale K/V."""
    parts = make_chunks(max(40, 6 * chunk_size + chunk_size // 2), chunk_size)
    got, want = arena_session(DecoderModel(cfg), parts), arena_session(full_mask_model(cfg, parts), parts)
    assert np.getbufsize() == DEFAULT_BUFSIZE  # the kernel's ufunc buffer size does not leak
    assert_sessions_equal(got, want)


# --- parallel passes and batched decode against the serial kernel ---

def serial_attend(self, q, k_all, v_all, causal):
    """The attention kernel with every head run in turn, decode included,
    reducing through ``np.max``/``np.sum``. The ufunc buffer size is left at
    its default: it moves data, not arithmetic."""
    cfg = self.config
    group = cfg.n_heads // cfg.n_kv_heads
    tq = q.shape[1]
    out = np.empty((tq, cfg.n_heads * cfg.d_head), dtype=np.float32)
    scores = np.empty((tq, k_all.shape[1]), dtype=np.float32)
    live = scores
    if causal is not None:
        slot, triangle = causal
        live = scores[:, :slot + tq]
        diagonal, tail = scores[:, slot:slot + tq], scores[:, slot + tq:]
    for h in range(cfg.n_heads):
        kv = h // group
        np.matmul(q[h], k_all[kv].T, out=scores)
        live *= self._inv_sqrt_dh
        if causal is not None:
            np.copyto(diagonal, np.float32(-np.inf), where=triangle)
            tail[...] = 0.0
        live -= np.max(live, axis=1, keepdims=True)
        np.exp(live, out=live)
        live /= np.sum(scores, axis=1, keepdims=True)
        out[:, h * cfg.d_head:(h + 1) * cfg.d_head] = scores @ v_all[kv]
    return out


def serial_model(cfg):
    """A model whose passes and decode steps run block-major on the calling
    thread, with attention run one head at a time."""
    oracle = DecoderModel(cfg)

    def attend(q, k_all, v_all, block):
        steps = np.arange(len(block.token_ids))
        return serial_attend(oracle, q, k_all, v_all, (block.slot, steps[None, :] > steps[:, None]))

    oracle._forward_blocks = lambda cache, blocks, finish_last: block_major_forward(
        oracle, cache, blocks, finish_last, attend)
    return oracle


def count_handed_stages(monkeypatch):
    """Count the passes that start helpers to run blocks' stages. Returns
    that count as a list of one."""
    handed = [0]
    pipeline = model_module._pipeline

    def counted(stage, blocks, layers, workspaces, kept):
        handed[0] += len(workspaces) > 1
        pipeline(stage, blocks, layers, workspaces, kept)

    monkeypatch.setattr(model_module, "_pipeline", counted)
    return handed


@pytest.fixture
def parallel_blocks(monkeypatch):
    """Give every pass that passes the gate one thread per block, counting
    the passes that started helpers. Returns that count as a list of one."""
    monkeypatch.setattr(model_module, "_cores", lambda: 8)
    return count_handed_stages(monkeypatch)


KV_1 = ModelConfig(n_layers=2, n_heads=4, d_model=32, d_head=8, d_kv_total=8,
                   vocab_size=512, init_seed=7)
KV_ALL = ModelConfig(n_layers=2, n_heads=4, d_model=32, d_head=8, d_kv_total=32,
                     vocab_size=512, init_seed=8)


@pytest.mark.parametrize("cfg,chunk_size,min_scores", [
    (KV_1, 1, 0), (KV_1, 5, 0), (D_HEAD_8, 1, 0), (D_HEAD_8, 12, 0), (KV_ALL, 3, 0),
    (D_HEAD_32, 7, 0),
    # at the measured gate: the prefills (2704, 1456 and 1248 tokens) and
    # the four-block rebuild (1664 x 2080) are above it, the one-block
    # rebuilds (416 x 1872) below
    (KV_1, 416, None), (D_HEAD_8, 416, None),
])
def test_threaded_block_attention_matches_the_serial_kernel(parallel_blocks, monkeypatch,
                                                            cfg, chunk_size, min_scores):
    """Blocks pipelined over threads give the block-major
    serial kernel's logits, used K/V and counters bit for bit,
    with 1, 2 and 4 KV heads."""
    if min_scores is not None:
        monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", min_scores)
    parts = make_chunks(max(40, 6 * chunk_size + chunk_size // 2), chunk_size)
    got = arena_session(DecoderModel(cfg), parts)
    assert parallel_blocks[0] > 0
    want = arena_session(serial_model(cfg), parts)
    assert np.getbufsize() == DEFAULT_BUFSIZE
    assert_sessions_equal(got, want)


def test_small_blocks_and_one_core_stay_on_the_calling_thread(monkeypatch, chunks, toy_model_config):
    """A pass below the gate, on one core, or of one block hands no block
    to a helper."""
    handed = count_handed_stages(monkeypatch)
    model = DecoderModel(toy_model_config)
    model.prefill(chunks, KVCache(toy_model_config, ARENA))  # 96 tokens x 96 keys: below the gate
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    monkeypatch.setattr(model_module, "_cores", lambda: 1)
    model.prefill(chunks, KVCache(toy_model_config, ARENA))
    monkeypatch.setattr(model_module, "_cores", lambda: 2)
    cache = KVCache(toy_model_config, ARENA)
    model.prefill(chunks[:1], cache)
    model.rebuild_blocks(cache, [chunks[1]])
    assert handed[0] == 0
    model.prefill(chunks, KVCache(toy_model_config, ARENA))  # the gate opens
    assert handed[0] > 0


def test_no_helper_outlives_its_pass(parallel_blocks, monkeypatch, chunks, toy_model_config):
    """A threaded prefill and a threaded rebuild leave the live threads as
    they found them: every helper a pass starts is joined before it returns."""
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    ran_on = set()
    block_stage = DecoderModel._block_stage

    def recorded(self, *args):
        ran_on.add(threading.current_thread().name)
        time.sleep(0.002)  # so the helpers take blocks
        block_stage(self, *args)

    monkeypatch.setattr(DecoderModel, "_block_stage", recorded)
    model = DecoderModel(toy_model_config)
    cache = KVCache(toy_model_config, ARENA)
    for run_pass in (lambda: model.prefill(chunks[:3], cache),
                     lambda: model.rebuild_blocks(cache, chunks[3:])):
        count, names = threading.active_count(), {t.name for t in threading.enumerate()}
        handed = parallel_blocks[0]
        ran_on.clear()
        run_pass()
        assert parallel_blocks[0] > handed
        assert any(name.startswith("apce-attend") for name in ran_on)
        assert threading.active_count() == count
        assert {t.name for t in threading.enumerate()} == names
        assert not any(t.name.startswith("apce-attend") for t in threading.enumerate())


@pytest.mark.parametrize("cfg", [KV_1, D_HEAD_8, KV_ALL, D_HEAD_32])
def test_batched_decode_matches_the_per_head_oracle(cfg):
    """Decode logits at widths 41-70 and 79-108 equal a per-head loop's,
    across an evict and rebuild mid-generation, up to a full arena."""
    parts = make_chunks(64, 8)
    logits = []
    for model in (DecoderModel(cfg), serial_model(cfg)):
        cache = KVCache(cfg, 48 + 60)  # six chunks once 1 and 4 are in
        token = int(np.argmax(model.prefill([parts[i] for i in (0, 2, 3, 5, 6)], cache).last_logits))
        steps = []
        for position in range(64, 64 + 60):
            if position == 94:
                cache.evict(3)
                model.rebuild_blocks(cache, [parts[i] for i in (1, 2, 4, 5, 6)])
            out = model.decode_step(cache, token, position)
            steps.append(out.logits)
            token = out.token
        with pytest.raises(RuntimeError):
            model.decode_step(cache, token, 64 + 60)
        logits.append(steps)
    for n, (got, want) in enumerate(zip(*logits)):
        assert np.array_equal(got, want), n


def tile_counts(tq, width, d_head):
    """The tiles of a block, by the rule ``_row_tiles`` documents: tq /
    _TILE_ROWS of them, rounded half up, fewer while the smallest tile (the
    last, if it has fewer than _TILE_ROWS rows) falls under the floor.
    Returns (tiles, the rows of the smallest, the rows of the largest)."""
    rows, floor = model_module._TILE_ROWS, model_module._TILE_MIN_PRODUCT
    n = max(int(tq / rows + 0.5), 1)
    while n > 1 and min(rows, tq - (n - 1) * rows) * width * d_head < floor:
        n -= 1
    last = tq - (n - 1) * rows
    return n, min(rows, last) if n > 1 else tq, max(rows, last) if n > 1 else tq


def kernel_shapes():
    """(cfg, query rows, width, slot) of the kernel form test: small blocks and
    decode steps with 1, 2 and 4 KV heads, then blocks of 256-800 rows at
    d_head 8 and 32 whose widths sit just below, at and just above the one
    where their smallest tile's product reaches the floor, at the start,
    middle and end of the width."""
    for tq, width, slot in [(1, 1, 0), (1, 2, 1), (1, 41, 40), (1, 300, 299),  # decode steps
                            (5, 5, 0), (12, 48, 0), (12, 48, 24), (12, 48, 36), (33, 100, 40), (33, 100, 67)]:
        for cfg, name in [(KV_1, "1kv"), (D_HEAD_8, "2kv"), (KV_ALL, "4kv")]:
            yield pytest.param(cfg, tq, width, slot, id=f"{tq}-{width}-{slot}-{name}")
    for cfg in (D_HEAD_8, D_HEAD_32):
        for tq in (256, 257, 383, 512, 800):
            _, smallest, _ = tile_counts(tq, 1 << 40, cfg.d_head)
            floor = -(-model_module._TILE_MIN_PRODUCT // (smallest * cfg.d_head))
            assert tile_counts(tq, floor, cfg.d_head)[0] > 1
            for width in (floor - 1, floor, floor + 1):
                for slot in (0, (width - tq) // 2, width - tq):
                    yield pytest.param(cfg, tq, width, slot, id=f"{tq}-{width}-{slot}-dh{cfg.d_head}")


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS on one thread through the test, as ``apce`` and the
    benchmark run it, where that library is found. With more, OpenBLAS
    divides a product's rows among its threads at points that depend on the
    row count, and under the Haswell kernel a row's bits depend on its place
    in a group of 12 rows, so a row tile's bits can differ from its block's,
    as they can between thread counts."""
    blas = apce.cli._openblas()
    get_threads = getattr(blas, "scipy_openblas_get_num_threads64_", None)
    set_threads = getattr(blas, "scipy_openblas_set_num_threads64_", None)
    if get_threads is None or set_threads is None:  # another BLAS: left as it is
        yield
        return
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


@pytest.mark.parametrize("cfg,tq,width,slot", kernel_shapes())
def test_all_heads_and_one_head_kernel_forms_give_a_per_head_loops_bits(one_blas_thread, cfg, tq, width, slot):
    """A block runs in row tiles. A workspace that holds every head's scores
    of its largest tile makes one product per op for all heads, a smaller
    one, down to that tile's scores for one head, a product per head; each
    gives the serial kernel's bits, whatever finite K/V the future keys hold."""
    rng = np.random.default_rng(tq * width + slot)
    model = DecoderModel(cfg)
    q = rng.standard_normal((cfg.n_heads, tq, cfg.d_head), dtype=np.float32)
    arena = rng.standard_normal((2, cfg.n_kv_heads, width + 7, cfg.d_head), dtype=np.float32)
    k_all, v_all = arena[0][:, :width], arena[1][:, :width]  # prefix views, as of an arena
    triangle = np.triu(np.ones((tq, tq), dtype=bool), 1)
    tiles = model_module._row_tiles(tq, width, cfg.d_head)
    sizes = [hi - lo for lo, hi in tiles]
    assert tiles[0][0] == 0 and tiles[-1][1] == tq and all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
    assert (len(tiles), min(sizes), max(sizes)) == tile_counts(tq, width, cfg.d_head)
    scores = max(sizes) * width
    want = serial_attend(model, q, k_all, v_all, (slot, triangle))
    for size in (cfg.n_heads * scores, cfg.n_heads * scores - 1, scores):
        got = model._attend_block(q, k_all, v_all, slot, triangle, tiles, np.empty(size, dtype=np.float32))
        assert np.array_equal(got, want), size
    if tq == 1:  # a decode step's one tile, which its block carries
        assert tuple(tiles) == model_module._ONE_TILE
        assert np.array_equal(serial_attend(model, q, k_all, v_all, None), want)


# d_ff 512, as the default model's, beside a small vocabulary
D_FF_512 = ModelConfig(n_layers=2, n_heads=4, d_model=128, d_head=32, d_kv_total=64,
                       vocab_size=512, init_seed=9)


@pytest.mark.parametrize("rows", [1, 72, 256, 512, 800])
def test_the_mlp_gate_in_row_tiles_gives_the_whole_blocks_bits(rows):
    """The MLP works its SiLU gate out one row tile at a time, in a
    workspace of (rows + the largest tile's rows) x d_ff; its output is the
    reference's, whose intermediates are whole fresh arrays."""
    cfg = D_FF_512
    model = DecoderModel(cfg)
    hidden = np.random.default_rng(rows).standard_normal((rows, cfg.d_model), dtype=np.float32)
    tiles = model_module._row_tiles(rows, 8294, cfg.d_head)
    assert len(tiles) == tile_counts(rows, 8294, cfg.d_head)[0]
    work = np.empty((rows + max(hi - lo for lo, hi in tiles)) * cfg.d_ff, dtype=np.float32)
    for layer in range(cfg.n_layers):
        assert np.array_equal(model._mlp(hidden, layer, tiles, work), mlp(model, hidden, layer)), layer


@pytest.mark.skipif(not _openblas_picks_its_kernel_at_run_time(),
                    reason="needs numpy's OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.skipif("OPENBLAS_CORETYPE" in os.environ, reason="the suite already runs under a chosen kernel")
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_kernel_forms_keep_their_bits_under_another_openblas_kernel(coretype):
    """Row tiles keep their block's bits only where a row's products do not
    depend on the rows beside it, which is up to the BLAS kernel: the kernel
    form test and the last-layer test hold under Prescott's, whose rows go in
    pairs, and Haswell's (also Zen's), whose rows go in groups of 12."""
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
    kernel = _corename(env)  # Prescott's reports itself as Katmai
    assert kernel != _corename(dict(os.environ)) or kernel == coretype, "OPENBLAS_CORETYPE had no effect"
    tests = ("test_all_heads_and_one_head_kernel_forms_give_a_per_head_loops_bits",
             "test_a_prefills_last_layer_attends_its_last_row_tile_only")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"{Path(__file__).resolve()}::{test}" for test in tests)],
        cwd=Path(__file__).resolve().parent.parent, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr


def test_ufunc_buffer_size_does_not_leak_from_any_thread(parallel_blocks, monkeypatch, chunks,
                                                          toy_model_config):
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    monkeypatch.setattr(model_module, "_cores", lambda: 2)
    default = []
    fresh = threading.Thread(target=lambda: default.append(np.getbufsize()))
    fresh.start()
    fresh.join(timeout=10)
    assert not fresh.is_alive()
    caller = threading.get_ident()
    after_stage = {}
    block_stage = DecoderModel._block_stage

    def recorded(self, *args):
        block_stage(self, *args)
        after_stage.setdefault(threading.get_ident(), set()).add(np.getbufsize())
        time.sleep(0.002)  # so both threads take blocks

    monkeypatch.setattr(DecoderModel, "_block_stage", recorded)
    model = DecoderModel(toy_model_config)
    model.prefill(chunks, KVCache(toy_model_config, ARENA))
    assert np.getbufsize() == DEFAULT_BUFSIZE
    assert parallel_blocks[0] > 0
    assert after_stage.pop(caller) == {DEFAULT_BUFSIZE}
    assert after_stage and all(sizes == set(default) for sizes in after_stage.values())


def test_each_block_runs_once_per_stage_with_more_threads_than_cores(monkeypatch):
    """Eight threads on two cores with a 1 µs switch interval: every stage
    that writes K/V runs each of the pass's 12 blocks exactly once, no block
    starts layer l before every earlier block has finished layer l - 1, the
    last layer runs the last block alone and last, and the result is the
    serial kernel's."""
    cfg = ModelConfig(n_layers=3, n_heads=2, d_model=16, d_head=8, d_kv_total=8,
                      vocab_size=64, init_seed=3)
    parts = make_chunks(48, 4, vocab=64)
    want_cache = KVCache(cfg, ARENA)
    want = serial_model(cfg).prefill(parts, want_cache)
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    monkeypatch.setattr(model_module, "_cores", lambda: 8)  # 7 helpers per pass
    events = []
    block_stage = DecoderModel._block_stage

    def recorded(self, cache, layer, block, work):
        events.append(("start", layer, block.slot, threading.get_ident()))
        block_stage(self, cache, layer, block, work)
        events.append(("end", layer, block.slot, threading.get_ident()))

    monkeypatch.setattr(DecoderModel, "_block_stage", recorded)
    model = DecoderModel(cfg)
    last = cfg.n_layers - 1
    slots = [4 * i for i in range(12)]
    expected = [(layer, slot) for layer in range(-1, last) for slot in slots]
    expected.append((last, slots[-1]))
    threads = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5
        for n in range(100):
            events.clear()
            cache = KVCache(cfg, ARENA)
            got = model.prefill(parts, cache)
            assert np.array_equal(got.last_logits, want.last_logits), n
            assert caches_equal(cache, want_cache, cfg.n_layers), n
            for kind in ("start", "end"):
                ran = [(layer, slot) for k, layer, slot, _ in events if k == kind]
                assert sorted(ran) == expected, n
            ended = {(layer, slot): i for i, (kind, layer, slot, _) in enumerate(events) if kind == "end"}
            for i, (kind, layer, slot, _) in enumerate(events):
                if kind == "start" and layer >= 0:  # every key it attends is written before it starts
                    assert all(ended[layer - 1, earlier] < i for earlier in slots if earlier < slot), n
            assert [event[:3] for event in events[-2:]] == [("start", last, slots[-1]), ("end", last, slots[-1])], n
            threads |= {thread for *_, thread in events}
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) > 1


@pytest.mark.parametrize("threads", [1, 2])
def test_only_the_block_that_seeds_generation_runs_the_last_layer(monkeypatch, threads):
    """Each stage that writes K/V runs every block of a pass once. The last
    layer writes no K/V: a rebuild sends no block through it, and a prefill
    sends its last block alone."""
    cfg = ModelConfig(n_layers=3, n_heads=2, d_model=16, d_head=8, d_kv_total=8,
                      vocab_size=64, init_seed=3)
    parts = make_chunks(48, 4, vocab=64)
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    monkeypatch.setattr(model_module, "_cores", lambda: threads)
    calls = []
    block_stage = DecoderModel._block_stage

    def counted(self, cache, layer, block, work):
        calls.append((layer, block.slot, threading.get_ident()))
        time.sleep(0.002)  # so every thread takes blocks
        block_stage(self, cache, layer, block, work)

    monkeypatch.setattr(DecoderModel, "_block_stage", counted)
    model = DecoderModel(cfg)
    last = cfg.n_layers - 1

    def per_layer():
        ran = collections.Counter(layer for layer, _, _ in calls)
        return [ran[layer] for layer in range(-1, cfg.n_layers)]

    cache = KVCache(cfg, ARENA)
    model.prefill(parts[:10], cache)
    assert per_layer() == [10, 10, 10, 1]
    assert [slot for layer, slot, _ in calls if layer == last] == [36]
    assert len({thread for *_, thread in calls}) == threads

    calls.clear()
    model.rebuild_blocks(cache, [parts[i] for i in (1, 5, 10, 11)])
    assert per_layer() == [4, 4, 4, 0]
    assert len({thread for *_, thread in calls}) == threads


@pytest.mark.parametrize("threads", [1, 2])
def test_a_pass_holds_the_states_of_the_blocks_in_flight_only(monkeypatch, threads):
    """At every stage of a prefill and of a rebuild of 12 blocks, at most one
    block per thread holds rope tables, hidden or normed states, besides a
    prefill's last block, which holds them until its last layer. Once the
    pass returns, no block holds any, apart from the prefill's last hidden."""
    cfg = ModelConfig(n_layers=3, n_heads=2, d_model=16, d_head=8, d_kv_total=8,
                      vocab_size=64, init_seed=3)
    parts = make_chunks(48, 4, vocab=64)
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    monkeypatch.setattr(model_module, "_cores", lambda: threads)
    passes, held, ran_on = [], [], set()
    forward_blocks, block_stage = DecoderModel._forward_blocks, DecoderModel._block_stage

    def states(block):
        return block.rope, block.hidden, block.normed

    def holding():
        return sum(any(state is not None for state in states(block)) for block in passes[-1])

    def forward(self, cache, blocks, finish_last):
        passes.append(blocks)
        return forward_blocks(self, cache, blocks, finish_last)

    def recorded(self, *args):
        ran_on.add(threading.get_ident())
        held.append(holding())
        block_stage(self, *args)
        held.append(holding())
        time.sleep(0.001)  # so every thread takes blocks

    monkeypatch.setattr(DecoderModel, "_forward_blocks", forward)
    monkeypatch.setattr(DecoderModel, "_block_stage", recorded)
    model = DecoderModel(cfg)
    cache = KVCache(cfg, ARENA)
    model.prefill(parts, cache)
    assert len(passes[-1]) == 12 and len(held) == 2 * (12 * cfg.n_layers + 1)
    assert max(held) <= threads + 1
    left = [state for block in passes[-1] for state in states(block)]
    del left[-2]  # the last block's hidden, which the prefill may hand on
    assert all(state is None for state in left)
    assert len(ran_on) == threads

    held.clear()
    ran_on.clear()  # a new helper need not reuse the last one's thread id
    model.rebuild_blocks(cache, parts)
    assert len(passes[-1]) == 12 and len(held) == 2 * 12 * cfg.n_layers
    assert max(held) <= threads
    assert all(state is None for block in passes[-1] for state in states(block))
    assert len(ran_on) == threads


def test_a_threads_workspace_holds_one_row_tile_of_scores(one_blas_thread, monkeypatch):
    """A 2-thread prefill of four 512-token chunks at width 2,048 gives each
    thread a workspace no larger than the largest of: its largest row tile's
    scores for one head, the MLP's inner product and one tile of its gate,
    and every head's scores of one row; not a chunk's 512 x 2,048 scores,
    nor the chunk's two 512 x d_ff MLP intermediates. It gives the serial
    kernel's bits."""
    cfg, rows, width = D_FF_512, 512, 2048
    parts = make_chunks(width, rows)
    want = serial_model(cfg).prefill(parts, KVCache(cfg, width)).last_logits
    monkeypatch.setattr(model_module, "_cores", lambda: 2)
    sizes = {}
    block_stage = DecoderModel._block_stage

    def recorded(self, cache, layer, block, work):
        sizes.setdefault(threading.get_ident(), set()).add(work.size)
        time.sleep(0.002)  # so both threads take blocks
        block_stage(self, cache, layer, block, work)

    monkeypatch.setattr(DecoderModel, "_block_stage", recorded)
    got = DecoderModel(cfg).prefill(parts, KVCache(cfg, width)).last_logits
    tile = tile_counts(rows, width, cfg.d_head)[2]
    bound = max(tile * width, (rows + tile) * cfg.d_ff, cfg.n_heads * width)
    assert len(sizes) == 2
    assert all(size <= bound for thread in sizes.values() for size in thread), (sizes, bound)
    assert bound < min(rows * width, rows * 2 * cfg.d_ff)
    assert np.array_equal(got, want)


def test_a_prefills_last_layer_attends_its_last_row_tile_only(one_blas_thread, monkeypatch):
    """A prefill of the default model over six 512-token chunks (width
    3,072) runs its last layer's attention on the last block's last row tile
    alone, and every other attention on every tile. Its logits are those of
    a prefill whose last layer runs every tile, and the serial kernel's."""
    cfg, rows, width = ModelConfig(), 512, 3072
    parts = make_chunks(width, rows)
    tiles = model_module._row_tiles(rows, width, cfg.d_head)
    assert len(tiles) > 1
    model = DecoderModel(cfg)
    want = serial_model(cfg).prefill(parts, KVCache(cfg, width)).last_logits
    attend_block = DecoderModel._attend_block
    calls = []

    def recorded(self, q, k_all, v_all, slot, triangle, block_tiles, work):
        calls.append(tuple(block_tiles))
        return attend_block(self, q, k_all, v_all, slot, triangle, block_tiles, work)

    def every_tile(self, q, k_all, v_all, slot, triangle, block_tiles, work):
        block_tiles = model_module._row_tiles(q.shape[1], k_all.shape[1], cfg.d_head)
        return attend_block(self, q, k_all, v_all, slot, triangle, block_tiles, work)

    monkeypatch.setattr(DecoderModel, "_attend_block", recorded)
    got = model.prefill(parts, KVCache(cfg, width)).last_logits
    assert calls[-1] == tuple(tiles[-1:])
    assert calls[:-1] == [tuple(tiles)] * (len(parts) * (cfg.n_layers - 1))
    monkeypatch.setattr(DecoderModel, "_attend_block", every_tile)
    assert np.array_equal(got, model.prefill(parts, KVCache(cfg, width)).last_logits)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("failing,layer,want", [
    ("caller", -1, [(False, -1)]),
    ("helper", -1, [(True, -1)]),
    ("helper", D_HEAD_8.n_layers - 1, [(False, -1), (False, 0), (True, -1), (True, 0)]),  # the kept block's last layer
], ids=["caller", "helper", "last layer on a helper"])
def test_a_failing_block_raises_after_every_thread_is_done(monkeypatch, failing, layer, want):
    """Whichever thread a block's stage fails on, the pass raises only once
    the other thread has finished its stage, and nothing runs on after it.
    The caller takes the first of the two blocks, so the kept one, whose
    last layer waits for every stage of the caller's, runs on the helper."""
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    monkeypatch.setattr(model_module, "_cores", lambda: 2)
    caller = threading.get_ident()
    caller_in, started = threading.Event(), threading.Event()
    finished = []
    block_stage = DecoderModel._block_stage

    class CallerFirst(threading.Condition):
        """Lets the helper into the pass after the caller."""

        def __enter__(self):
            if threading.get_ident() != caller:
                caller_in.wait(timeout=10)
            entered = super().__enter__()
            caller_in.set()
            return entered

    def one_fails(self, cache, stage, block, work):
        if (threading.get_ident() == caller) == (failing == "caller"):
            started.set()
            if stage == layer:
                raise ArithmeticError(f"stage {stage} failed on the {failing}")
        else:
            started.wait(timeout=10)  # so each thread takes one of the two blocks
            time.sleep(0.2)
        block_stage(self, cache, stage, block, work)
        finished.append((threading.get_ident() == caller, stage))

    monkeypatch.setattr(model_module, "threading", types.SimpleNamespace(Condition=CallerFirst))
    monkeypatch.setattr(DecoderModel, "_block_stage", one_fails)
    with pytest.raises(ArithmeticError, match=f"stage {layer} failed on the {failing}"):
        DecoderModel(D_HEAD_8).prefill(make_chunks(24, 12), KVCache(D_HEAD_8, ARENA))
    assert sorted(finished) == want
    time.sleep(0.1)
    assert len(finished) == len(want)


def test_a_decode_step_is_a_one_workspace_pipeline_that_starts_no_thread(monkeypatch, chunks,
                                                                         toy_model_config):
    """Even with the gate open and eight cores, a decode step hands its one
    block to ``_pipeline`` with one workspace; every stage runs on the
    calling thread and no thread is started."""
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    monkeypatch.setattr(model_module, "_cores", lambda: 8)
    model = DecoderModel(toy_model_config)
    cache = KVCache(toy_model_config, ARENA)
    token = int(np.argmax(model.prefill(chunks, cache).last_logits))
    pipeline, block_stage, start = model_module._pipeline, DecoderModel._block_stage, threading.Thread.start
    passes, stages, started = [], [], []

    def recorded_pipeline(stage, blocks, layers, workspaces, kept):
        passes.append((len(blocks), len(workspaces), kept is blocks[-1]))
        pipeline(stage, blocks, layers, workspaces, kept)

    def recorded_stage(self, cache, layer, block, work):
        stages.append((layer, threading.get_ident()))
        block_stage(self, cache, layer, block, work)

    def recorded_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(model_module, "_pipeline", recorded_pipeline)
    monkeypatch.setattr(DecoderModel, "_block_stage", recorded_stage)
    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    position = chunks[-1].doc_token_offset + chunks[-1].size
    for step in range(3):
        token = model.decode_step(cache, token, position + step).token
    assert passes == [(1, 1, True)] * 3
    caller = threading.get_ident()
    assert stages == [(layer, caller) for layer in range(-1, toy_model_config.n_layers)] * 3
    assert started == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_threaded_prefill(parallel_blocks, monkeypatch, chunks, toy_model_config):
    """A child forked after a threaded prefill starts its own helpers
    rather than wait on ones that do not exist there."""
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    model = DecoderModel(toy_model_config)
    want = model.prefill(chunks, KVCache(toy_model_config, ARENA)).last_logits
    assert parallel_blocks[0] > 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # OpenBLAS's own threads make Python 3.12 warn
        pid = os.fork()
    if pid == 0:  # the child never returns into the test runner
        code = 1
        try:
            got = model.prefill(chunks, KVCache(toy_model_config, ARENA)).last_logits
            code = 0 if np.array_equal(got, want) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's prefill did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


# --- config and weights ---

def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=100, n_heads=4, d_head=32)
    with pytest.raises(ValueError):
        ModelConfig(d_kv_total=33)


def test_same_seed_same_weights_different_seed_differs():
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_head=8, d_kv_total=8,
                      vocab_size=64, init_seed=5)
    a, b = DecoderModel(cfg), DecoderModel(cfg)
    assert np.array_equal(a.params["embedding"], b.params["embedding"])
    c = DecoderModel(ModelConfig(n_layers=1, n_heads=2, d_model=16, d_head=8,
                                 d_kv_total=8, vocab_size=64, init_seed=6))
    assert not np.array_equal(a.params["embedding"], c.params["embedding"])


def test_weights_are_frozen(model):
    with pytest.raises(ValueError):
        model.params["embedding"][0, 0] = 1.0
    with pytest.raises(TypeError):
        model.params["embedding"] = np.zeros(1, dtype=np.float32)


def drawn_one_array_at_a_time(cfg):
    """The weights as each array's own draw, scaled into a new array: the
    reference for ``_init_params``' one draw into one allocation."""
    rng = np.random.default_rng(cfg.init_seed)

    def draw(*shape):
        return rng.standard_normal(shape, dtype=np.float32) * np.float32(0.02)

    params = {"embedding": draw(cfg.vocab_size, cfg.d_model)}
    for layer in range(cfg.n_layers):
        params[f"layers.{layer}.wq"] = draw(cfg.d_model, cfg.n_heads * cfg.d_head)
        params[f"layers.{layer}.wk"] = draw(cfg.d_model, cfg.d_kv_total)
        params[f"layers.{layer}.wv"] = draw(cfg.d_model, cfg.d_kv_total)
        params[f"layers.{layer}.wo"] = draw(cfg.n_heads * cfg.d_head, cfg.d_model)
        params[f"layers.{layer}.w1"] = draw(cfg.d_model, cfg.d_ff)
        params[f"layers.{layer}.w2"] = draw(cfg.d_ff, cfg.d_model)
    params["head"] = draw(cfg.d_model, cfg.vocab_size)
    return params


@pytest.mark.parametrize("default", [False, True], ids=["toy", "default"])
def test_weights_are_one_draw_into_one_read_only_allocation(toy_model_config, default):
    """Every weight is a read-only view of one float32 base that holds them
    all, and equals its own per-array draw bit for bit."""
    cfg = ModelConfig() if default else toy_model_config
    params, want = _init_params.__wrapped__(cfg), drawn_one_array_at_a_time(cfg)
    assert list(params) == list(want)
    base = params["embedding"].base
    assert base.ndim == 1 and base.dtype == np.float32 and not base.flags.writeable
    assert base.size == sum(arr.size for arr in want.values())
    for name, arr in params.items():
        assert arr.base is base and not arr.flags.writeable, name
        assert arr.shape == want[name].shape and arr.dtype == np.float32, name
        assert np.array_equal(arr.view(np.uint32), want[name].view(np.uint32)), name


def test_models_of_one_config_share_the_cached_weights(toy_model_config):
    a, b = DecoderModel(toy_model_config), DecoderModel(toy_model_config)
    fresh = _init_params.__wrapped__(toy_model_config)
    assert sorted(a.params) == sorted(fresh)
    for name, arr in a.params.items():
        assert b.params[name] is arr, name
        assert not arr.flags.writeable, name
        assert arr.dtype == fresh[name].dtype and np.array_equal(arr, fresh[name]), name


def test_grouped_kv_heads_path():
    # default-style dims: 4 query heads sharing 2 KV heads
    cfg = ModelConfig(n_layers=1, n_heads=4, d_model=64, d_head=16, d_kv_total=32,
                      vocab_size=128, init_seed=2)
    model = DecoderModel(cfg)
    parts = make_chunks(24, 8, vocab=128)
    cache = KVCache(cfg, ARENA)
    result = model.prefill(parts, cache)
    assert result.last_logits.shape == (128,)
    assert cache.keys[0][:, :cache.chunk_tokens].shape == (2, 24, 16)
    out = model.decode_step(cache, 3, position=24)
    assert np.all(np.isfinite(out.logits))
