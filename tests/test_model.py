import os
import signal
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest

import apce.model as model_module
from apce.model import (
    AttentionCost,
    CacheHandle,
    DecoderModel,
    KVCache,
    ModelConfig,
    _init_params,
    _rms_norm,
    attention_cost,
)
from apce.textpipe import TokenSequence, chunk


def make_chunks(n_tokens, chunk_size, vocab=512, salt=0):
    ids = tuple((i * 7919 + salt) % vocab for i in range(n_tokens))
    return chunk(TokenSequence(tokens=ids), chunk_size)


def caches_equal(a: KVCache, b: KVCache, layers: int) -> bool:
    if a.resident_indices() != b.resident_indices():
        return False
    for layer in range(layers):
        for idx in a.resident_indices():
            x, y = a.block(layer, idx), b.block(layer, idx)
            if not (np.array_equal(x.keys, y.keys) and np.array_equal(x.values, y.values)):
                return False
    return True


@pytest.fixture(scope="module")
def model(toy_model_config):
    return DecoderModel(toy_model_config)


@pytest.fixture(scope="module")
def chunks():
    return make_chunks(96, 12)  # 8 chunks of 12 tokens


# --- prefill ---

def test_prefill_deterministic_and_equal_to_itself(model, chunks, toy_model_config):
    c1, c2 = KVCache(toy_model_config), KVCache(toy_model_config)
    r1 = model.prefill(chunks, c1)
    r2 = model.prefill(chunks, c2)
    assert np.array_equal(r1.hidden, r2.hidden)
    assert np.array_equal(r1.last_logits, r2.last_logits)
    assert caches_equal(c1, c2, toy_model_config.n_layers)

    # prefill is the rebuild path run over an empty cache with every chunk reserved
    c3 = KVCache(toy_model_config)
    for c in chunks:
        c3.reserve(c)
    elements = model.rebuild_blocks(c3, [c.chunk_index for c in chunks],
                                    {c.chunk_index: c for c in chunks})
    assert caches_equal(c1, c3, toy_model_config.n_layers)
    assert elements == r1.score_elements
    assert c3.counters.rebuild_elements == c1.counters.prefill_elements
    hidden = [h for h, _ in model._forward_blocks(c3, chunks)]  # once more, over the rebuilt cache
    final = _rms_norm(np.concatenate(hidden, axis=0), model.params["final_norm"])
    assert np.array_equal(final, r1.hidden)
    assert np.array_equal(final[-1] @ model.params["head"], r1.last_logits)
    assert caches_equal(c1, c3, toy_model_config.n_layers)


def test_prefill_empty(model, toy_model_config):
    cache = KVCache(toy_model_config)
    result = model.prefill([], cache)
    assert result.score_elements == 0
    assert result.last_logits is None
    assert cache.resident_tokens == 0


def test_prefill_counts_squared_elements(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config)
    result = model.prefill(chunks[:3], cache)
    assert result.score_elements == 36 * 36
    assert cache.counters.prefill_elements == 36 * 36


def test_prefill_positions_are_document_absolute(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config)
    model.prefill([chunks[0], chunks[2]], cache)
    block = cache.block(0, 2)
    assert (block.pos_start, block.pos_end) == (24, 36)


def test_prefill_requires_empty_cache(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config)
    model.prefill(chunks[:2], cache)
    with pytest.raises(ValueError):
        model.prefill(chunks[2:3], cache)


def test_prefill_position_overflow():
    cfg = ModelConfig(n_layers=1, n_heads=1, d_model=16, d_head=16, d_kv_total=16,
                      vocab_size=64, max_position=10)
    model = DecoderModel(cfg)
    parts = make_chunks(16, 8, vocab=64)
    with pytest.raises(ValueError, match="overflow"):
        model.prefill(parts, KVCache(cfg))


def test_out_of_order_admission_is_stale_until_recomputed(model, chunks, toy_model_config):
    """Admitting an earlier chunk leaves later blocks stale; recompute heals them."""
    layers = toy_model_config.n_layers
    by_idx = {c.chunk_index: c for c in chunks}

    live = KVCache(toy_model_config)
    model.prefill([chunks[0], chunks[2]], live)
    model.rebuild_blocks(live, [1], by_idx)  # admit chunk 1, no recompute of chunk 2

    oracle = KVCache(toy_model_config)
    model.prefill(chunks[:3], oracle)

    stale = live.block(layers - 1, 2)
    fresh = oracle.block(layers - 1, 2)
    assert not np.array_equal(stale.keys, fresh.keys)  # chunk 2 never saw chunk 1

    model.rebuild_blocks(live, [2], by_idx)
    assert caches_equal(live, oracle, layers)


# --- decode ---

def test_decode_deterministic(model, chunks, toy_model_config):
    logits = []
    for _ in range(2):
        cache = KVCache(toy_model_config)
        pre = model.prefill(chunks[:4], cache)
        out = model.decode_step(cache, int(np.argmax(pre.last_logits)), position=96)
        logits.append(out.logits)
    assert np.array_equal(logits[0], logits[1])


def test_decode_elements_equal_resident_plus_generated(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config)
    pre = model.prefill([chunks[0], chunks[3]], cache)  # 24 resident tokens
    token = int(np.argmax(pre.last_logits))
    for step in range(1, 4):
        out = model.decode_step(cache, token, position=96 + step - 1)
        assert out.score_elements == 24 + step
        token = out.token
    # strictly below what a dense cache would cost at the same step
    dense = KVCache(toy_model_config)
    pre_d = model.prefill(chunks, dense)
    out_d = model.decode_step(dense, int(np.argmax(pre_d.last_logits)), position=96)
    assert out_d.score_elements == 96 + 1
    assert 24 + 1 < 96 + 1


def test_decode_logits_finite_and_counters_monotone(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config)
    pre = model.prefill(chunks[:2], cache)
    token = int(np.argmax(pre.last_logits))
    seen = 0
    for step in range(5):
        out = model.decode_step(cache, token, position=96 + step)
        assert np.all(np.isfinite(out.logits))
        assert cache.counters.decode_elements > seen
        seen = cache.counters.decode_elements
        token = out.token


def test_decode_position_must_advance(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config)
    model.prefill(chunks[:2], cache)
    with pytest.raises(ValueError):
        model.decode_step(cache, 1, position=5)  # inside the document


def test_decode_needs_cache(model, toy_model_config):
    with pytest.raises(ValueError):
        model.decode_step(KVCache(toy_model_config), 1, position=0)


# --- causality ---

def test_causality_future_token_cannot_affect_past_logits(model, toy_model_config):
    base = make_chunks(60, 10)
    ids = list(base[0].tokens.tokens)
    flipped = [c.tokens.tokens for c in base]

    cache_a = KVCache(toy_model_config)
    hidden_a = model.prefill(base, cache_a).hidden

    # flip a token in the last chunk, far after position p
    mutated = make_chunks(60, 10)
    tokens = list(mutated[-1].tokens.tokens)
    tokens[-1] = (tokens[-1] + 11) % 512
    object.__setattr__(mutated[-1], "tokens", TokenSequence(tokens=tuple(tokens)))

    cache_b = KVCache(toy_model_config)
    hidden_b = model.prefill(mutated, cache_b).hidden

    p = 25  # strictly before the mutation
    logits_a = hidden_a[p] @ model.params["head"]
    logits_b = hidden_b[p] @ model.params["head"]
    assert np.array_equal(logits_a, logits_b)
    # and the mutation does matter at the end
    assert not np.array_equal(hidden_a[-1], hidden_b[-1])


# --- recompute ---

def test_recompute_idempotent(model, chunks, toy_model_config):
    by_idx = {c.chunk_index: c for c in chunks}
    cache = KVCache(toy_model_config)
    model.prefill(chunks[:3], cache)
    snapshot = {(l, i): (cache.block(l, i).keys.copy(), cache.block(l, i).values.copy())
                for l in range(toy_model_config.n_layers) for i in (0, 1, 2)}
    model.rebuild_blocks(cache, [0, 1, 2], by_idx)
    for (l, i), (k, v) in snapshot.items():
        assert np.array_equal(cache.block(l, i).keys, k)
        assert np.array_equal(cache.block(l, i).values, v)


def test_recompute_first_chunk_is_noop(model, chunks, toy_model_config):
    by_idx = {c.chunk_index: c for c in chunks}
    cache = KVCache(toy_model_config)
    model.prefill(chunks[:3], cache)
    before = cache.block(toy_model_config.n_layers - 1, 0).keys.copy()
    model.rebuild_blocks(cache, [0], by_idx)
    assert np.array_equal(cache.block(toy_model_config.n_layers - 1, 0).keys, before)


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

        live = KVCache(toy_model_config)
        model.prefill([by_idx[i] for i in start], live)
        for i in leave:
            live.evict(i)
        final = sorted(set(start) - set(leave) | set(enter))
        changed_offset = min(by_idx[i].doc_token_offset for i in leave + enter)
        stale = [i for i in set(start) - set(leave)
                 if by_idx[i].doc_token_offset > changed_offset]
        model.rebuild_blocks(live, enter + stale, by_idx)

        oracle = KVCache(toy_model_config)
        model.prefill([by_idx[i] for i in final], oracle)
        assert caches_equal(live, oracle, layers), (start, leave, enter)


def test_cache_handle_missing_tokens(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config)
    model.prefill(chunks[:2], cache)
    handle = CacheHandle(model, cache, chunks[:4])
    with pytest.raises(RuntimeError, match="internal consistency"):
        handle.rebuild(admit=[7], recompute=[])


def test_cache_handle_recompute_disabled_skips_stale(model, chunks, toy_model_config):
    cache = KVCache(toy_model_config)
    model.prefill([chunks[0], chunks[2]], cache)
    handle = CacheHandle(model, cache, chunks, recompute_enabled=False)
    before = cache.block(toy_model_config.n_layers - 1, 2).keys.copy()
    handle.rebuild(admit=[1], recompute=[2])
    after = cache.block(toy_model_config.n_layers - 1, 2).keys
    assert np.array_equal(before, after)  # stale block untouched
    assert cache.has(1)  # admission still happened
    assert np.all(np.isfinite(cache.block(0, 1).keys))


# --- arena ---

def concat_decode(model, blocks, gen_kv, last_token, position):
    """decode_step as a per-chunk cache computes it: every layer concatenates
    the resident chunk blocks and each generated token's K/V. ``blocks[layer]``
    lists (keys, values) in document order; ``gen_kv[layer]`` gains this token's."""
    hidden = model.params["embedding"][[last_token]].copy()
    for layer in range(model.config.n_layers):
        q, k, v = model._project_qkv(hidden, layer, *model._rope_tables(np.asarray([position])))
        gen_kv[layer].append((k, v))
        parts = blocks[layer] + gen_kv[layer]
        k_all = np.concatenate([pk for pk, _ in parts], axis=1)
        v_all = np.concatenate([pv for _, pv in parts], axis=1)
        attn = model._attend_step(q, k_all, v_all)
        hidden = hidden + attn @ model.params[f"layers.{layer}.wo"]
        hidden = hidden + model._mlp(hidden, layer)
    return (_rms_norm(hidden, model.params["final_norm"]) @ model.params["head"])[0]


def block_copies(cache, layers):
    return [[(cache.block(l, i).keys.copy(), cache.block(l, i).values.copy())
             for i in cache.resident_indices()] for l in range(layers)]


def generated_kv(cache, layer):
    tail = slice(cache.chunk_tokens, cache.chunk_tokens + cache.gen_len)
    return cache.keys[layer][:, tail].copy(), cache.values[layer][:, tail].copy()


def test_decode_logits_match_concatenating_oracle(model, chunks, toy_model_config):
    layers = toy_model_config.n_layers
    cache = KVCache(toy_model_config)
    token = int(np.argmax(model.prefill([chunks[0], chunks[2], chunks[3]], cache).last_logits))
    blocks = block_copies(cache, layers)
    gen_kv = [[] for _ in range(layers)]
    for step in range(6):
        want = concat_decode(model, blocks, gen_kv, token, 96 + step)
        out = model.decode_step(cache, token, 96 + step)
        assert np.array_equal(out.logits, want), step
        token = out.token


def test_decode_past_initial_capacity(model, chunks, toy_model_config):
    layers = toy_model_config.n_layers
    cache = KVCache(toy_model_config)
    token = int(np.argmax(model.prefill(chunks[:2], cache).last_logits))
    capacity = cache.capacity
    blocks = block_copies(cache, layers)
    gen_kv = [[] for _ in range(layers)]
    steps = 2 * capacity + 3  # past two doublings
    for step in range(steps):
        want = concat_decode(model, blocks, gen_kv, token, 96 + step)
        out = model.decode_step(cache, token, 96 + step)
        assert np.array_equal(out.logits, want), step
        assert out.score_elements == 24 + step + 1
        token = out.token
    assert cache.capacity > 2 * capacity
    assert cache.gen_positions == list(range(96, 96 + steps))
    for layer in range(layers):
        keys, values = generated_kv(cache, layer)
        assert np.array_equal(keys, np.concatenate([k for k, _ in gen_kv[layer]], axis=1))
        assert np.array_equal(values, np.concatenate([v for _, v in gen_kv[layer]], axis=1))
    assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
               for got, ref in zip(block_copies(cache, layers), blocks) for a, b in zip(got, ref))


def test_swap_mid_generation_matches_fresh_prefill_and_keeps_generated_kv(
        model, chunks, toy_model_config):
    layers = toy_model_config.n_layers
    cache = KVCache(toy_model_config)
    token = int(np.argmax(model.prefill([chunks[1], chunks[3], chunks[5]], cache).last_logits))
    for step in range(4):
        token = model.decode_step(cache, token, 96 + step).token
    generated = [generated_kv(cache, layer) for layer in range(layers)]

    handle = CacheHandle(model, cache, chunks, recompute_enabled=True)
    arena = cache.keys[0]
    handle.evict([3])
    assert cache.keys[0] is arena  # eviction only edits the slot index
    # chunk 0 now precedes every resident, so 1 and 5 are stale as well
    handle.rebuild(admit=[0, 6], recompute=[1, 5])

    oracle = KVCache(toy_model_config)
    model.prefill([chunks[i] for i in (0, 1, 5, 6)], oracle)
    assert caches_equal(cache, oracle, layers)
    assert cache.gen_positions == [96, 97, 98, 99]
    for layer in range(layers):
        keys, values = generated_kv(cache, layer)
        assert np.array_equal(keys, generated[layer][0])
        assert np.array_equal(values, generated[layer][1])

    gen_kv = [[(k[:, t:t + 1], v[:, t:t + 1]) for t in range(4)] for k, v in generated]
    want = concat_decode(model, block_copies(oracle, layers), gen_kv, token, 100)
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


def full_mask_forward_blocks(self, cache, ordered):
    """``_forward_blocks`` with each block's future mask built from the
    document position of every arena slot."""
    width = cache.chunk_tokens
    spans = [cache.block(0, i) for i in cache.resident_indices()]
    positions = np.concatenate([np.arange(b.pos_start, b.pos_end) for b in spans])
    for c in ordered:
        slot = cache.slot(c.chunk_index)
        hidden = self.params["embedding"][np.asarray(c.token_ids, dtype=np.int64)].copy()
        pos = np.arange(c.doc_token_offset, c.doc_token_offset + c.size, dtype=np.int64)
        future = positions[None, :] > pos[:, None]
        cos, sin = self._rope_tables(pos)
        for layer in range(self.config.n_layers):
            q, k, v = self._project_qkv(hidden, layer, cos, sin)
            keys, values = cache.keys[layer], cache.values[layer]
            keys[:, slot:slot + c.size] = k
            values[:, slot:slot + c.size] = v
            attn = full_mask_attend(self, q, keys[:, :width], values[:, :width], future)
            hidden = hidden + attn @ self.params[f"layers.{layer}.wo"]
            hidden = hidden + self._mlp(hidden, layer)
        yield hidden, c.size * width


def arena_session(model, parts):
    """Prefill, stale and mid-generation rebuilds; every observable output."""
    cfg = model.config
    by_idx = {c.chunk_index: c for c in parts}
    last = parts[-1].chunk_index
    seen = []

    def snapshot(cache, *outputs):
        used = cache.chunk_tokens + cache.gen_len
        seen.append((outputs, cache.counters.as_dict(),
                     [cache.keys[l][:, :used].copy() for l in range(cfg.n_layers)],
                     [cache.values[l][:, :used].copy() for l in range(cfg.n_layers)]))

    cache = KVCache(cfg)
    result = model.prefill(parts, cache)
    snapshot(cache, result.hidden, result.last_logits)

    # mid-arena admission with recompute off: the tail holds stale K/V
    cache = KVCache(cfg)
    result = model.prefill([by_idx[i] for i in (0, 2, 4, last)], cache)
    snapshot(cache, result.hidden, result.last_logits)
    CacheHandle(model, cache, parts, recompute_enabled=False).rebuild(admit=[1], recompute=[2, 4, last])
    snapshot(cache)
    model.rebuild_blocks(cache, [2], by_idx)  # 4 and the last chunk still stale after it
    snapshot(cache)

    # rebuild mid-generation
    cache = KVCache(cfg)
    token = int(np.argmax(model.prefill([by_idx[i] for i in (1, 3, 5)], cache).last_logits))
    position = parts[-1].doc_token_offset + parts[-1].size
    logits = []
    for _ in range(3):
        out = model.decode_step(cache, token, position)
        logits.append(out.logits)
        token, position = out.token, position + 1
    handle = CacheHandle(model, cache, parts)
    handle.evict([3])
    handle.rebuild(admit=[0, 4], recompute=[1, 5])
    snapshot(cache, *logits)
    for _ in range(2):
        out = model.decode_step(cache, token, position)
        logits.append(out.logits)
        token, position = out.token, position + 1
    snapshot(cache, *logits)
    return seen


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
    gives the full-mask kernel's bits: hidden states, logits, K/V, counters."""
    parts = make_chunks(max(40, 6 * chunk_size + chunk_size // 2), chunk_size)
    oracle = DecoderModel(cfg)
    oracle._forward_blocks = types.MethodType(full_mask_forward_blocks, oracle)
    bufsize = np.getbufsize()
    got, want = arena_session(DecoderModel(cfg), parts), arena_session(oracle, parts)
    assert np.getbufsize() == bufsize  # the kernel's ufunc buffer size does not leak
    assert len(got) == len(want) == 6
    for n, ((outputs, counters, keys, values), (w_outputs, w_counters, w_keys, w_values)) in enumerate(
            zip(got, want)):
        assert counters == w_counters, n
        assert len(outputs) == len(w_outputs), n
        assert all(np.array_equal(a, b) for a, b in zip(outputs, w_outputs)), n
        assert all(np.array_equal(a, b) for a, b in zip(keys, w_keys)), n
        assert all(np.array_equal(a, b) for a, b in zip(values, w_values)), n


# --- threaded block attention and batched decode against the serial kernel ---

def serial_attend(self, q, k_all, v_all, causal):
    """The attention kernel with every head run in turn on the calling
    thread, decode included, reducing through ``np.max``/``np.sum``."""
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
    with np.errstate():
        if causal is not None:
            np.setbufsize(model_module._LIVE_BUFSIZE)
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
    oracle = DecoderModel(cfg)
    oracle._attend_step = lambda q, k_all, v_all: serial_attend(oracle, q, k_all, v_all, None)
    oracle._attend_block = lambda q, k_all, v_all, slot, triangle, helper_scores: serial_attend(
        oracle, q, k_all, v_all, (slot, triangle))
    return oracle


@pytest.fixture
def parallel_blocks(monkeypatch):
    """Give every block attention one thread per head, counting the blocks
    that handed heads to helpers. Returns that count as a list of one."""
    handed = [0]
    pool = model_module._helper_pool

    def counted():
        handed[0] += 1
        return pool()

    monkeypatch.setattr(model_module, "_cores", lambda: 8)
    monkeypatch.setattr(model_module, "_helper_pool", counted)
    return handed


KV_1 = ModelConfig(n_layers=2, n_heads=4, d_model=32, d_head=8, d_kv_total=8,
                   vocab_size=512, init_seed=7)
KV_ALL = ModelConfig(n_layers=2, n_heads=4, d_model=32, d_head=8, d_kv_total=32,
                     vocab_size=512, init_seed=8)


@pytest.mark.parametrize("cfg,chunk_size,min_scores", [
    (KV_1, 1, 0), (KV_1, 5, 0), (D_HEAD_8, 1, 0), (D_HEAD_8, 12, 0), (KV_ALL, 3, 0),
    (D_HEAD_32, 7, 0),
    # at the measured threshold: the full prefill's blocks (416 x 2704
    # scores) are above it, the later sessions' narrower blocks below
    (KV_1, 416, None), (D_HEAD_8, 416, None),
])
def test_threaded_block_attention_matches_the_serial_kernel(parallel_blocks, monkeypatch,
                                                            cfg, chunk_size, min_scores):
    """Heads spread over threads give the serial kernel's hidden states,
    logits, K/V and counters bit for bit, with 1, 2 and 4 KV heads."""
    if min_scores is not None:
        monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", min_scores)
    parts = make_chunks(max(40, 6 * chunk_size + chunk_size // 2), chunk_size)
    bufsize = np.getbufsize()
    got = arena_session(DecoderModel(cfg), parts)
    assert parallel_blocks[0] > 0
    want = arena_session(serial_model(cfg), parts)
    assert np.getbufsize() == bufsize
    assert len(got) == len(want) == 6
    for n, (a, b) in enumerate(zip(got, want)):
        (outputs, counters, keys, values), (w_outputs, w_counters, w_keys, w_values) = a, b
        assert counters == w_counters, n
        assert len(outputs) == len(w_outputs), n
        assert all(np.array_equal(x, y) for x, y in zip(outputs, w_outputs)), n
        assert all(np.array_equal(x, y) for x, y in zip(keys, w_keys)), n
        assert all(np.array_equal(x, y) for x, y in zip(values, w_values)), n


def test_small_blocks_and_one_core_stay_on_the_calling_thread(monkeypatch, chunks, toy_model_config):
    model = DecoderModel(toy_model_config)
    monkeypatch.setattr(model_module, "_pool", None)
    model.prefill(chunks, KVCache(toy_model_config))  # 12 x 96 scores: below the threshold
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    monkeypatch.setattr(model_module, "_cores", lambda: 1)
    model.prefill(chunks, KVCache(toy_model_config))
    assert model_module._pool is None


@pytest.mark.parametrize("cfg", [KV_1, D_HEAD_8, KV_ALL, D_HEAD_32])
def test_batched_decode_matches_the_per_head_oracle(cfg):
    """Decode logits at widths 41-70 and 79-108 equal a per-head loop's,
    across two arena growths and an evict and rebuild mid-generation."""
    parts = make_chunks(64, 8)
    logits = []
    for model in (DecoderModel(cfg), serial_model(cfg)):
        cache = KVCache(cfg)
        token = int(np.argmax(model.prefill([parts[i] for i in (0, 2, 3, 5, 6)], cache).last_logits))
        steps, capacities = [], [cache.capacity]
        for position in range(64, 64 + 60):
            if position == 94:
                handle = CacheHandle(model, cache, parts)
                handle.evict([3])
                handle.rebuild(admit=[1, 4], recompute=[2, 5, 6])
            out = model.decode_step(cache, token, position)
            steps.append(out.logits)
            capacities.append(cache.capacity)
            token = out.token
        logits.append(steps)
    assert len(set(capacities)) >= 3  # grew at least twice
    for n, (got, want) in enumerate(zip(*logits)):
        assert np.array_equal(got, want), n


def test_ufunc_buffer_size_does_not_leak_from_any_thread(parallel_blocks, monkeypatch, chunks,
                                                          toy_model_config):
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    default = []
    fresh = threading.Thread(target=lambda: default.append(np.getbufsize()))
    fresh.start()
    fresh.join(timeout=10)
    assert not fresh.is_alive()
    after_heads = {}
    block_heads = DecoderModel._block_heads

    def recorded(self, *args):
        block_heads(self, *args)
        after_heads.setdefault(threading.get_ident(), set()).add(np.getbufsize())

    monkeypatch.setattr(DecoderModel, "_block_heads", recorded)
    model = DecoderModel(toy_model_config)
    bufsize = np.getbufsize()
    model.prefill(chunks, KVCache(toy_model_config))
    assert np.getbufsize() == bufsize
    assert parallel_blocks[0] > 0
    assert after_heads.pop(threading.get_ident()) == {bufsize}
    assert after_heads and all(sizes == set(default) for sizes in after_heads.values())
    assert model_module._helper_pool().submit(np.getbufsize).result(timeout=10) == default[0]


def test_each_head_is_taken_once_with_more_threads_than_cores(monkeypatch):
    cfg = ModelConfig(n_layers=1, n_heads=8, d_model=64, d_head=8, d_kv_total=16,
                      vocab_size=64, init_seed=3)
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    monkeypatch.setattr(model_module, "_cores", lambda: 8)
    monkeypatch.setattr(model_module, "_pool", None)  # a fresh pool of 7 helpers
    model = DecoderModel(cfg)
    rng = np.random.default_rng(1)
    q = rng.standard_normal((8, 16, 8), dtype=np.float32)
    k_all, v_all = rng.standard_normal((2, 2, 40, 8), dtype=np.float32)
    causal = (16, np.triu(np.ones((16, 16), dtype=bool), 1))
    scores = [np.empty((16, 40), dtype=np.float32) for _ in range(7)]  # one per helper
    want = serial_attend(model, q, k_all, v_all, causal)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5
        for n in range(200):
            assert np.array_equal(model._attend_block(q, k_all, v_all, *causal, scores), want), n
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)
        if model_module._pool is not None:
            model_module._pool.shutdown()


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_failing_head_raises_after_every_thread_is_done(monkeypatch, failing):
    """Whichever thread raises, ``_attend_block`` raises only once the other
    one has finished, and nothing runs on after it."""
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    monkeypatch.setattr(model_module, "_cores", lambda: 2)
    caller = threading.get_ident()
    finished = []
    block_heads = DecoderModel._block_heads

    def one_fails(self, *args):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise ArithmeticError(f"head failed on the {failing}")
        time.sleep(0.2)
        block_heads(self, *args)
        finished.append(threading.get_ident())

    monkeypatch.setattr(DecoderModel, "_block_heads", one_fails)
    model = DecoderModel(D_HEAD_8)
    rng = np.random.default_rng(0)
    q = rng.standard_normal((4, 6, 8), dtype=np.float32)
    k_all, v_all = rng.standard_normal((2, 2, 20, 8), dtype=np.float32)
    with pytest.raises(ArithmeticError, match=failing):
        model._attend_block(q, k_all, v_all, 10, np.triu(np.ones((6, 6), dtype=bool), 1),
                            [np.empty((6, 20), dtype=np.float32)])
    assert len(finished) == 1
    assert (finished[0] == caller) == (failing == "helper")
    time.sleep(0.1)
    assert len(finished) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_threaded_prefill(parallel_blocks, monkeypatch, chunks, toy_model_config):
    """The helper pool's threads do not survive a fork; the child must make
    its own rather than wait on helpers that never start."""
    monkeypatch.setattr(model_module, "_PARALLEL_MIN_SCORES", 0)
    model = DecoderModel(toy_model_config)
    want = model.prefill(chunks, KVCache(toy_model_config)).hidden
    assert parallel_blocks[0] > 0 and model_module._pool is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads alive
        pid = os.fork()
    if pid == 0:  # the child never returns into the test runner
        code = 1
        try:
            got = model.prefill(chunks, KVCache(toy_model_config)).hidden
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


# --- attention cost ---

@pytest.mark.parametrize(
    "n,k,m,ratio",
    [
        (4800, 3, 800, 0.25),
        (4800, 6, 800, 1.0),
    ],
)
def test_attention_cost_examples(n, k, m, ratio):
    cost = attention_cost(n, k, m)
    assert cost == AttentionCost(n * n, (k * m) ** 2, ratio)


def test_attention_cost_30k_configuration():
    cost = attention_cost(29924, 24, 800)
    assert cost.dense_elements == 29924**2
    assert cost.sparse_elements == 19200**2
    assert cost.ratio == pytest.approx(0.4117, abs=5e-5)


def test_attention_cost_rejects_km_above_n():
    with pytest.raises(ValueError):
        attention_cost(100, 2, 100)


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
    cache = KVCache(cfg)
    result = model.prefill(parts, cache)
    assert result.hidden.shape == (24, 64)
    assert cache.block(0, 0).keys.shape == (2, 8, 16)
    out = model.decode_step(cache, 3, position=24)
    assert np.all(np.isfinite(out.logits))
