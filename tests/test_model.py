import numpy as np
import pytest

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
        attn = model._attend(q, k_all, v_all, None)
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
