import numpy as np
import pytest

from apce.embed import (
    DegenerateEmbedding,
    EmbeddingStore,
    HashingEmbedder,
    embed_query_text,
    normalize,
)
from apce.reprior import (
    BufferEntry,
    ChunkBuffer,
    EnhancedQueryState,
    ReplacementStats,
    apply_plan,
    reprioritization_due,
    reprioritize,
    update_enhanced_query,
)
from apce.textpipe import TokenSequence, chunk


class FakeHandle:
    """Records cache operations without owning a model."""

    def __init__(self):
        self.evicted = []
        self.rebuilt = []

    def evict(self, indices):
        self.evicted.extend(indices)

    def rebuild(self, admit, recompute):
        self.rebuilt.append((tuple(admit), tuple(recompute)))
        return 0


def basis_store(n, dim=8):
    """Chunk i embeds to the i-th basis vector: cosine(query, e_i) = query[i]/|query|."""
    return EmbeddingStore({i: np.eye(dim)[i] for i in range(n)}, dim=dim)


def query_favoring(weights, dim=8):
    q = np.zeros(dim)
    for idx, w in weights.items():
        q[idx] = w
    return q


def make_chunks(n, m=10):
    seq = TokenSequence(tokens=tuple(range(n * m)))
    return chunk(seq, m)


def filled_buffer(indices, capacity, scores=None):
    buf = ChunkBuffer(capacity=capacity)
    for i in indices:
        buf.add(BufferEntry(chunk_index=i, score=(scores or {}).get(i, 0.0), kv_resident=True))
    return buf


# --- enhanced query ---

def test_no_generated_tokens_returns_tail_embedding_exactly():
    provider = HashingEmbedder(64)
    instruction = "please summarize the second act of the play in a short paragraph"
    state = EnhancedQueryState(instruction_text=instruction, provider=provider)
    want = embed_query_text(instruction[-100:], provider)
    assert np.array_equal(state.current, want)
    assert np.array_equal(update_enhanced_query(state, []), want)


def test_alpha_one_ignores_generated_tokens():
    provider = HashingEmbedder(64)
    state = EnhancedQueryState(instruction_text="describe the garden", provider=provider,
                               blend_alpha=1.0)
    base = state.current.copy()
    update_enhanced_query(state, [5, 6, 7, 8])
    assert np.allclose(state.current, base, atol=1e-12)


def test_blend_matches_direct_formula():
    provider = HashingEmbedder(96)
    instruction = "x" * 40 + " find the relevant passage about rivers"
    generated = [(i * 13) % 500 for i in range(80)]
    state = EnhancedQueryState(instruction_text=instruction, provider=provider,
                               blend_alpha=0.5, recent_token_window=50)
    got = update_enhanced_query(state, generated)
    # independent recomputation of normalize(0.5 a + 0.5 b)
    a = embed_query_text(instruction[-100:], provider)
    b = provider.embed_tokens(generated[-50:])
    blended = 0.5 * a + 0.5 * b
    want = blended / np.linalg.norm(blended)
    assert np.allclose(got, want, atol=1e-12)
    assert abs(np.linalg.norm(got) - 1.0) < 1e-9


def test_window_only_uses_recent_tokens():
    provider = HashingEmbedder(64)
    state = EnhancedQueryState(instruction_text="query text", provider=provider,
                               recent_token_window=4)
    a = update_enhanced_query(state, [1, 2, 3, 4]).copy()
    b = update_enhanced_query(state, [99, 98, 1, 2, 3, 4])
    assert np.array_equal(a, b)


def test_empty_instruction_rejected():
    with pytest.raises(ValueError):
        EnhancedQueryState(instruction_text="", provider=HashingEmbedder(8))


# --- boundary schedule ---

def test_reprioritization_due_examples():
    assert reprioritization_due(50, 50)
    assert not reprioritization_due(49, 50)
    assert not reprioritization_due(0, 50)
    with pytest.raises(ValueError):
        reprioritization_due(10, 0)


def test_interval_one_fires_every_step():
    fired = sum(reprioritization_due(step, 1) for step in range(1, 199))
    assert fired == 198


def test_events_fired_equals_floor_tokens_over_interval():
    for interval in (1, 5, 10, 25, 50, 100, 200):
        tokens = 198
        fired = sum(reprioritization_due(s, interval) for s in range(1, tokens + 1))
        assert fired == tokens // interval


# --- reprioritize ---

def test_unchanged_scores_give_empty_plan():
    chunks = make_chunks(4)
    store = basis_store(4)
    buf = filled_buffer([0, 1], capacity=2)
    plan = reprioritize(buf, store, query_favoring({0: 0.9, 1: 0.8, 2: 0.1}), chunks)
    assert plan.is_empty()


def test_tail_admission_needs_no_recompute():
    # buffer {0,1} -> target {0,2}: admitted chunk is last in document order
    chunks = make_chunks(3)
    store = basis_store(3)
    buf = filled_buffer([0, 1], capacity=2)
    plan = reprioritize(buf, store, query_favoring({0: 0.9, 1: 0.1, 2: 0.5}), chunks)
    assert plan.evict == (1,)
    assert plan.admit == (2,)
    assert plan.recompute == ()


def test_earlier_admission_marks_later_retained_stale():
    # buffer {2,3} -> admit 0 (evicting 3): chunk 2 follows chunk 0, so it is stale
    chunks = make_chunks(4)
    store = basis_store(4)
    buf = filled_buffer([2, 3], capacity=2)
    plan = reprioritize(buf, store, query_favoring({0: 0.9, 2: 0.8, 3: 0.1, 1: 0.0}), chunks)
    assert plan.evict == (3,)
    assert plan.admit == (0,)
    assert plan.recompute == (2,)


def test_earlier_eviction_also_marks_later_retained_stale():
    # buffer {0,3} -> target {3,5}: evicting chunk 0 changes chunk 3's causal
    # context even though the admitted chunk comes after it
    chunks = make_chunks(6)
    store = basis_store(6)
    buf = filled_buffer([0, 3], capacity=2)
    plan = reprioritize(buf, store, query_favoring({3: 0.9, 5: 0.8, 0: 0.1}), chunks)
    assert plan.evict == (0,)
    assert plan.admit == (5,)
    assert plan.recompute == (3,)


def test_pool_restriction_and_growth():
    chunks = make_chunks(6)
    store = basis_store(6)
    buf = filled_buffer([0], capacity=3)
    q = query_favoring({0: 0.9, 1: 0.8, 2: 0.7, 4: 0.95})
    plan = reprioritize(buf, store, q, chunks, candidate_indices=[0, 1, 2])
    assert plan.evict == ()
    assert plan.admit == (1, 2)  # grows toward capacity from the arrived pool only
    with pytest.raises(ValueError):
        reprioritize(buf, store, q, chunks, candidate_indices=[1, 2])  # excludes buffered 0


# --- apply_plan ---

def test_empty_plan_is_a_noop():
    chunks = make_chunks(3)
    store = basis_store(3)
    buf = filled_buffer([0, 1], capacity=2)
    stats = ReplacementStats()
    plan = reprioritize(buf, store, query_favoring({0: 0.9, 1: 0.8}), chunks)
    apply_plan(buf, plan, FakeHandle(), stats)
    assert stats.available == 0 and stats.taken == 0
    assert buf.indices() == [0, 1]


def test_applied_plan_updates_buffer_and_cache_calls():
    chunks = make_chunks(4)
    store = basis_store(4)
    buf = filled_buffer([2, 3], capacity=2, scores={2: 0.8, 3: 0.1})
    stats = ReplacementStats()
    handle = FakeHandle()
    plan = reprioritize(buf, store, query_favoring({0: 0.9, 2: 0.8, 3: 0.1}), chunks)
    apply_plan(buf, plan, handle, stats)
    assert buf.indices() == [0, 2]
    assert handle.evicted == [3]
    assert handle.rebuilt == [((0,), (2,))]
    assert stats.taken == stats.available == 1
    evicted_score = 0.1
    assert min(e.score for e in buf.entries.values()) >= evicted_score


def test_scripted_replay_taken_and_available():
    """Four boundaries, two of which have non-trivial plans."""
    chunks = make_chunks(4)
    store = basis_store(4)
    buf = filled_buffer([0, 1], capacity=2)
    stats = ReplacementStats()
    handle = FakeHandle()
    queries = [
        query_favoring({0: 0.9, 1: 0.8}),          # no change
        query_favoring({0: 0.9, 2: 0.8, 1: 0.1}),  # swap 1 -> 2
        query_favoring({0: 0.9, 2: 0.8, 1: 0.1}),  # fixed point
        query_favoring({3: 0.9, 2: 0.8, 0: 0.1}),  # swap 0 -> 3
    ]
    for step, q in enumerate(queries, start=1):
        buf.generation_step = step
        plan = reprioritize(buf, store, q, chunks)
        apply_plan(buf, plan, handle, stats)
    assert stats.taken == 2
    assert stats.available >= 2
    assert stats.taken <= stats.available
    assert len(buf) <= buf.capacity
    assert [e.applied for e in stats.events] == [True, True]


def test_recovery_evicted_chunk_returns_when_score_recovers():
    chunks = make_chunks(3)
    store = basis_store(3)
    buf = filled_buffer([0, 1], capacity=2)
    stats = ReplacementStats()
    handle = FakeHandle()
    # chunk 1 loses its slot ...
    plan = reprioritize(buf, store, query_favoring({0: 0.9, 2: 0.8, 1: 0.05}), chunks)
    apply_plan(buf, plan, handle, stats)
    assert 1 not in buf
    # ... and is re-admitted once its score re-enters the top-k
    plan = reprioritize(buf, store, query_favoring({0: 0.9, 1: 0.8, 2: 0.05}), chunks)
    apply_plan(buf, plan, handle, stats)
    assert 1 in buf
    admitted = [e for e in stats.events if 1 in e.admit]
    assert admitted, "re-admission must appear in the event log"


def test_observe_only_policy_counts_available_not_taken():
    chunks = make_chunks(3)
    store = basis_store(3)
    buf = filled_buffer([0, 1], capacity=2)
    stats = ReplacementStats()
    plan = reprioritize(buf, store, query_favoring({0: 0.9, 2: 0.8, 1: 0.1}), chunks)
    apply_plan(buf, plan, FakeHandle(), stats, apply=False)
    assert stats.available == 1 and stats.taken == 0
    assert buf.indices() == [0, 1]


def test_buffer_capacity_enforced():
    buf = ChunkBuffer(capacity=1)
    buf.add(BufferEntry(chunk_index=0, score=0.5))
    with pytest.raises(ValueError):
        buf.add(BufferEntry(chunk_index=1, score=0.4))
    with pytest.raises(ValueError):
        ChunkBuffer(capacity=0)


class FixedProvider:
    """Embeds the generated tokens [7, 7] to ``recent`` (None: they cancel to
    zero) and anything else, such as the instruction tail, to e0."""

    dim = 4

    def __init__(self, recent):
        self.recent = recent

    def embed_tokens(self, token_ids):
        if list(token_ids) != [7, 7]:
            return np.eye(self.dim)[0]
        if self.recent is None:
            raise DegenerateEmbedding("signed hashes cancel")
        return self.recent


@pytest.mark.parametrize("alpha,recent", [
    (0.5, -np.eye(4)[0]),  # the blend cancels exactly
    (0.0, None),  # the recent tokens alone count, and they embed to zero
])
def test_zero_blend_falls_back_to_tail(alpha, recent):
    state = EnhancedQueryState(instruction_text="find it", provider=FixedProvider(recent),
                               blend_alpha=alpha)
    got = update_enhanced_query(state, [7, 7])
    assert np.array_equal(got, np.eye(4)[0])
    assert got is state.current
