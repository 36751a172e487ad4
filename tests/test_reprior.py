import numpy as np
import pytest

import apce.sched as sched
from apce.config import LoadModel, RunConfig
from apce.embed import EmbeddingStore, HashingEmbedder
from apce.reprior import (
    ReplacementStats,
    apply_plan,
    reprioritize,
    tail_embedding,
    update_enhanced_query,
)
from apce.select import score_chunks
from apce.textpipe import chunk, tokenize


TOY = RunConfig(chunk_size=10, vocab_size=512, n_layers=1, n_heads=2, d_model=32, d_head=16, d_kv_total=32,
                embedding_dim=48, max_new_tokens=9, interval=3, recent_tokens=4)
DOC = " ".join(f"a{i % 17}b{i % 7} c{i % 5}" for i in range(30))


def tail_of(instruction, provider):
    return tail_embedding(instruction, RunConfig.tail_chars, RunConfig.vocab_size, provider)


class FakeHandle:
    """Records cache operations and keeps the resident set without owning a model."""

    def __init__(self, resident=()):
        self.resident = set(resident)
        self.evicted = []
        self.rebuilt = []

    def evict(self, indices):
        self.evicted.extend(indices)
        self.resident -= set(indices)

    def rebuild(self, admit, recompute):
        self.rebuilt.append((tuple(admit), tuple(recompute)))
        self.resident |= set(admit)
        return 0

    def resident_indices(self):
        return sorted(self.resident)


def basis_store(n, dim=8):
    """Chunk i embeds to the i-th basis vector: cosine(query, e_i) = query[i]/|query|."""
    return EmbeddingStore({i: np.eye(dim)[i] for i in range(n)}, dim=dim)


def query_favoring(weights, dim=8):
    q = np.zeros(dim)
    for idx, w in weights.items():
        q[idx] = w
    return q


def make_chunks(n, m=10):
    return chunk(tuple(range(n * m)), m)


# --- enhanced query ---

def test_no_generated_tokens_returns_tail_embedding_exactly():
    provider = HashingEmbedder(64)
    instruction = "please summarize the second act of the play in a short paragraph"
    want = provider.embed_tokens(tokenize(instruction[-100:]))
    assert np.array_equal(tail_of(instruction, provider), want)
    # a session keeps it as one read-only array
    session = sched.Session(DOC, instruction, TOY)
    want = HashingEmbedder(TOY.embedding_dim).embed_tokens(tokenize(instruction[-100:], vocab_size=TOY.vocab_size))
    assert np.array_equal(session.tail, want)
    assert not session.tail.flags.writeable


def test_alpha_one_ignores_generated_tokens():
    provider = HashingEmbedder(64)
    tail = tail_of("describe the garden", provider)
    base = tail.copy()
    assert np.allclose(update_enhanced_query(tail, [5, 6, 7, 8], provider, 1.0), base, atol=1e-12)
    assert np.array_equal(tail, base)


def test_blend_matches_direct_formula():
    provider = HashingEmbedder(96)
    instruction = "x" * 40 + " find the relevant passage about rivers"
    generated = [(i * 13) % 500 for i in range(80)]
    got = update_enhanced_query(tail_of(instruction, provider), generated[-50:], provider, 0.5)
    # independent recomputation of normalize(0.5 a + 0.5 b)
    a = provider.embed_tokens(tokenize(instruction[-100:]))
    b = provider.embed_tokens(generated[-50:])
    blended = 0.5 * a + 0.5 * b
    want = blended / np.linalg.norm(blended)
    assert np.allclose(got, want, atol=1e-12)
    assert abs(np.linalg.norm(got) - 1.0) < 1e-9


def test_window_only_uses_recent_tokens(monkeypatch):
    """A boundary blends the tail with the last query.recent_tokens tokens only."""
    seen = []

    def recording(tail, recent_tokens, provider, alpha):
        seen.append(list(recent_tokens))
        return update_enhanced_query(tail, recent_tokens, provider, alpha)

    monkeypatch.setattr(sched, "update_enhanced_query", recording)
    trace = sched.simulate_generation(DOC, "summarize the a-passages", "apce", LoadModel(), TOY)
    assert seen == [trace.tokens[:3], trace.tokens[2:6], trace.tokens[5:9]]


def test_empty_instruction_rejected():
    with pytest.raises(ValueError, match="holds no token or embeds to the zero vector"):
        tail_of("", HashingEmbedder(8))


# --- reprioritize ---

def test_unchanged_scores_give_empty_plan():
    chunks = make_chunks(4)
    store = basis_store(4)
    plan = reprioritize([0, 1], 2, store, query_favoring({0: 0.9, 1: 0.8, 2: 0.1}),
                        chunks, range(len(chunks)))
    assert plan.is_empty()


def test_tail_admission_needs_no_recompute():
    # buffer {0,1} -> target {0,2}: admitted chunk is last in document order
    chunks = make_chunks(3)
    store = basis_store(3)
    plan = reprioritize([0, 1], 2, store, query_favoring({0: 0.9, 1: 0.1, 2: 0.5}),
                        chunks, range(len(chunks)))
    assert plan.evict == (1,)
    assert plan.admit == (2,)
    assert plan.recompute == ()


def test_earlier_admission_marks_later_retained_stale():
    # buffer {2,3} -> admit 0 (evicting 3): chunk 2 follows chunk 0, so it is stale
    chunks = make_chunks(4)
    store = basis_store(4)
    plan = reprioritize([2, 3], 2, store, query_favoring({0: 0.9, 2: 0.8, 3: 0.1, 1: 0.0}),
                        chunks, range(len(chunks)))
    assert plan.evict == (3,)
    assert plan.admit == (0,)
    assert plan.recompute == (2,)


def test_earlier_eviction_also_marks_later_retained_stale():
    # buffer {0,3} -> target {3,5}: evicting chunk 0 changes chunk 3's causal
    # context even though the admitted chunk comes after it
    chunks = make_chunks(6)
    store = basis_store(6)
    plan = reprioritize([0, 3], 2, store, query_favoring({3: 0.9, 5: 0.8, 0: 0.1}),
                        chunks, range(len(chunks)))
    assert plan.evict == (0,)
    assert plan.admit == (5,)
    assert plan.recompute == (3,)


def test_pool_restriction_and_growth():
    chunks = make_chunks(6)
    store = basis_store(6)
    q = query_favoring({0: 0.9, 1: 0.8, 2: 0.7, 4: 0.95})
    plan = reprioritize([0], 3, store, q, chunks, candidate_indices=[0, 1, 2])
    assert plan.evict == ()
    assert plan.admit == (1, 2)  # grows toward capacity from the arrived pool only
    with pytest.raises(ValueError):
        reprioritize([0], 3, store, q, chunks, candidate_indices=[1, 2])  # excludes resident 0
    with pytest.raises(ValueError):
        reprioritize([0], 0, store, q, chunks, range(len(chunks)))  # capacity below one


# --- apply_plan ---

def test_empty_plan_is_a_noop():
    chunks = make_chunks(3)
    store = basis_store(3)
    handle = FakeHandle([0, 1])
    stats = ReplacementStats()
    plan = reprioritize(handle.resident_indices(), 2, store, query_favoring({0: 0.9, 1: 0.8}),
                        chunks, range(len(chunks)))
    apply_plan(1, plan, handle, stats)
    assert stats.available == 0 and stats.taken == 0
    assert handle.resident_indices() == [0, 1]


def test_applied_plan_updates_buffer_and_cache_calls():
    chunks = make_chunks(4)
    store = basis_store(4)
    stats = ReplacementStats()
    handle = FakeHandle([2, 3])
    q = query_favoring({0: 0.9, 2: 0.8, 3: 0.1})
    plan = reprioritize(handle.resident_indices(), 2, store, q, chunks, range(len(chunks)))
    apply_plan(1, plan, handle, stats)
    assert handle.resident_indices() == [0, 2]
    assert handle.evicted == [3]
    assert handle.rebuilt == [((0,), (2,))]
    assert stats.taken == stats.available == 1
    score = {s.chunk_index: s.score for s in score_chunks(store, q, range(4))}
    assert min(score[i] for i in handle.resident_indices()) >= score[3]


def test_scripted_replay_taken_and_available():
    """Four boundaries, two of which have non-trivial plans."""
    chunks = make_chunks(4)
    store = basis_store(4)
    stats = ReplacementStats()
    handle = FakeHandle([0, 1])
    queries = [
        query_favoring({0: 0.9, 1: 0.8}),          # no change
        query_favoring({0: 0.9, 2: 0.8, 1: 0.1}),  # swap 1 -> 2
        query_favoring({0: 0.9, 2: 0.8, 1: 0.1}),  # fixed point
        query_favoring({3: 0.9, 2: 0.8, 0: 0.1}),  # swap 0 -> 3
    ]
    for step, q in enumerate(queries, start=1):
        plan = reprioritize(handle.resident_indices(), 2, store, q, chunks, range(len(chunks)))
        apply_plan(step, plan, handle, stats)
    assert stats.taken == 2
    assert stats.available >= 2
    assert stats.taken <= stats.available
    assert len(handle.resident_indices()) <= 2
    assert [e.as_dict() for e in stats.events] == [
        {"step": 2, "evict": [1], "admit": [2], "recompute": [], "applied": True},
        {"step": 4, "evict": [0], "admit": [3], "recompute": [2], "applied": True},
    ]


def test_recovery_evicted_chunk_returns_when_score_recovers():
    chunks = make_chunks(3)
    store = basis_store(3)
    stats = ReplacementStats()
    handle = FakeHandle([0, 1])
    # chunk 1 loses its slot ...
    plan = reprioritize(handle.resident_indices(), 2, store, query_favoring({0: 0.9, 2: 0.8, 1: 0.05}),
                        chunks, range(len(chunks)))
    apply_plan(1, plan, handle, stats)
    assert 1 not in handle.resident
    # ... and is re-admitted once its score re-enters the top-k
    plan = reprioritize(handle.resident_indices(), 2, store, query_favoring({0: 0.9, 1: 0.8, 2: 0.05}),
                        chunks, range(len(chunks)))
    apply_plan(2, plan, handle, stats)
    assert 1 in handle.resident
    admitted = [e for e in stats.events if 1 in e.plan.admit]
    assert admitted, "re-admission must appear in the event log"


class FixedProvider:
    """Embeds the generated tokens [7, 7] to ``recent`` (None: they cancel to
    zero) and anything else, such as the instruction tail, to e0."""

    dim = 4

    def __init__(self, recent):
        self.recent = recent

    def embed_tokens(self, token_ids):
        if list(token_ids) != [7, 7]:
            return np.eye(self.dim)[0]
        return np.zeros(self.dim) if self.recent is None else self.recent


@pytest.mark.parametrize("alpha,recent", [
    (0.5, -np.eye(4)[0]),  # the blend cancels exactly
    (0.0, None),  # the recent tokens alone count, and they embed to zero
])
def test_zero_blend_falls_back_to_tail(alpha, recent):
    provider = FixedProvider(recent)
    tail = tail_of("find it", provider)
    got = update_enhanced_query(tail, [7, 7], provider, alpha)
    assert np.array_equal(got, np.eye(4)[0])
    assert got is tail
