import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apce.embed import EmbeddingStore
from apce.select import ChunkScore, cosine, score_chunks, select_top_k


def brute_force_top_k(scores, k):
    """Sort every pair (score desc, index asc) and take the first k."""
    ranked = sorted(scores, key=lambda s: (-s.score, s.chunk_index))
    return tuple(sorted(s.chunk_index for s in ranked[:min(k, len(ranked))]))


def test_cosine_identity():
    v = np.asarray([0.3, -1.2, 4.0])
    assert abs(cosine(v, v) - 1.0) < 1e-9
    assert cosine(v, v) <= 1.0  # clamped against rounding above


def test_cosine_orthogonal():
    assert cosine(np.asarray([1.0, 0.0]), np.asarray([0.0, 1.0])) == 0.0


def test_cosine_known_value():
    got = cosine(np.asarray([1.0, 0.0]), np.asarray([1.0, 1.0]))
    assert abs(got - 1.0 / math.sqrt(2.0)) < 1e-9


def test_cosine_rejects_zero_norm():
    with pytest.raises(ValueError):
        cosine(np.zeros(3), np.ones(3))


def test_cosine_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine(np.ones(3), np.ones(4))


def test_top_k_strict_ordering():
    scores = [ChunkScore(0, 0.9), ChunkScore(1, 0.1), ChunkScore(2, 0.5)]
    assert select_top_k(scores, 2).selected == (0, 2)


def test_top_k_degenerate_selects_all():
    scores = [ChunkScore(i, float(i)) for i in range(4)]
    result = select_top_k(scores, 10)
    assert result.selected == (0, 1, 2, 3)
    assert result.k_effective == 4


def test_top_k_tie_break_smaller_index():
    scores = [ChunkScore(3, 0.5), ChunkScore(1, 0.5), ChunkScore(2, 0.5)]
    assert select_top_k(scores, 2).selected == (1, 2)


def test_top_k_seeded_oracle():
    rnd = random.Random(42)
    scores = [ChunkScore(i, rnd.choice([0.0, 0.25, 0.5, rnd.random()])) for i in range(100)]
    assert select_top_k(scores, 17).selected == brute_force_top_k(scores, 17)


@given(
    n=st.integers(min_value=1, max_value=1000),
    k=st.integers(min_value=1, max_value=1000),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_top_k_matches_brute_force(n, k, seed):
    rnd = random.Random(seed)
    # coarse grid of values makes ties common
    scores = [ChunkScore(i, rnd.choice([-0.5, 0.0, 0.1, 0.5, 0.9])) for i in range(n)]
    assert select_top_k(scores, k).selected == brute_force_top_k(scores, k)


@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=30),
    dim=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_selection_scale_invariant(data, n, dim):
    # power-of-two scaling is exact in floating point, so the score values
    # themselves are reproduced bit for bit
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    vectors = rng.normal(size=(n, dim))
    query = rng.normal(size=dim)
    scale = 2.0 ** data.draw(st.integers(min_value=-8, max_value=8))
    k = data.draw(st.integers(min_value=1, max_value=n))
    base = [ChunkScore(i, cosine(query, vectors[i])) for i in range(n)]
    scaled = [ChunkScore(i, cosine(query * scale, vectors[i] * scale)) for i in range(n)]
    assert select_top_k(base, k).selected == select_top_k(scaled, k).selected


def test_monotonicity_raising_a_loser_admits_it():
    scores = [ChunkScore(0, 0.9), ChunkScore(1, 0.8), ChunkScore(2, 0.1)]
    before = select_top_k(scores, 2)
    assert 2 not in before.selected
    bumped = [ChunkScore(0, 0.9), ChunkScore(1, 0.8), ChunkScore(2, 0.85)]
    after = select_top_k(bumped, 2)
    assert 2 in after.selected


def test_degenerate_chunk_ranks_after_every_other():
    store = EmbeddingStore({0: np.asarray([1.0, 0.0]), 1: np.asarray([-1.0, 0.0]),
                            2: np.asarray([0.0, 1.0]), 3: np.zeros(2)}, dim=2)
    scores = score_chunks(store, np.asarray([1.0, 0.0]))
    assert scores[3] == ChunkScore(3, 0.0, degenerate=True)
    assert not any(s.degenerate for s in scores[:3])
    # chunk 1 scores -1.0 and chunk 2 exactly 0.0, yet both outrank chunk 3
    assert select_top_k(scores, 3).selected == (0, 1, 2)
    assert select_top_k([scores[3], scores[2]], 1).selected == (2,)
