"""Cosine scoring of chunks against the query and top-k selection.

Chunk counts are small (tens), so selection just scores everything and
sorts; no approximate nearest-neighbor machinery. Ties break toward the
smaller chunk index, and the selected set is returned in document order so
downstream cache loading stays as in-order as possible. A chunk with a
zero-norm embedding has no direction to compare: it scores 0.0 and ranks
after every other chunk.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .embed import EmbeddingStore


class ChunkScore(NamedTuple):
    chunk_index: int
    score: float
    degenerate: bool = False  # zero-norm chunk embedding


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero-norm input")
    value = float(np.dot(a, b) / (na * nb))
    return max(-1.0, min(1.0, value))


def score_chunks(
    store: EmbeddingStore,
    query: np.ndarray,
    candidate_indices: Iterable[int],
) -> list[ChunkScore]:
    """Score the candidate chunks against the query, in chunk order."""
    return [ChunkScore(i, cosine(query, store[i])) if store[i].any() else ChunkScore(i, 0.0, True)
            for i in sorted(candidate_indices)]


def select_top_k(scores: Sequence[ChunkScore], k: int) -> tuple[int, ...]:
    """Pick the k highest-scoring chunks, as ascending chunk indices.

    Ties go to the smaller chunk index; degenerate chunks rank after all
    others. k larger than the candidate count selects everything.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not scores:
        raise ValueError("scores must be non-empty")
    ranked = sorted(scores, key=lambda s: (s.degenerate, -s.score, s.chunk_index))
    return tuple(sorted(s.chunk_index for s in ranked[:k]))
