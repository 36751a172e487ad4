"""Chunk buffer maintenance during decoding.

The buffer is the KV cache's resident set: the arena's chunk -> slot index
is its only record. The query is the instruction tail's embedding, computed
once per session (``tail_embedding``) and never written. At every
reprioritization boundary ``update_enhanced_query`` blends it with the
embedding of the recent generated tokens it is given, a pure function of
its arguments; all candidate chunks are re-scored against the blend, and
the resident set is planned into the fresh top-k: lowest scorers leave,
better chunks come in, and any retained chunk whose causal context changed
gets marked for K/V rebuild. Applying a plan evicts and rebuilds through the
cache, which updates the resident set.

Staleness rule: under causal masking the values of a block's K/V depend
only on the resident chunks at earlier document positions, so a retained
chunk is stale iff some admitted or evicted chunk sits before it in
document order. The recompute set is all retained chunks past the earliest
changed offset; freshly admitted chunks are always computed from scratch
anyway. The bits also depend on the arena width: the full-width row sums
and scores·V of attention run over every resident chunk. So a chunk that
no rule marks stale can differ in the last bits (about 5e-7 at layers past
the first, with the default model) from a fresh prefill of a wider
resident set, and only a rebuild at the same width is bit-identical to a
fresh prefill.

At steady state (buffer at capacity, enough candidates) a plan swaps
one-for-one, so evictions and admissions balance. While the candidate pool
is still filling up (asynchronous loading) a plan may admit more than it
evicts; the buffer then grows toward capacity and never beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .embed import EmbeddingStore, HashingEmbedder, normalize
from .select import score_chunks, select_top_k
from .textpipe import Chunk, tokenize


@dataclass(frozen=True)
class ReplacementPlan:
    evict: tuple[int, ...]
    admit: tuple[int, ...]
    recompute: tuple[int, ...]

    def is_empty(self) -> bool:
        return not self.evict and not self.admit

    def as_dict(self) -> dict:
        return {
            "evict": list(self.evict),
            "admit": list(self.admit),
            "recompute": list(self.recompute),
        }


@dataclass
class ReplacementEvent:
    step: int
    plan: ReplacementPlan

    def as_dict(self) -> dict:
        # every recorded plan is carried out
        return {"step": self.step, **self.plan.as_dict(), "applied": True}


@dataclass
class ReplacementStats:
    """Replacement accounting: taken counts plans applied, one per boundary
    whose fresh top-k differed from the resident set.

    Every non-empty plan is applied, so ``available`` always equals
    ``taken``. It stays because reports, sweep aggregates and the
    benchmark's ``taken <= available`` law read it.
    """

    taken: int = 0
    available: int = 0
    events: list[ReplacementEvent] = field(default_factory=list)


def tail_embedding(query: str, tail_chars: int, vocab_size: int, provider: HashingEmbedder) -> np.ndarray:
    """The embedding of the instruction tail, the last ``tail_chars``
    characters of the query; ValueError when the tail holds no token or
    embeds to the zero vector."""
    tail = query[-tail_chars:]
    ids = tokenize(tail, vocab_size=vocab_size)
    if not ids or not (embedding := provider.embed_tokens(ids)).any():
        raise ValueError(f"query tail {tail!r}, the last query.tail_chars = {tail_chars} "
                         "characters of the query, holds no token or embeds to the zero vector")
    return embedding


def update_enhanced_query(tail: np.ndarray, recent_tokens: Sequence[int], provider: HashingEmbedder,
                          alpha: float) -> np.ndarray:
    """The query at a boundary: normalize(alpha * tail + (1 - alpha) *
    embed(recent_tokens)), or ``tail`` when that blend is the zero vector."""
    blended = alpha * tail + (1.0 - alpha) * provider.embed_tokens(recent_tokens)
    # a blend that cancels to zero has no direction: keep the instruction tail
    return normalize(blended) if blended.any() else tail


def reprioritize(
    resident: Iterable[int],
    capacity: int,
    store: EmbeddingStore,
    query: np.ndarray,
    chunks: Sequence[Chunk],
    candidate_indices: Iterable[int],
) -> ReplacementPlan:
    """Re-score candidates and plan the transform of ``resident`` into the
    fresh top-``capacity``.

    ``candidate_indices`` is the pool (asynchronous loading exposes only
    arrived chunks); it must cover everything resident. A boundary whose
    top-k equals the resident set yields an empty plan.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    offsets = {c.chunk_index: c.doc_token_offset for c in chunks}
    pool = set(candidate_indices)
    buffered = set(resident)
    if not buffered <= pool:
        raise ValueError("candidate pool must include all resident chunks")

    scores = score_chunks(store, query, pool)
    target = set(select_top_k(scores, capacity))

    admit = tuple(sorted(target - buffered))
    evict = tuple(sorted(buffered - target))
    if not admit:
        return ReplacementPlan((), (), ())

    changed_offsets = [offsets[i] for i in admit + evict]
    earliest_changed = min(changed_offsets)
    retained = sorted(buffered & target)
    recompute = tuple(i for i in retained if offsets[i] > earliest_changed)
    return ReplacementPlan(evict=evict, admit=admit, recompute=recompute)


def apply_plan(step: int, plan: ReplacementPlan, handle, stats: ReplacementStats) -> None:
    """Carry a plan out against the KV cache at generation step ``step``.

    ``handle`` is the session (``sched.Session``): ``evict`` drops chunks
    from its cache, which holds the resident set, and ``rebuild`` computes
    the admitted chunks and, while recompute is on, the stale ones. Empty
    plans change nothing, not even the availability count.
    """
    if plan.is_empty():
        return
    stats.available += 1
    handle.evict(plan.evict)
    handle.rebuild(plan.admit, plan.recompute)
    stats.taken += 1
    stats.events.append(ReplacementEvent(step, plan))
