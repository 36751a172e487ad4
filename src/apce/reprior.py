"""Chunk buffer maintenance during decoding.

The buffer is the KV cache's resident set: the arena's chunk -> slot index
is its only record. At every reprioritization boundary the enhanced query
embedding is refreshed (a normalized blend of the instruction tail and the
most recent generated tokens), all candidate chunks are re-scored, and the
resident set is planned into the fresh top-k: lowest scorers leave, better
chunks come in, and any retained chunk whose causal context changed gets
marked for K/V rebuild. Applying a plan evicts and rebuilds through the
cache, which updates the resident set.

Staleness rule: under causal masking a block's K/V depend exactly on the
resident chunks at earlier document positions, so a retained chunk is stale
iff some admitted or evicted chunk sits before it in document order. The
recompute set is all retained chunks past the earliest changed offset;
freshly admitted chunks are always computed from scratch anyway.

At steady state (buffer at capacity, enough candidates) a plan swaps
one-for-one, so evictions and admissions balance. While the candidate pool
is still filling up (asynchronous loading) a plan may admit more than it
evicts; the buffer then grows toward capacity and never beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .embed import EmbeddingProvider, EmbeddingStore, embed_or_zero, embed_query_text, normalize
from .select import score_chunks, select_top_k
from .textpipe import Chunk, DEFAULT_VOCAB_SIZE

DEFAULT_INTERVAL = 50
DEFAULT_TAIL_CHARS = 100
DEFAULT_RECENT_TOKENS = 50
DEFAULT_BLEND_ALPHA = 0.5


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
    evict: tuple[int, ...]
    admit: tuple[int, ...]
    recompute: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "evict": list(self.evict),
            "admit": list(self.admit),
            "recompute": list(self.recompute),
            "applied": True,  # every recorded plan is carried out
        }


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


@dataclass
class EnhancedQueryState:
    """Query representation that evolves as decoding progresses.

    ``current`` holds the active unit-norm embedding. It starts as the
    embedding of the instruction tail and, once tokens have been generated,
    becomes the normalized blend
    alpha * embed(tail) + (1 - alpha) * embed(recent tokens),
    or the tail embedding again when that blend is the zero vector.
    Callers refresh it only at reprioritization boundaries.
    """

    instruction_text: str
    provider: EmbeddingProvider
    vocab_size: int = DEFAULT_VOCAB_SIZE
    instruction_tail_chars: int = DEFAULT_TAIL_CHARS
    recent_token_window: int = DEFAULT_RECENT_TOKENS
    blend_alpha: float = DEFAULT_BLEND_ALPHA
    current: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not self.instruction_text:
            raise ValueError("instruction_text must be non-empty")
        if not 0.0 <= self.blend_alpha <= 1.0:
            raise ValueError("blend_alpha must lie in [0, 1]")
        self._tail_embedding = embed_query_text(
            self.instruction_text[-self.instruction_tail_chars:],
            self.provider,
            vocab_size=self.vocab_size,
        )
        self.current = self._tail_embedding


def update_enhanced_query(state: EnhancedQueryState, generated_tokens: Sequence[int]) -> np.ndarray:
    """Refresh the blended query embedding from recently generated tokens."""
    if len(generated_tokens) == 0:
        state.current = state._tail_embedding
        return state.current
    recent = list(generated_tokens[-state.recent_token_window:])
    recent_embedding = embed_or_zero(state.provider, recent)
    alpha = state.blend_alpha
    blended = alpha * state._tail_embedding + (1.0 - alpha) * recent_embedding
    # a blend that cancels to zero has no direction: keep the instruction tail
    state.current = normalize(blended) if blended.any() else state._tail_embedding
    return state.current


def reprioritization_due(generation_step: int, interval: int) -> bool:
    """True on steps that land on a reprioritization boundary."""
    if interval < 1:
        raise ValueError("interval must be >= 1")
    return generation_step > 0 and generation_step % interval == 0


def reprioritize(
    resident: Iterable[int],
    capacity: int,
    store: EmbeddingStore,
    query: np.ndarray,
    chunks: Sequence[Chunk],
    candidate_indices: Iterable[int] | None = None,
) -> ReplacementPlan:
    """Re-score candidates and plan the transform of ``resident`` into the
    fresh top-``capacity``.

    ``candidate_indices`` restricts the pool (asynchronous loading exposes
    only arrived chunks); it must cover everything resident. A boundary
    whose top-k equals the resident set yields an empty plan.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    offsets = {c.chunk_index: c.doc_token_offset for c in chunks}
    pool = set(candidate_indices) if candidate_indices is not None else set(store.indices())
    buffered = set(resident)
    if not buffered <= pool:
        raise ValueError("candidate pool must include all resident chunks")

    scores = score_chunks(store, query, candidate_indices=pool)
    target = set(select_top_k(scores, capacity).selected)

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

    ``handle`` is the model-side cache binding (evict + rebuild); its cache
    holds the resident set, so evicting and admitting there is the whole
    update. Empty plans change nothing, not even the availability count.
    """
    if plan.is_empty():
        return
    stats.available += 1
    handle.evict(plan.evict)
    handle.rebuild(plan.admit, plan.recompute)
    stats.taken += 1
    stats.events.append(ReplacementEvent(step, plan.evict, plan.admit, plan.recompute))
