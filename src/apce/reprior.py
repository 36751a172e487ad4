"""Chunk buffer maintenance during decoding.

At every reprioritization boundary the enhanced query embedding is refreshed
(a normalized blend of the instruction tail and the most recent generated
tokens), all candidate chunks are re-scored, and the buffer is transformed
into the fresh top-k: lowest scorers leave, better chunks come in, and any
retained chunk whose causal context changed gets marked for K/V rebuild.

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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embed import EmbeddingProvider, EmbeddingStore, embed_or_zero, embed_query_text, normalize
from .select import score_chunks, select_top_k
from .textpipe import Chunk, DEFAULT_VOCAB_SIZE

DEFAULT_INTERVAL = 50
DEFAULT_TAIL_CHARS = 100
DEFAULT_RECENT_TOKENS = 50
DEFAULT_BLEND_ALPHA = 0.5


@dataclass
class BufferEntry:
    chunk_index: int
    score: float
    kv_resident: bool = False
    admitted_at: int = 0


class ChunkBuffer:
    """The capacity-k set of currently selected chunks."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.entries: dict[int, BufferEntry] = {}
        self.generation_step = 0

    def indices(self) -> list[int]:
        return sorted(self.entries)

    def add(self, entry: BufferEntry) -> None:
        if entry.chunk_index in self.entries:
            raise ValueError(f"chunk {entry.chunk_index} already buffered")
        if len(self.entries) >= self.capacity:
            raise ValueError("buffer at capacity")
        self.entries[entry.chunk_index] = entry

    def remove(self, chunk_index: int) -> BufferEntry:
        return self.entries.pop(chunk_index)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, chunk_index: int) -> bool:
        return chunk_index in self.entries


@dataclass(frozen=True)
class ReplacementPlan:
    evict: tuple[int, ...]
    admit: tuple[int, ...]
    recompute: tuple[int, ...]
    target_scores: Mapping[int, float] = field(default_factory=dict)

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
    applied: bool

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "evict": list(self.evict),
            "admit": list(self.admit),
            "recompute": list(self.recompute),
            "applied": self.applied,
        }


@dataclass
class ReplacementStats:
    """Replacement accounting: available counts boundaries whose fresh top-k
    differed from the buffer, taken counts plans actually applied."""

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
    buffer: ChunkBuffer,
    store: EmbeddingStore,
    query: np.ndarray,
    chunks: Sequence[Chunk],
    candidate_indices: Iterable[int] | None = None,
) -> ReplacementPlan:
    """Re-score candidates and plan the buffer transform into the fresh top-k.

    ``candidate_indices`` restricts the pool (asynchronous loading exposes
    only arrived chunks); it must cover everything currently buffered. A
    boundary whose top-k equals the buffer yields an empty plan.
    """
    offsets = {c.chunk_index: c.doc_token_offset for c in chunks}
    pool = set(candidate_indices) if candidate_indices is not None else set(store.indices())
    buffered = set(buffer.entries)
    if not buffered <= pool:
        raise ValueError("candidate pool must include all buffered chunks")

    scores = score_chunks(store, query, candidate_indices=pool)
    target = set(select_top_k(scores, buffer.capacity).selected)
    score_by_index = {s.chunk_index: s.score for s in scores}

    admit = tuple(sorted(target - buffered))
    evict = tuple(sorted(buffered - target))
    if not admit:
        return ReplacementPlan((), (), (), {})

    changed_offsets = [offsets[i] for i in admit + evict]
    earliest_changed = min(changed_offsets)
    retained = sorted(buffered & target)
    recompute = tuple(i for i in retained if offsets[i] > earliest_changed)
    return ReplacementPlan(
        evict=evict,
        admit=admit,
        recompute=recompute,
        target_scores={i: score_by_index[i] for i in sorted(target)},
    )


def apply_plan(buffer: ChunkBuffer, plan: ReplacementPlan, handle, stats: ReplacementStats,
               apply: bool = True) -> ChunkBuffer:
    """Carry a plan out against the KV cache and update the buffer.

    ``handle`` is the model-side cache binding (evict + rebuild); ``apply``
    exists so a policy could observe an available replacement without taking
    it. Empty plans change nothing, not even the availability count.
    """
    if plan.is_empty():
        return buffer
    stats.available += 1
    if not apply:
        stats.events.append(ReplacementEvent(
            buffer.generation_step, plan.evict, plan.admit, plan.recompute, applied=False))
        return buffer

    handle.evict(plan.evict)
    for idx in plan.evict:
        buffer.remove(idx)
    handle.rebuild(plan.admit, plan.recompute)
    for idx in plan.admit:
        buffer.add(BufferEntry(
            chunk_index=idx,
            score=plan.target_scores.get(idx, 0.0),
            kv_resident=True,
            admitted_at=buffer.generation_step,
        ))
    for idx, entry in buffer.entries.items():
        entry.kv_resident = True
        if idx in plan.target_scores:
            entry.score = plan.target_scores[idx]
    if len(buffer) > buffer.capacity:
        raise RuntimeError("plan application exceeded buffer capacity")
    stats.taken += 1
    stats.events.append(ReplacementEvent(
        buffer.generation_step, plan.evict, plan.admit, plan.recompute, applied=True))
    return buffer
