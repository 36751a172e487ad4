"""Generation sessions on a simulated clock.

One session ties the whole pipeline together: tokenize and chunk the
document, embed chunks once, select the top-k, prefill the model, then
decode greedily with periodic reprioritization. Time is virtual; a
``LoadModel`` prescribes how long chunk loading, decoding, and attention
compute take in simulated seconds. Wall-clock numbers are recorded for
profiling only and never decide anything.

Dense mode waits for every chunk and attends to all of them. In selective
mode decoding can start once ``async_start_chunks`` have arrived; chunks
that arrive later join the candidate pool and can be admitted at the next
reprioritization boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import LoadModel, RunConfig
from .embed import EmbeddingStore, HashingEmbedder, load_external_embeddings
from .model import CacheHandle, DecoderModel, KVCache
from .reprior import (
    EnhancedQueryState,
    ReplacementStats,
    apply_plan,
    reprioritization_due,
    reprioritize,
    update_enhanced_query,
)
from .select import score_chunks, select_top_k
from .textpipe import chunk as chunk_tokens
from .textpipe import tokenize


class TraceEvent(NamedTuple):
    time: float
    kind: str
    data: dict


@dataclass
class GenerationTrace:
    mode: str
    events: list[TraceEvent]
    ttft: float
    total_time: float
    tokens: list[int]
    n_chunks: int
    doc_tokens: int
    k_effective: int
    initial_selection: list[int]
    initial_scores: list[tuple[int, float]]
    replacement_stats: ReplacementStats
    counters: dict[str, int]
    wall_seconds: float


def simulate_generation(
    doc_text: str,
    query_text: str,
    mode: str,
    load: LoadModel,
    config: RunConfig,
) -> GenerationTrace:
    """Run one generation session and return its event trace.

    Deterministic given (document, query, mode, load, config): the model is
    seeded, decoding is greedy, and the clock is virtual.
    """
    if mode not in ("dense", "apce"):
        raise ValueError(f"mode must be 'dense' or 'apce', got {mode!r}")
    wall_start = time.perf_counter()

    seq = tokenize(doc_text, vocab_size=config.vocab_size)
    if len(seq) == 0:
        raise ValueError("document produced no tokens")
    doc_tokens = len(seq)
    # the first new token comes from the prefill, so the last decode step
    # runs at doc_tokens + max_new_tokens - 2, which must stay below max_position
    if doc_tokens + config.max_new_tokens - 1 > config.max_position:
        raise ValueError(f"{doc_tokens} document tokens and {config.max_new_tokens} new tokens "
                         f"overflow max_position {config.max_position}")
    chunks = chunk_tokens(seq, config.chunk_size)
    n = len(chunks)

    if config.embedding_provider == "file":
        fragments = load_external_embeddings(config.embedding_file, expected_dim=config.embedding_dim)
        missing = [c.chunk_index for c in chunks if c.chunk_index not in fragments]
        if missing:
            raise ValueError(f"embedding file lacks vectors for chunks {missing}")
        provider = HashingEmbedder(config.embedding_dim)  # still used for query/generated text
        store = EmbeddingStore({i: fragments[i] for i in range(n)}, dim=config.embedding_dim)
    else:
        provider = HashingEmbedder(config.embedding_dim)
        store = EmbeddingStore.from_chunks(chunks, provider)

    query_state = EnhancedQueryState(
        instruction_text=query_text,
        provider=provider,
        vocab_size=config.vocab_size,
        instruction_tail_chars=config.tail_chars,
        recent_token_window=config.recent_tokens,
        blend_alpha=config.alpha,
    )

    events: list[TraceEvent] = []
    latency = load.per_chunk_load_latency

    def arrival(i: int) -> float:
        return (i + 1) * latency

    for c in chunks:
        events.append(TraceEvent(arrival(c.chunk_index), "chunk_loaded", {"chunk": c.chunk_index}))

    if mode == "dense":
        start_count = n
        k_effective = n
    else:
        start_count = load.async_start_chunks
        if start_count > n:
            events.append(TraceEvent(0.0, "warning",
                                     {"message": f"async_start_chunks {start_count} clamped to {n}"}))
            start_count = n
        k_effective = config.effective_k(n)

    now = arrival(start_count - 1)
    pool = [i for i in range(n) if arrival(i) <= now]

    initial = select_top_k(score_chunks(store, query_state.current, pool), k_effective)
    selected = list(initial.selected)

    model = DecoderModel(config.model_config())
    cache = KVCache(model.config)
    prefill = model.prefill([chunks[i] for i in selected], cache)
    now += prefill.score_elements * load.compute_seconds_per_element

    handle = CacheHandle(model, cache, chunks, recompute_enabled=config.recompute)
    stats = ReplacementStats()
    tokens: list[int] = []

    reprioritizing = mode == "apce" and config.reprioritization_enabled
    ttft = 0.0
    last_token = -1
    position = doc_tokens

    for step in range(1, config.max_new_tokens + 1):
        if step == 1:
            # the first token falls out of the prefill's final-position logits
            last_token = int(np.argmax(prefill.last_logits))
            ttft = now
        else:
            out = model.decode_step(cache, last_token, position)
            now += load.decode_latency + out.score_elements * load.compute_seconds_per_element
            last_token = out.token
            position += 1
        tokens.append(last_token)
        events.append(TraceEvent(now, "token_emitted", {"step": step, "token": last_token}))

        # one reprioritization opportunity per emitted token
        if reprioritizing and reprioritization_due(step, config.interval):
            pool = [i for i in range(n) if arrival(i) <= now]
            query = update_enhanced_query(query_state, tokens)
            plan = reprioritize(cache.resident_indices(), k_effective, store, query, chunks,
                                candidate_indices=pool)
            events.append(TraceEvent(now, "reprioritization",
                                     {"step": step, "pool_size": len(pool), **plan.as_dict()}))
            if not plan.is_empty():
                before = cache.counters.rebuild_elements
                apply_plan(step, plan, handle, stats)
                rebuilt = cache.counters.rebuild_elements - before
                now += rebuilt * load.compute_seconds_per_element
                events.append(TraceEvent(now, "recompute",
                                         {"step": step, "elements": rebuilt,
                                          "chunks": sorted(handle.rebuild_targets(plan.admit, plan.recompute))}))

    events.sort(key=lambda e: e.time)
    total_time = events[-1].time if events else 0.0

    return GenerationTrace(
        mode=mode,
        events=events,
        ttft=ttft,
        total_time=total_time,
        tokens=tokens,
        n_chunks=n,
        doc_tokens=doc_tokens,
        k_effective=k_effective,
        initial_selection=selected,
        initial_scores=[(s.chunk_index, s.score) for s in initial.scores],
        replacement_stats=stats,
        counters=cache.counters.as_dict(),
        wall_seconds=time.perf_counter() - wall_start,
    )


def trace_events_json(trace: GenerationTrace) -> list[dict]:
    return [{"time": e.time, "kind": e.kind, "data": e.data} for e in trace.events]
