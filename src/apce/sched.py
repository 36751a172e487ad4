"""Generation sessions on a simulated clock.

A ``Session`` ties the whole pipeline together and owns its state: it
tokenizes and chunks the document, embeds chunks and the query tail once,
selects the top-k and prefills the model, then decodes greedily (``step``)
and reprioritizes (``boundary``, against the tail blended with the last
``query.recent_tokens`` tokens). Its query state is the read-only tail
embedding plus its tokens. Its cache is the only record of the resident
set, and it is the one place that decides which chunks a plan rebuilds.
``simulate_generation`` is the token loop that drives a session, with a
boundary at every step that is a multiple of the interval. Time is virtual;
a ``LoadModel`` prescribes how long chunk loading, decoding, and attention
compute take in simulated seconds. Wall-clock numbers are recorded for
profiling only and never decide anything.

Dense mode waits for every chunk and attends to all of them. In selective
mode decoding can start once ``async_start_chunks`` have arrived; chunks
that arrive later join the candidate pool and can be admitted at the next
reprioritization boundary.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np

from .config import LoadModel, RunConfig
from .embed import EmbeddingStore, HashingEmbedder, load_external_embeddings
from .model import DecoderModel, KVCache
from .reprior import ReplacementStats, apply_plan, reprioritize, tail_embedding, update_enhanced_query
from .select import score_chunks, select_top_k
from .textpipe import chunk as chunk_tokens
from .textpipe import tokenize


class TraceEvent(NamedTuple):
    time: float
    kind: str
    data: dict


@dataclass
class GenerationTrace:
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


class Session:
    """One generation session, its state on plain attributes.

    Its mode and latencies are the config's (``mode`` and ``load.*``).
    Construction does everything before the first decode step, up to token
    1, which the prefill's logits give. ``step`` decodes one greedy token,
    ``boundary`` does one reprioritization, and ``trace`` reports. The
    session is the handle ``apply_plan`` evicts and rebuilds through.
    """

    def __init__(self, doc_text: str, query_text: str, config: RunConfig):
        config.validate()
        self.load = load = config.load_model()
        self.recompute_enabled = config.recompute
        self.recent_tokens, self.alpha = config.recent_tokens, config.alpha

        ids = tokenize(doc_text, vocab_size=config.vocab_size)
        if not ids:
            raise ValueError("document produced no tokens")
        self.doc_tokens = len(ids)
        # the first new token comes from the prefill, so the last decode step
        # runs at doc_tokens + max_new_tokens - 2, which must stay below max_position
        if self.doc_tokens + config.max_new_tokens - 1 > config.max_position:
            raise ValueError(f"{self.doc_tokens} document tokens and {config.max_new_tokens} new tokens "
                             f"overflow max_position {config.max_position}")
        self.chunks = chunks = chunk_tokens(ids, config.chunk_size)
        n = len(chunks)

        # a vectors file holds chunks only, not query text
        self.provider = provider = HashingEmbedder(config.embedding_dim)
        if config.embedding_provider == "file":
            fragments = load_external_embeddings(config.embedding_file, expected_dim=config.embedding_dim)
            missing = [c.chunk_index for c in chunks if c.chunk_index not in fragments]
            if missing:
                raise ValueError(f"embedding file lacks vectors for chunks {missing}")
            self.store = EmbeddingStore({i: fragments[i] for i in range(n)}, dim=config.embedding_dim)
        else:
            self.store = EmbeddingStore.from_chunks(chunks, provider)

        self.tail = tail_embedding(query_text, config.tail_chars, config.vocab_size, provider)

        self.events = [TraceEvent(self._arrival(i), "chunk_loaded", {"chunk": i}) for i in range(n)]
        if config.mode == "dense":
            start_count = self.k_effective = n
        else:
            start_count = load.async_start_chunks
            if start_count > n:
                self.events.append(TraceEvent(0.0, "warning",
                                              {"message": f"async_start_chunks {start_count} clamped to {n}"}))
                start_count = n
            self.k_effective = config.effective_k(n)

        self.now = self._arrival(start_count - 1)
        self.initial_scores = score_chunks(self.store, self.tail, self._arrived())
        self.initial = select_top_k(self.initial_scores, self.k_effective)

        self.model = DecoderModel(config.model_config())
        # at most k chunks are resident, beside one generated token per decode step
        capacity = min(self.doc_tokens, self.k_effective * config.chunk_size) + config.max_new_tokens - 1
        self.cache = KVCache(self.model.config, capacity)
        prefill = self.model.prefill([chunks[i] for i in self.initial], self.cache)
        self.now += prefill.score_elements * load.compute_seconds_per_element
        self.stats = ReplacementStats()
        self.tokens: list[int] = []
        self.ttft = self.now
        self._emit(int(np.argmax(prefill.last_logits)))

    def _arrival(self, i: int) -> float:
        return (i + 1) * self.load.per_chunk_load_latency

    def _arrived(self) -> list[int]:
        """The candidate pool: every chunk loaded by now."""
        return [i for i in range(len(self.chunks)) if self._arrival(i) <= self.now]

    def _emit(self, token: int) -> None:
        self.tokens.append(token)
        self.events.append(TraceEvent(self.now, "token_emitted", {"step": len(self.tokens), "token": token}))

    def step(self) -> None:
        """Decode the next greedy token."""
        position = self.doc_tokens + len(self.tokens) - 1
        out = self.model.decode_step(self.cache, self.tokens[-1], position)
        self.now += self.load.decode_latency + out.score_elements * self.load.compute_seconds_per_element
        self._emit(out.token)

    def boundary(self) -> None:
        """Re-score the arrived chunks against the refreshed query, and
        carry out the plan that makes the resident set their top-k."""
        step, pool = len(self.tokens), self._arrived()
        query = update_enhanced_query(self.tail, self.tokens[-self.recent_tokens:], self.provider, self.alpha)
        plan = reprioritize(self.cache.resident_indices(), self.k_effective, self.store, query, self.chunks,
                            candidate_indices=pool)
        self.events.append(TraceEvent(self.now, "reprioritization",
                                      {"step": step, "pool_size": len(pool), **plan.as_dict()}))
        apply_plan(step, plan, self, self.stats)

    def evict(self, indices: Iterable[int]) -> None:
        for idx in indices:
            self.cache.evict(idx)

    def rebuild(self, admit: Iterable[int], recompute: Iterable[int]) -> None:
        """Compute every admitted chunk, and the stale retained ones only
        while recompute is on; charge and log the work."""
        targets = sorted([*admit, *(recompute if self.recompute_enabled else ())])
        elements = self.model.rebuild_blocks(self.cache, [self.chunks[i] for i in targets])
        self.now += elements * self.load.compute_seconds_per_element
        self.events.append(TraceEvent(self.now, "recompute",
                                      {"step": len(self.tokens), "elements": elements, "chunks": targets}))

    def trace(self, wall_seconds: float) -> GenerationTrace:
        events = sorted(self.events, key=lambda e: e.time)
        if not math.isfinite(events[-1].time):  # each latency is finite, their sum need not be
            raise ValueError("the virtual clock overflowed: load.per_chunk_latency, load.decode_latency "
                             "and load.compute_seconds_per_element are too large for this session")
        return GenerationTrace(
            events=events,
            ttft=self.ttft,
            total_time=events[-1].time,
            tokens=self.tokens,
            n_chunks=len(self.chunks),
            doc_tokens=self.doc_tokens,
            k_effective=self.k_effective,
            initial_selection=list(self.initial),
            initial_scores=[(s.chunk_index, s.score) for s in self.initial_scores],
            replacement_stats=self.stats,
            counters=dict(self.cache.counters),
            wall_seconds=wall_seconds,
        )


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
    wall_start = time.perf_counter()
    config = replace(config, mode=mode, **asdict(load))
    session = Session(doc_text, query_text, config)
    reprioritizing = mode == "apce" and config.reprioritization_enabled
    # one reprioritization opportunity per emitted token; the prefill emitted the first
    for step in range(1, config.max_new_tokens + 1):
        if step > 1:
            session.step()
        if reprioritizing and step % config.interval == 0:
            session.boundary()
    return session.trace(time.perf_counter() - wall_start)
