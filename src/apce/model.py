"""A small deterministic decoder-only transformer with a chunk-keyed KV cache.

The network is conventional (pre-norm blocks, rotary attention with grouped
KV heads, SiLU MLP, greedy decoding) but these implementation choices are
load-bearing for the rest of the engine:

- Positions are document-absolute. A chunk keeps its original token offsets
  even when it is loaded out of order, and generated tokens sit after the
  full original document. Rotary phases therefore never depend on which
  chunks happen to be resident.

- K/V live in one contiguous arena per layer: the resident chunks in
  document order, then the generated tokens. Every attention reads a
  prefix view of it, so chunk tokens score against the keys of *every*
  resident chunk and a decode step scores against all of them plus the
  generated tokens. The score-element counters are read off the query rows
  and the width of the views attended, so a prefill measures exactly
  (resident tokens)^2, like a conventional full-matrix implementation, and
  operand shapes stay identical between an initial prefill and a later
  rebuild of the same resident set. With identical shapes and identical
  unmasked inputs, float32 results are reproduced bit for bit, which is
  what the rebuild-equals-fresh-prefill checks rely on.

- Document order makes a chunk block's mask positional: the keys before
  its slot are all past, those inside it form a strictly upper triangle
  (the block's own tokens x tokens mask), and all keys after it are
  future. The softmax therefore scales, masks, exponentiates and divides
  only the live prefix (a strided view, run with a small ufunc buffer; see
  ``_LIVE_BUFSIZE``) and writes the exact 0.0 into the future tail. The
  q·kᵀ product, the row sums and the product with V stay full width,
  because narrowing them can change the BLAS path or the summation order
  and with it the last bits; so the counters, which count that full-width
  work, are unchanged, and the results equal a full-mask kernel's.

- A chunk block's heads run on up to one thread per core: the calling
  thread plus process-wide helper threads, each taking the next head until
  none is left. Every head makes the same calls on the same shapes as in a
  serial loop and writes only its own output columns, so outputs and
  counters are the serial kernel's bit for bit. Each helper uses one scores
  buffer through a whole prefill or rebuild, so peak memory grows by one
  (largest block's tokens x resident tokens) float32 buffer per extra
  thread. Blocks whose per-head scores have under a million elements
  (``_PARALLEL_MIN_SCORES``), where two threads lose to one when the other
  core is busy, and decode steps stay on the calling thread. The speedup
  assumes a single-threaded BLAS; a multi-threaded one already spreads
  each product over the cores.

- Prefill and rebuild share one forward path. Both reserve their chunks'
  slots, settle the arena, and then run the chunks one block at a time in
  document order through every layer, so each block attends to final K/V
  before it and masked placeholders or stale K/V after it. Only one
  block's triangle and rope tables are alive at a time.

- The arena changes layout only when residency does. Eviction and
  admission edit a chunk -> slot index; the arrays are re-laid out once,
  before attention next reads them, with the generated tokens moved along.
  Decode steps write their token's K/V in place. Chunk tokens never attend
  the generated tail (it is strictly in the future of every chunk
  position), so rebuilding chunks mid-generation stays byte-equal to a
  document-only prefill.

- Weights are drawn once per process and config. They follow from the
  frozen ``ModelConfig`` alone, so every ``DecoderModel`` of one config
  shares one read-only set of arrays behind a read-only mapping.

Everything runs in float32 with a fixed reduction order.
"""

from __future__ import annotations

import collections
import functools
import os
import threading
from concurrent import futures
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .textpipe import Chunk

_NORM_EPS = np.float32(1e-5)
_NEG_INF = np.float32(-np.inf)
# numpy 2.4 copies the rows of a strided operand through its ufunc buffer
# when they are shorter than about a third of it. With the default 8192
# elements that made every pass over a block's live prefix (a strided view)
# 2-3 times slower per element than a pass over whole rows. Rows longer than
# a third of this size run in place. Buffering moves data and never changes
# the arithmetic, so results are the same bits at any size.
_LIVE_BUFSIZE = 256
# A block's heads go to more than one thread only when one head's score
# matrix (query rows x key width) has at least this many elements. Below
# that, two threads lose to one whenever the second core is busy, and how
# busy it is changes from minute to minute on a shared host, so a session's
# time swings with it. Measured with 4-head blocks of the default model on
# a 2-core Xeon (numpy 2.4, OpenBLAS, one BLAS thread), as two-thread time
# over one-thread time, the two alternating in one process. With both cores
# free: 0.69-0.88 at 100x700 to 100x1000 and 0.52-0.58 from 200x800 to
# 512x3000. With a CPU-bound process on the other core: 1.06-1.19 at
# 200x800 to 200x1800, 1.00-1.06 from 256x1000 to 384x1800, 0.92-1.04 from
# 256x3000 to 512x2000, and 0.91-1.00 at 512x3000.
_PARALLEL_MIN_SCORES = 1_000_000


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and seed. Everything about the weights follows from these."""

    n_layers: int = 4
    n_heads: int = 4
    d_model: int = 128
    d_head: int = 32
    d_kv_total: int = 64
    vocab_size: int = 32768
    rope_theta: float = 10000.0
    init_seed: int = 0
    max_position: int = 65536

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_heads", "d_model", "d_head", "d_kv_total", "vocab_size", "max_position"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_model != self.n_heads * self.d_head:
            raise ValueError("d_model must equal n_heads * d_head")
        if self.d_kv_total % self.d_head != 0:
            raise ValueError("d_kv_total must be a multiple of d_head")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be a multiple of the KV head count")

    @property
    def n_kv_heads(self) -> int:
        return self.d_kv_total // self.d_head

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model


@dataclass
class KVBlock:
    keys: np.ndarray  # (n_kv_heads, tokens, d_head) float32
    values: np.ndarray
    pos_start: int
    pos_end: int  # exclusive

    @property
    def size(self) -> int:
        return self.pos_end - self.pos_start


@dataclass
class CostCounters:
    """Attention score elements actually computed, counted once per
    (query, key) pair (layers and heads share the same pattern)."""

    prefill_elements: int = 0
    rebuild_elements: int = 0
    decode_elements: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "prefill_elements": self.prefill_elements,
            "rebuild_elements": self.rebuild_elements,
            "decode_elements": self.decode_elements,
        }


class KVCache:
    """Per-layer K/V arenas: resident chunks in document order, then generated tokens.

    Each layer owns one keys and one values array shaped (n_kv_heads,
    capacity, d_head). Slots [0, chunk_tokens) hold the resident chunks in
    document order and the next gen_len slots the generated tokens, so every
    attention reads a prefix view of the arena. A chunk -> slot index sits
    beside it. Evicting a chunk or reserving a placeholder only edits the
    index; ``settle`` re-lays the arrays out once, before attention next reads
    them, and the generated tail moves with that re-layout. Capacity grows by
    doubling.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        empty = np.zeros((config.n_kv_heads, 0, config.d_head), dtype=np.float32)
        self.keys: list[np.ndarray] = [empty] * config.n_layers
        self.values: list[np.ndarray] = [empty] * config.n_layers
        # chunk -> (pos_start, pos_end, arena slot); slot is None until settled
        self._index: dict[int, tuple[int, int, int | None]] = {}
        self._unsettled = False
        self.chunk_tokens = 0  # arena slots laid out for chunks
        self.gen_positions: list[int] = []
        self.counters = CostCounters()

    # --- chunk blocks ---

    def has(self, chunk_index: int) -> bool:
        return chunk_index in self._index

    def resident_indices(self) -> list[int]:
        return sorted(self._index, key=lambda i: self._index[i][0])

    @property
    def resident_tokens(self) -> int:
        return sum(end - start for start, end, _ in self._index.values())

    def block(self, layer: int, chunk_index: int) -> KVBlock:
        """Read-only views of one chunk's K/V in the arena."""
        self.settle()
        start, end, slot = self._index[chunk_index]
        keys = self.keys[layer][:, slot:slot + end - start]
        values = self.values[layer][:, slot:slot + end - start]
        keys.flags.writeable = False
        values.flags.writeable = False
        return KVBlock(keys, values, start, end)

    def slot(self, chunk_index: int) -> int:
        self.settle()
        return self._index[chunk_index][2]

    def reserve(self, chunk: Chunk) -> None:
        """Give a chunk about to be computed a zeroed slot at the next settle.

        Placeholders make operand widths match the final resident set before
        rebuilds run; their contents are always masked out.
        """
        self._index[chunk.chunk_index] = (chunk.doc_token_offset,
                                          chunk.doc_token_offset + chunk.size, None)
        self._unsettled = True

    def evict(self, chunk_index: int) -> None:
        if not self.has(chunk_index):
            raise KeyError(f"chunk {chunk_index} is not resident")
        del self._index[chunk_index]
        self._unsettled = True

    @property
    def capacity(self) -> int:
        return self.keys[0].shape[1]

    def settle(self, capacity: int = 0) -> None:
        """Re-lay the arenas out for the current index: one copy of each array.

        Also runs when the arenas must grow to hold ``capacity`` slots.
        """
        if not self._unsettled and capacity <= self.capacity:
            return
        moves = []  # (old slot or None for a placeholder, new slot, tokens)
        slot = 0
        for idx in self.resident_indices():
            start, end, old = self._index[idx]
            moves.append((old, slot, end - start))
            self._index[idx] = (start, end, slot)
            slot += end - start
        gen_old = slice(self.chunk_tokens, self.chunk_tokens + self.gen_len)
        gen_new = slice(slot, slot + self.gen_len)
        needed = max(gen_new.stop, capacity)
        grown = self.capacity if needed <= self.capacity else max(needed, 2 * self.capacity)
        shape = (self.config.n_kv_heads, grown, self.config.d_head)
        for arenas in (self.keys, self.values):
            for layer, old_arena in enumerate(arenas):
                arena = np.empty(shape, dtype=np.float32)
                for old, new, size in moves:
                    arena[:, new:new + size] = 0.0 if old is None else old_arena[:, old:old + size]
                arena[:, gen_new] = old_arena[:, gen_old]
                arenas[layer] = arena
        self.chunk_tokens = slot
        self._unsettled = False

    # --- generated tokens ---

    @property
    def gen_len(self) -> int:
        return len(self.gen_positions)

    def max_resident_position(self) -> int:
        top = max((end - 1 for _, end, _ in self._index.values()), default=-1)
        if self.gen_positions:
            top = max(top, self.gen_positions[-1])
        return top


class PrefillResult(NamedTuple):
    hidden: np.ndarray  # (tokens, d_model) final-layer hidden states, post norm
    last_logits: np.ndarray | None
    score_elements: int


class StepOutput(NamedTuple):
    logits: np.ndarray
    token: int
    score_elements: int


class AttentionCost(NamedTuple):
    dense_elements: int
    sparse_elements: int
    ratio: float


def attention_cost(n_dense_tokens: int, k: int, m: int) -> AttentionCost:
    """Closed-form prefill attention cost: N^2 dense vs (k*m)^2 selected."""
    if k * m > n_dense_tokens:
        raise ValueError("k*m must not exceed the dense token count")
    dense = n_dense_tokens * n_dense_tokens
    sparse = (k * m) * (k * m)
    return AttentionCost(dense, sparse, sparse / dense)


class DecoderModel:
    """Weights are fully determined by the config seed and are read-only.

    Models of one config share the same weight arrays: they are drawn once
    per process (the most recent config is kept) and never copied.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params = _init_params(config)
        half = config.d_head // 2
        self._inv_freq = config.rope_theta ** (-np.arange(0, half, dtype=np.float64) * 2.0 / config.d_head)
        self._inv_sqrt_dh = np.float32(1.0 / np.sqrt(config.d_head))

    # --- public operations ---

    def prefill(self, chunks: Sequence[Chunk], cache: KVCache) -> PrefillResult:
        """Process chunks (ascending document order) into an empty cache.

        Attention is causal over the chunks being prefilled; their K/V fill
        the cache's arena in document order, with document-absolute
        positions. Returns final hidden states for every processed token
        plus the last position's logits (the seed of greedy generation).
        """
        cfg = self.config
        if cache.resident_tokens or cache.gen_len:
            raise ValueError("prefill requires an empty cache")
        ordered = sorted(chunks, key=lambda c: c.chunk_index)
        for a, b in zip(ordered, ordered[1:]):
            if a.chunk_index == b.chunk_index:
                raise ValueError(f"duplicate chunk index {a.chunk_index}")
        if not ordered:
            return PrefillResult(np.zeros((0, cfg.d_model), dtype=np.float32), None, 0)
        if any(c.doc_token_offset + c.size > cfg.max_position for c in ordered):
            raise ValueError("chunk positions overflow max_position")

        for c in ordered:
            cache.reserve(c)
        cache.settle()
        hidden, block_elements = zip(*self._forward_blocks(cache, ordered))
        elements = sum(block_elements)
        final = _rms_norm(np.concatenate(hidden, axis=0), self.params["final_norm"])
        last_logits = final[-1] @ self.params["head"]
        cache.counters.prefill_elements += elements
        return PrefillResult(final, last_logits, elements)

    def decode_step(self, cache: KVCache, last_token: int, position: int) -> StepOutput:
        """One greedy decode step at a document-absolute position.

        Attends over every resident chunk block plus all generated-token K/V
        (including this token's own, written first). No mask is needed:
        everything resident lies at or before the query position.
        """
        cfg = self.config
        if position >= cfg.max_position:
            raise ValueError("position overflow")
        if cache.resident_tokens == 0 and cache.gen_len == 0:
            raise ValueError("decode_step needs a non-empty cache")
        if position <= cache.max_resident_position():
            raise ValueError("decode position must follow all cached positions")

        width = cache.resident_tokens + cache.gen_len + 1  # chunks, generated tokens, this token
        cache.settle(capacity=width)
        cos, sin = self._rope_tables(np.asarray([position], dtype=np.int64))
        hidden = self.params["embedding"][np.asarray([last_token], dtype=np.int64)].copy()
        for layer in range(cfg.n_layers):
            q, k, v = self._project_qkv(hidden, layer, cos, sin)
            keys, values = cache.keys[layer], cache.values[layer]
            keys[:, width - 1:width] = k
            values[:, width - 1:width] = v
            k_all = keys[:, :width]
            attn = self._attend_step(q, k_all, values[:, :width])
            hidden = hidden + attn @ self.params[f"layers.{layer}.wo"]
            hidden = hidden + self._mlp(hidden, layer)
        cache.gen_positions.append(position)

        final = _rms_norm(hidden, self.params["final_norm"])
        logits = (final @ self.params["head"])[0]
        token = int(np.argmax(logits))
        elements = k_all.shape[1]
        cache.counters.decode_elements += elements
        return StepOutput(logits, token, elements)

    def rebuild_blocks(self, cache: KVCache, chunk_indices: Iterable[int],
                       chunks_by_index: Mapping[int, Chunk]) -> int:
        """Recompute K/V blocks (admissions and stale residents alike).

        Chunks are processed in ascending document order; each one attends
        over the full resident chunk set with future positions masked, which
        reproduces a from-scratch prefill of the same resident set bit for
        bit. Generation K/V are excluded: they are in every chunk's future.
        """
        targets = sorted(set(chunk_indices))
        if not targets:
            return 0
        missing = [i for i in targets if i not in chunks_by_index]
        if missing:
            raise RuntimeError(f"internal consistency: no tokens available for chunks {missing}")
        for idx in targets:
            if not cache.has(idx):
                cache.reserve(chunks_by_index[idx])
        cache.settle()

        ordered = sorted((chunks_by_index[i] for i in targets), key=lambda c: c.doc_token_offset)
        elements = sum(n for _, n in self._forward_blocks(cache, ordered))
        cache.counters.rebuild_elements += elements
        return elements

    # --- internals ---

    def _forward_blocks(self, cache: KVCache, ordered: Sequence[Chunk]
                        ) -> Iterator[tuple[np.ndarray, int]]:
        """Run settled resident chunks through every layer, one block at a time.

        ``ordered`` must be in document order: each block writes its K/V into
        its arena slot layer by layer and attends over the whole resident
        chunk set with future positions masked, so the blocks before it must
        already hold their final K/V. Yields, per block, its final-layer
        hidden states (before the final norm) and the score elements
        computed. Work happens as the caller iterates, so callers exhaust it;
        one that drops the hidden states keeps a single block's alive.
        """
        width = cache.chunk_tokens
        rows = max((c.size for c in ordered), default=0)
        # One scores buffer per helper thread, made here by the calling
        # thread and reused by every block and layer. A buffer that a helper
        # allocates lands in (and grows) that thread's own malloc arena, and
        # fresh buffers for each block made malloc hand memory back and fault
        # it in again (about 34k page faults per 3k-token prefill on two
        # threads; about 3k with these). The calling thread makes its own per
        # block, as a serial loop does: kept for the whole pass, it pushed the
        # MLP's temporaries to the top of the heap, where malloc trims them,
        # and a serial 9 x 200-token rebuild took 930 page faults, not 21.
        helper_scores = [np.empty((rows, width), dtype=np.float32)
                         for _ in range(self._block_threads(rows, width) - 1)]
        for c in ordered:
            slot = cache.slot(c.chunk_index)
            hidden = self.params["embedding"][np.asarray(c.token_ids, dtype=np.int64)].copy()
            pos = np.arange(c.doc_token_offset, c.doc_token_offset + c.size, dtype=np.int64)
            # position-only, so one serves every layer of this block
            triangle = pos[None, :] > pos[:, None]
            cos, sin = self._rope_tables(pos)
            for layer in range(self.config.n_layers):
                q, k, v = self._project_qkv(hidden, layer, cos, sin)
                keys, values = cache.keys[layer], cache.values[layer]
                keys[:, slot:slot + c.size] = k
                values[:, slot:slot + c.size] = v
                k_all = keys[:, :width]
                attn = self._attend_block(q, k_all, values[:, :width], slot, triangle, helper_scores)
                hidden = hidden + attn @ self.params[f"layers.{layer}.wo"]
                hidden = hidden + self._mlp(hidden, layer)
            yield hidden, c.size * k_all.shape[1]

    def _project_qkv(self, hidden: np.ndarray, layer: int, cos: np.ndarray, sin: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """cos/sin: rope tables of the rows' positions (``_rope_tables``)."""
        cfg = self.config
        x = _rms_norm(hidden, self.params[f"layers.{layer}.attn_norm"])
        q = x @ self.params[f"layers.{layer}.wq"]
        k = x @ self.params[f"layers.{layer}.wk"]
        v = x @ self.params[f"layers.{layer}.wv"]
        q = _split_heads(q, cfg.n_heads, cfg.d_head)
        k = _split_heads(k, cfg.n_kv_heads, cfg.d_head)
        v = _split_heads(v, cfg.n_kv_heads, cfg.d_head)
        return _apply_rope(q, cos, sin), _apply_rope(k, cos, sin), v

    def _attend_step(self, q: np.ndarray, k_all: np.ndarray, v_all: np.ndarray) -> np.ndarray:
        """Decode attention: q (H, 1, dh) over every key of k_all/v_all (Hk, tk, dh).

        Each op runs once over all heads. numpy's batched matmul still makes
        one single-row product per head, so the bits are those of a per-head
        loop. The work per head (about 20 µs) is too small to hand to
        another thread.
        """
        cfg = self.config
        hk, dh = cfg.n_kv_heads, cfg.d_head
        scores = np.matmul(q.reshape(hk, cfg.n_heads // hk, 1, dh), k_all.transpose(0, 2, 1)[:, None])
        scores *= self._inv_sqrt_dh
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        return np.matmul(scores, v_all[:, None]).reshape(1, cfg.n_heads * dh)

    def _block_threads(self, tq: int, width: int) -> int:
        """Threads for a block's heads: one per core, if a head's scores are
        large enough to be worth handing over (``_PARALLEL_MIN_SCORES``)."""
        return min(_cores(), self.config.n_heads) if tq * width >= _PARALLEL_MIN_SCORES else 1

    def _attend_block(self, q: np.ndarray, k_all: np.ndarray, v_all: np.ndarray, slot: int,
                      triangle: np.ndarray, helper_scores: Sequence[np.ndarray]) -> np.ndarray:
        """Chunk-block attention: q (H, tq, dh); k_all/v_all (Hk, tk, dh).

        The block's queries sit at arena slots [slot, slot + tq) of a
        document-ordered arena, so keys before ``slot`` are all past,
        ``triangle`` (tq, tq) marks the future keys within the block, and
        every key from slot + tq on is future. ``helper_scores`` holds one
        (>= tq, tk) float32 buffer per helper thread the block may use.

        The heads run in ``_block_heads`` on up to ``_block_threads``
        threads: this one and process-wide helpers. Each head makes the same
        calls on the same shapes whichever thread runs it and writes only
        its own columns of the output, so the result is the serial kernel's
        bit for bit. This thread waits for its helpers even when it raises,
        so no helper writes after this returns, and a helper's exception is
        raised here.
        """
        tq, width = q.shape[1], k_all.shape[1]
        out = np.empty((tq, self.config.n_heads * self.config.d_head), dtype=np.float32)
        threads = self._block_threads(tq, width)
        buffers = [np.empty((tq, width), dtype=np.float32)]  # this thread's, freed with the block
        buffers += [buf[:tq] for buf in helper_scores[:threads - 1]]
        heads = collections.deque(range(self.config.n_heads))  # each thread pops its next head
        helpers = [_helper_pool().submit(self._block_heads, heads, q, k_all, v_all, slot, triangle, buf, out)
                   for buf in buffers[1:]]
        try:
            self._block_heads(heads, q, k_all, v_all, slot, triangle, buffers[0], out)
        finally:
            futures.wait(helpers)
        for helper in helpers:
            helper.result()
        return out

    def _block_heads(self, heads: collections.deque, q: np.ndarray, k_all: np.ndarray,
                     v_all: np.ndarray, slot: int, triangle: np.ndarray, scores: np.ndarray,
                     out: np.ndarray) -> None:
        """Run a chunk block's heads, popped from ``heads`` until none is left.

        Scaling, masking and the softmax's max, exp and divide run on the
        live prefix [0, slot + tq) only; the future tail is set to the 0.0
        that exp(-inf - max) would give. The q·kᵀ product, the row sums and
        the product with V stay full width: a narrower matmul can take
        another BLAS path and a shorter sum another pairwise order, so
        either would change the last bits. The result is therefore the
        full-mask softmax bit for bit, and the score work done per block is
        still tq x tk.
        """
        cfg = self.config
        group = cfg.n_heads // cfg.n_kv_heads
        tq = q.shape[1]
        live = scores[:, :slot + tq]
        diagonal, tail = scores[:, slot:slot + tq], scores[:, slot + tq:]
        with np.errstate():  # ufunc settings are per thread; restores the buffer size on exit
            np.setbufsize(_LIVE_BUFSIZE)
            while True:
                try:
                    h = heads.popleft()
                except IndexError:
                    return
                kv = h // group
                np.matmul(q[h], k_all[kv].T, out=scores)
                live *= self._inv_sqrt_dh
                np.copyto(diagonal, _NEG_INF, where=triangle)
                tail[...] = 0.0
                live -= np.maximum.reduce(live, axis=1, keepdims=True)
                np.exp(live, out=live)
                live /= np.add.reduce(scores, axis=1, keepdims=True)
                out[:, h * cfg.d_head:(h + 1) * cfg.d_head] = scores @ v_all[kv]

    def _mlp(self, hidden: np.ndarray, layer: int) -> np.ndarray:
        x = _rms_norm(hidden, self.params[f"layers.{layer}.mlp_norm"])
        inner = x @ self.params[f"layers.{layer}.w1"]
        inner = inner / (np.float32(1.0) + np.exp(-inner))  # SiLU
        return inner @ self.params[f"layers.{layer}.w2"]

    def _rope_tables(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        angles = positions[:, None].astype(np.float64) * self._inv_freq[None, :]
        return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


class CacheHandle:
    """Binds a model, its cache, and the chunk inventory for buffer updates."""

    def __init__(self, model: DecoderModel, cache: KVCache, chunks: Sequence[Chunk],
                 recompute_enabled: bool = True):
        self.model = model
        self.cache = cache
        self.chunks_by_index = {c.chunk_index: c for c in chunks}
        self.recompute_enabled = recompute_enabled

    def evict(self, indices: Iterable[int]) -> None:
        for idx in indices:
            self.cache.evict(idx)

    def rebuild(self, admit: Iterable[int], recompute: Iterable[int]) -> int:
        targets = list(admit) + (list(recompute) if self.recompute_enabled else [])
        return self.model.rebuild_blocks(self.cache, targets, self.chunks_by_index)


_pool: futures.ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper_pool() -> futures.ThreadPoolExecutor:
    """The process-wide helper threads of block attention, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = futures.ThreadPoolExecutor(max(1, _cores() - 1), thread_name_prefix="apce-attend")
        return _pool


def _forget_pool() -> None:
    """A forked child has none of the parent's threads, but an inherited
    executor would count them as idle and start no worker for new tasks."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@functools.lru_cache(maxsize=1)
def _init_params(cfg: ModelConfig) -> Mapping[str, np.ndarray]:
    """The seeded weights of ``cfg``, read-only and shared by every caller."""
    rng = np.random.default_rng(cfg.init_seed)
    scale = np.float32(0.02)

    def draw(*shape: int) -> np.ndarray:
        return rng.standard_normal(shape, dtype=np.float32) * scale

    params: dict[str, np.ndarray] = {"embedding": draw(cfg.vocab_size, cfg.d_model)}
    for layer in range(cfg.n_layers):
        params[f"layers.{layer}.attn_norm"] = np.ones(cfg.d_model, dtype=np.float32)
        params[f"layers.{layer}.wq"] = draw(cfg.d_model, cfg.n_heads * cfg.d_head)
        params[f"layers.{layer}.wk"] = draw(cfg.d_model, cfg.d_kv_total)
        params[f"layers.{layer}.wv"] = draw(cfg.d_model, cfg.d_kv_total)
        params[f"layers.{layer}.wo"] = draw(cfg.n_heads * cfg.d_head, cfg.d_model)
        params[f"layers.{layer}.mlp_norm"] = np.ones(cfg.d_model, dtype=np.float32)
        params[f"layers.{layer}.w1"] = draw(cfg.d_model, cfg.d_ff)
        params[f"layers.{layer}.w2"] = draw(cfg.d_ff, cfg.d_model)
    params["final_norm"] = np.ones(cfg.d_model, dtype=np.float32)
    params["head"] = draw(cfg.d_model, cfg.vocab_size)
    for arr in params.values():
        arr.setflags(write=False)
    return MappingProxyType(params)


def _rms_norm(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    # np.mean's own float32 arithmetic, without its Python-level wrappers
    ms = np.add.reduce(np.square(x), axis=-1, keepdims=True)
    np.true_divide(ms, np.intp(x.shape[-1]), out=ms, casting="unsafe")
    return x / np.sqrt(ms + _NORM_EPS) * weight


def _split_heads(x: np.ndarray, n_heads: int, d_head: int) -> np.ndarray:
    t = x.shape[0]
    return np.ascontiguousarray(x.reshape(t, n_heads, d_head).transpose(1, 0, 2))


def _apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Split-half rotary embedding; x is (heads, tokens, d_head)."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
