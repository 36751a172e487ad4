"""A small deterministic decoder-only transformer with a chunk-keyed KV cache.

The network is conventional (pre-norm blocks, rotary attention with grouped
KV heads, SiLU MLP, greedy decoding; the RMS norms have no gains, which
would all be one) but these implementation choices are load-bearing for the
rest of the engine:

- Positions are document-absolute. A chunk keeps its original token offsets
  even when it is loaded out of order, and generated tokens sit after the
  full original document. Rotary phases therefore never depend on which
  chunks happen to be resident.

- K/V live in one contiguous arena per layer: the resident chunks in
  document order, then the generated tokens. Every attention reads a
  prefix view of it, so chunk tokens score against the keys of *every*
  resident chunk and a decode step scores against all of them plus the
  generated tokens. The score-element counters (``KVCache.counters``, which
  defines an element) are read off the query rows and the width of the
  views attended in each layer that writes K/V, so a prefill measures
  exactly (resident tokens)^2, like a conventional full-matrix
  implementation, and operand shapes stay identical between an initial
  prefill and a later rebuild of the same resident set. With identical
  shapes and identical unmasked inputs, float32 results are reproduced bit
  for bit, which is what the rebuild-equals-fresh-prefill checks rely on.

- Prefill, rebuild and decode share one forward path over blocks: a block
  is a chunk, or a decode step's one token at the slot after the generated
  ones. Document order makes a block's mask positional: the keys before its
  slot are past, those inside it form a strictly upper triangle (empty for
  one token), and those after it are future. The softmax therefore scales,
  masks, exponentiates and divides only the live prefix (a strided view,
  run with a small ufunc buffer; see ``_LIVE_BUFSIZE``) and writes the exact
  0.0 into the future tail. The q·kᵀ product, the row sums and the product
  with V stay full width, because narrowing them can change the BLAS path
  or the summation order and with it the last bits; so the counters, which
  count that full-width work, are unchanged, and the results equal a
  full-mask kernel's. A block's query rows run in tiles (``_row_tiles``),
  each making those calls on its own rows over the same K/V views, so a
  thread's workspace holds one tile's scores, not the block's. A row's
  masking, softmax and sums read that row alone, and with one BLAS thread
  its products do not depend on the rows beside it either, as long as the
  cuts fall on multiples of ``_TILE_ROWS`` and every tile's product reaches
  ``_TILE_MIN_PRODUCT``; so tiles give the whole block's bits. (With more
  BLAS threads they can differ in the last bits, as thread counts do.)
  Each op of the kernel covers every head at once when the workspace holds
  all their scores for a tile (a decode step's does), else one head; both
  give a per-head loop's bits.

- One driver, ``_pipeline``, runs the blocks of every pass (prefill,
  rebuild and decode step) block-major: a block's stage -1 makes its rope
  tables and embeds it, its stage l runs its attention over layer l and
  its MLP, and each writes its layer l+1 K/V from normed states that its
  next stage's queries reuse. The last layer writes no K/V and only the
  final row of a pass's last block is read there, for the logits, so a
  prefill or a decode step keeps that block for one more stage and a
  rebuild stops every block before it. That layer's attention runs the
  block's last row tile alone and the rows of its other tiles carry zeros;
  the projections and the MLP keep the block's shapes, as a one-row
  product takes another BLAS path, and the final row keeps its bits by
  the tile guarantee above. As stage l reads the layer-l K/V of the blocks
  before it, it waits only until every earlier block has finished stage
  l - 1, and a pass pipelines its blocks over up to one thread per core
  (the calling thread and helpers it starts and joins), each taking the
  next block in slot order. Results are the plain block-major loop's bit
  for bit, on any thread, as each block makes that loop's calls on the
  same shapes; the keys after a block may hold placeholders, stale K/V or
  K/V another thread just wrote, all finite and masked. A block's states
  are dropped once it is done, bar the kept block's hidden states, so a
  pass holds its arena, one workspace per thread for a tile's scores or a
  block's MLP inner product with one tile of its gate, and the blocks in
  flight, one per thread. A stage adds its residuals into the block's
  hidden states in place, and attention writes each head's tiles straight
  into its columns of the block's output. A pass of one block, such as a
  decode step, or whose scores for one layer and head (pass tokens x
  width) stay under ``_PARALLEL_MIN_SCORES``, runs on the calling thread
  alone. A failing block raises once every thread is done. The speedup
  assumes a single-threaded BLAS.

- The arena is allocated once, at the most tokens its session will hold,
  and changes layout only when residency does. Eviction and admission edit
  a chunk -> slot index; the arrays are re-laid out in place once, before
  attention next reads them, by copying the blocks whose slot changed, with
  the generated tokens moved along. Attention reads prefix views whose
  per-head rows do not depend on the capacity, so neither do the bits.
  Decode steps write their token's K/V in place. Chunk tokens never attend
  the generated tail (it is strictly in the future of every chunk
  position), so rebuilding chunks mid-generation stays byte-equal to a
  document-only prefill.

- Weights are drawn once per process and config. They follow from the
  frozen ``ModelConfig`` alone, so every ``DecoderModel`` of one config
  shares one read-only set of arrays behind a read-only mapping: views of
  one allocation, filled by one draw and scaled in place.

Everything runs in float32 with a fixed reduction order.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent import futures
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .textpipe import DEFAULT_VOCAB_SIZE, Chunk

_NORM_EPS = np.float32(1e-5)
_NEG_INF = np.float32(-np.inf)
# numpy 2.4 copies the rows of a strided operand through its ufunc buffer
# when they are shorter than about a third of it. With the default 8192
# elements that made every pass over a block's live prefix (a strided view)
# 2-3 times slower per element than a pass over whole rows. Rows longer than
# a third of this size run in place. Buffering moves data and never changes
# the arithmetic, so results are the same bits at any size.
_LIVE_BUFSIZE = 256
# A pass goes to more than one thread only when its scores for one layer and
# head (pass tokens x key width) reach this: below it, two threads lose to
# one whenever the second core is busy, which on a shared host changes from
# minute to minute. Two-thread over one-thread time of rebuilds, alternating
# in one process (default model, 2-core Xeon, numpy 2.4, one BLAS thread):
# with both cores free, 1.16 at 360 x 400 (40-token blocks), 0.96 at
# 500 x 600 (100-token) and 0.61-0.76 from 600 x 800 to 1600 x 1800
# (200-token); with a CPU-bound process on the other core, 1.09-1.12 at the
# first two and 0.88-0.99 at the rest.
_PARALLEL_MIN_SCORES = 1_000_000
# A block's attention runs in row tiles of this many query rows, the last one
# taking the rest (see ``_row_tiles``), so that a thread's workspace holds a
# tile's scores, not the block's. The cuts fall on multiples of it, and so of
# 48: OpenBLAS's Haswell kernel (which Zen runs too) gives a row's products
# other bits by its place in a group of 12 rows, and Prescott's by its place
# in a pair. Equal tiles of about 128 rows changed bits under those two in
# 2,598 and 1,040 of 3,074 checks (one BLAS thread, d_head 8-128, 256-1,024
# rows, widths up to 8,192), and none under SkylakeX; tiles cut at multiples
# of 96 or 144 rows changed none of 3,242 and 3,278 such checks under each of
# SkylakeX, Haswell, Sandybridge, Nehalem and Prescott. Attention of 512 x
# 3,000 and 800 x 8,294 blocks took 1.08 and 1.09 times as long in 96-row
# tiles as whole, and 0.96 and 1.05 in 144-row ones (median CPU-time ratio,
# alternating in one process): q·kᵀ packs a head's keys once per tile.
_TILE_ROWS = 144
# A block splits only while its smallest tile's q·kᵀ product (tile rows x
# width x d_head) reaches this. Below 10^6, OpenBLAS's SkylakeX kernel takes
# another path for small products: with no floor, tiles cut at multiples of
# 144 rows changed bits under it in 23 of 120 checks (d_head 8 and 16,
# 216-512 rows, widths 383-1,500, smallest tile products 291,080-960,000),
# and in none under Haswell or Prescott.
_TILE_MIN_PRODUCT = 1 << 22


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and seed. Everything about the weights follows from these."""

    n_layers: int = 4
    n_heads: int = 4
    d_model: int = 128
    d_head: int = 32
    d_kv_total: int = 64
    vocab_size: int = DEFAULT_VOCAB_SIZE
    rope_theta: float = 10000.0
    init_seed: int = 0
    max_position: int = 65536

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_heads", "d_model", "d_head", "d_kv_total", "vocab_size", "max_position"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.rope_theta < np.inf:
            raise ValueError("rope_theta must be positive and finite")
        if self.d_model != self.n_heads * self.d_head:
            raise ValueError("d_model must equal n_heads * d_head")
        if self.d_head % 2:
            raise ValueError("d_head must be even: rotary embedding turns pairs of dimensions")
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


class KVCache:
    """Per-layer K/V arenas of a fixed capacity: resident chunks in document
    order, then generated tokens.

    Each layer owns one keys and one values array shaped (n_kv_heads,
    capacity, d_head), allocated here and never again: ``capacity`` is the
    most chunk plus generated tokens the cache will hold. Slots
    [0, chunk_tokens) hold the resident chunks in document order and the
    next gen_len slots the generated tokens, so every attention reads a
    prefix view of the arena. A chunk -> slot index sits beside it.
    Evicting a chunk or reserving a placeholder only edits the index;
    ``settle`` re-lays the arrays out in place, before attention next reads
    them, and the generated tail moves with that re-layout. Reserving a
    chunk whose positions overlap another resident chunk's is refused, and
    so is holding more tokens than the capacity.

    ``counters`` holds the attention score elements actually computed, under
    ``prefill_elements``, ``rebuild_elements`` and ``decode_elements``. An
    element is one (query, key) pair of a layer that writes K/V (those
    layers and the heads share the same pattern): a pass adds its block
    tokens x the width attended, summed, and a decode step its key width.
    The last layer of a prefill runs for its last block only (its last row
    tile, for the attention) and adds nothing to the count.
    """

    def __init__(self, config: ModelConfig, capacity: int):
        self.config = config
        shape = (config.n_kv_heads, capacity, config.d_head)
        self.keys = [np.empty(shape, dtype=np.float32) for _ in range(config.n_layers)]
        self.values = [np.empty(shape, dtype=np.float32) for _ in range(config.n_layers)]
        # chunk -> (pos_start, pos_end, arena slot); slot is None until settled
        self._index: dict[int, tuple[int, int, int | None]] = {}
        self._unsettled = False
        self.chunk_tokens = 0  # arena slots laid out for chunks
        self.gen_positions: list[int] = []
        self.counters = {"prefill_elements": 0, "rebuild_elements": 0, "decode_elements": 0}

    # --- chunk blocks ---

    def has(self, chunk_index: int) -> bool:
        return chunk_index in self._index

    def resident_indices(self) -> list[int]:
        return sorted(self._index, key=lambda i: self._index[i][0])

    @property
    def resident_tokens(self) -> int:
        return sum(end - start for start, end, _ in self._index.values())

    def slot(self, chunk_index: int) -> int:
        self.settle()
        return self._index[chunk_index][2]

    def reserve(self, chunk: Chunk) -> None:
        """Give a chunk about to be computed a zeroed slot at the next settle.

        Placeholders make operand widths match the final resident set before
        rebuilds run; their contents are always masked out. Raises
        ValueError if the chunk's positions overlap those of another chunk
        in the index, and RuntimeError if the arena cannot hold it.
        """
        start, end = chunk.doc_token_offset, chunk.doc_token_offset + chunk.size
        others = {i: span for i, span in self._index.items() if i != chunk.chunk_index}
        for other, (other_start, other_end, _) in others.items():
            if start < other_end and other_start < end:
                raise ValueError(f"chunk {chunk.chunk_index} at positions [{start}, {end}) overlaps "
                                 f"chunk {other} at [{other_start}, {other_end})")
        held = sum(e - s for s, e, _ in others.values()) + self.gen_len
        if held + chunk.size > self.capacity:
            raise RuntimeError(f"chunk {chunk.chunk_index} ({chunk.size} tokens) does not fit beside "
                               f"{held} held tokens in an arena of {self.capacity} slots")
        self._index[chunk.chunk_index] = (start, end, None)
        self._unsettled = True

    def evict(self, chunk_index: int) -> None:
        if not self.has(chunk_index):
            raise KeyError(f"chunk {chunk_index} is not resident")
        del self._index[chunk_index]
        self._unsettled = True

    @property
    def capacity(self) -> int:
        return self.keys[0].shape[1]

    def settle(self) -> None:
        """Re-lay the arenas out in place for the current index.

        Only blocks whose slot changes are copied, the generated tail being
        the last block. Blocks keep their document order, so those moving
        left can go in ascending slot order and those moving right in
        descending order, each before anything overwrites it. Placeholders
        are zeroed last, as their slots may hold a block still to move.
        """
        if not self._unsettled:
            return
        moves = []  # (old slot, new slot, tokens), in document order
        placeholders = []  # (new slot, tokens)
        slot = 0
        for idx in self.resident_indices():
            start, end, old = self._index[idx]
            if old is None:
                placeholders.append((slot, end - start))
            elif old != slot:
                moves.append((old, slot, end - start))
            self._index[idx] = (start, end, slot)
            slot += end - start
        if self.gen_len and slot != self.chunk_tokens:
            moves.append((self.chunk_tokens, slot, self.gen_len))
        ordered = [m for m in moves if m[1] < m[0]] + [m for m in reversed(moves) if m[1] > m[0]]
        for arena in (*self.keys, *self.values):
            for old, new, size in ordered:
                arena[:, new:new + size] = arena[:, old:old + size]
            for new, size in placeholders:
                arena[:, new:new + size] = 0.0
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
    last_logits: np.ndarray
    score_elements: int


class StepOutput(NamedTuple):
    logits: np.ndarray
    token: int
    score_elements: int


@dataclass
class _Block:
    """A chunk or a decode step's token, and the states its stages hand on."""

    token_ids: np.ndarray  # int64
    position: int  # the document position of the first token
    slot: int  # the arena slot of the first token
    width: int  # the arena prefix attended
    triangle: np.ndarray  # the future keys within the block
    tiles: Sequence[tuple[int, int]]  # the [lo, hi) rows of its attention tiles (``_row_tiles``)
    rope: tuple[np.ndarray, np.ndarray] | None = None  # cos and sin of its positions
    hidden: np.ndarray | None = None
    normed: np.ndarray | None = None  # hidden's norm: the next layer's input


_ONE_TOKEN = np.zeros((1, 1), dtype=bool)  # a decode step's triangle: no future key
_ONE_TILE = ((0, 1),)  # and its one row tile


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
        """Process one or more chunks, in any order, into an empty cache.

        Attention is causal over the chunks being prefilled; their K/V fill
        the cache's arena in document order, with document-absolute
        positions. Returns the logits of the last document position (the
        seed of greedy generation) and the score elements computed.
        """
        cfg = self.config
        if cache.resident_tokens or cache.gen_len:
            raise ValueError("prefill requires an empty cache")
        if not chunks:
            raise ValueError("prefill needs at least one chunk")
        indices = sorted(c.chunk_index for c in chunks)
        for a, b in zip(indices, indices[1:]):
            if a == b:
                raise ValueError(f"duplicate chunk index {a}")
        ordered = sorted(chunks, key=lambda c: c.doc_token_offset)
        if any(c.doc_token_offset + c.size > cfg.max_position for c in ordered):
            raise ValueError("chunk positions overflow max_position")

        elements, hidden = self._forward_blocks(cache, self._chunk_blocks(cache, ordered), finish_last=True)
        last_logits = _rms_norm(hidden[-1:])[0] @ self.params["head"]
        cache.counters["prefill_elements"] += elements
        return PrefillResult(last_logits, elements)

    def decode_step(self, cache: KVCache, last_token: int, position: int) -> StepOutput:
        """One greedy decode step at a document-absolute position: a one-token
        block that attends every resident chunk block and generated token."""
        if position >= self.config.max_position:
            raise ValueError("position overflow")
        if cache.resident_tokens == 0 and cache.gen_len == 0:
            raise ValueError("decode_step needs a non-empty cache")
        if position <= cache.max_resident_position():
            raise ValueError("decode position must follow all cached positions")

        width = cache.resident_tokens + cache.gen_len + 1  # chunks, generated tokens, this token
        if width > cache.capacity:
            raise RuntimeError(f"decode step needs {width} arena slots, the cache has {cache.capacity}")
        cache.settle()
        block = _Block(np.asarray([last_token], dtype=np.int64), position, width - 1, width, _ONE_TOKEN, _ONE_TILE)
        elements, hidden = self._forward_blocks(cache, [block], finish_last=True)
        cache.gen_positions.append(position)

        logits = (_rms_norm(hidden) @ self.params["head"])[0]
        token = int(np.argmax(logits))
        cache.counters["decode_elements"] += elements
        return StepOutput(logits, token, elements)

    def rebuild_blocks(self, cache: KVCache, chunks: Sequence[Chunk]) -> int:
        """Recompute K/V blocks (admissions and stale residents alike).

        Each chunk attends over the full resident chunk set with future
        positions masked, which reproduces a from-scratch prefill of the same
        resident set bit for bit. Generation K/V are excluded: they are in every chunk's future.
        """
        ordered = sorted({c.chunk_index: c for c in chunks}.values(), key=lambda c: c.doc_token_offset)
        if not ordered:
            return 0
        elements, _ = self._forward_blocks(cache, self._chunk_blocks(cache, ordered), finish_last=False)
        cache.counters["rebuild_elements"] += elements
        return elements

    # --- internals ---

    def _chunk_blocks(self, cache: KVCache, ordered: Sequence[Chunk]) -> list[_Block]:
        """Reserve the chunks that are not resident yet and settle the arena;
        return the chunks' blocks in document order, over the chunk prefix."""
        for c in ordered:
            if not cache.has(c.chunk_index):
                cache.reserve(c)
        cache.settle()
        sizes = {c.size for c in ordered}
        triangle = np.triu(np.ones((max(sizes),) * 2, dtype=bool), 1)  # a shorter chunk's is its top left
        tiles = {size: _row_tiles(size, cache.chunk_tokens, self.config.d_head) for size in sizes}
        return [_Block(np.asarray(c.token_ids, dtype=np.int64), c.doc_token_offset, cache.slot(c.chunk_index),
                       cache.chunk_tokens, triangle[:c.size, :c.size], tiles[c.size]) for c in ordered]

    def _forward_blocks(self, cache: KVCache, blocks: Sequence[_Block], finish_last: bool
                        ) -> tuple[int, np.ndarray | None]:
        """Run blocks of one width through ``_pipeline`` (see the module
        docstring), the last one also through the last layer with
        ``finish_last``. Each thread's workspace holds the largest of: the
        largest row tile's scores for one head (tile rows x width), a block's
        MLP inner product and one tile of its gate ((block tokens + tile rows)
        x d_ff) and a decode step's scores for every head (heads x width).
        Returns the score elements per layer and head (block tokens x width,
        summed) and, with ``finish_last``, the last block's final hidden
        states, of which only its last row tile's went through the last
        layer's attention."""
        cfg = self.config
        width = blocks[0].width
        tokens = [len(b.token_ids) for b in blocks]
        scores = sum(tokens) * width  # per layer and head
        threads = min(_cores(), len(blocks)) if scores >= _PARALLEL_MIN_SCORES else 1
        # One workspace per thread for all its blocks, all made here in one
        # allocation: a helper's own buffers land in (and grow) its malloc
        # arena, buffers made per block had malloc hand memory back and fault
        # it in again, and so did one buffer per thread, as glibc raises its
        # trim threshold to twice the largest mapped block it frees (faults per
        # session, one per thread -> one in all: prefill-dense 3,064 -> 1,606,
        # decode-long 2,008 -> 3, apce-reprior 3,522 -> 1,821).
        tile = max(hi - lo for block in blocks for lo, hi in block.tiles)
        size = max(tile * width, (max(tokens) + tile) * cfg.d_ff, cfg.n_heads * width)
        workspaces = list(np.empty((threads, size), dtype=np.float32))
        kept = blocks[-1] if finish_last else None  # runs the last layer too
        _pipeline(functools.partial(self._block_stage, cache), blocks, cfg.n_layers, workspaces, kept)
        return scores, None if kept is None else kept.hidden

    def _block_stage(self, cache: KVCache, layer: int, block: _Block, work: np.ndarray) -> None:
        """A block's attention over ``layer`` and its MLP (stage -1 makes its rope
        tables and embeds its tokens instead), then the writing of its ``layer + 1``
        K/V from the normed hidden states, which its next stage's queries reuse.
        In the last layer, whose final row alone is read, the attention runs the
        block's last row tile only and the rows before it carry zeros."""
        last = self.config.n_layers - 1
        if layer < 0:
            block.rope = self._rope_tables(np.arange(block.position, block.position + len(block.token_ids)))
            block.hidden = self.params["embedding"][block.token_ids]
        else:
            q = self._project(block.normed, layer, "wq", *block.rope)
            keys, values = cache.keys[layer][:, :block.width], cache.values[layer][:, :block.width]
            tiles = block.tiles[-1:] if layer == last else block.tiles
            attn = self._attend_block(q, keys, values, block.slot, block.triangle, tiles, work)
            block.hidden += attn @ self.params[f"layers.{layer}.wo"]
            block.hidden += self._mlp(block.hidden, layer, block.tiles, work)
        if layer < last:
            block.normed = _rms_norm(block.hidden)
            span = slice(block.slot, block.slot + len(block.token_ids))
            cache.keys[layer + 1][:, span] = self._project(block.normed, layer + 1, "wk", *block.rope)
            cache.values[layer + 1][:, span] = self._project(block.normed, layer + 1, "wv")

    def _project(self, x: np.ndarray, layer: int, name: str, cos: np.ndarray | None = None,
                 sin: np.ndarray | None = None) -> np.ndarray:
        """The layer's normed input x times its ``name`` weights, split into
        heads, then rotated by the rows' ``_rope_tables`` cos/sin if given."""
        weight = self.params[f"layers.{layer}.{name}"]
        out = _split_heads(x @ weight, weight.shape[1] // self.config.d_head, self.config.d_head)
        return out if cos is None else _apply_rope(out, cos, sin)

    def _attend_block(self, q: np.ndarray, k_all: np.ndarray, v_all: np.ndarray, slot: int,
                      triangle: np.ndarray, tiles: Sequence[tuple[int, int]], work: np.ndarray) -> np.ndarray:
        """Block attention (see the module docstring): q (H, tq, dh) at arena
        slots [slot, slot + tq), over k_all/v_all (Hk, width, dh). ``triangle``
        (tq, tq) marks the future keys within the block, and the keys from
        slot + tq on are all future. The rows run one of ``tiles`` (the block's
        ``_row_tiles``, or the last of them) at a time, and a tile's scores go
        into ``work`` (flat float32): every head's at once if it holds them all
        for the largest tile, else one head's at a time. Returns (tq, heads x
        dh), each head's rows written straight into its columns; the rows
        before the first tile are zeros.
        """
        cfg = self.config
        hk, dh, group = cfg.n_kv_heads, cfg.d_head, cfg.n_heads // cfg.n_kv_heads
        tq, width = q.shape[1], k_all.shape[1]
        out = np.empty((tq, cfg.n_heads * dh), dtype=np.float32)
        out[:tiles[0][0]] = 0.0
        by_head = out.reshape(tq, hk, group, dh).transpose(1, 2, 0, 3)  # (Hk, group, tq, dh) view
        if work.size >= cfg.n_heads * max(hi - lo for lo, hi in tiles) * width:
            lead = (hk, group)  # every head in one product per op
            heads = [(q.reshape(hk, group, tq, dh), k_all.transpose(0, 2, 1)[:, None], v_all[:, None], by_head)]
        else:
            lead = ()
            heads = [(q[h], k_all[h // group].T, v_all[h // group], by_head[divmod(h, group)])
                     for h in range(cfg.n_heads)]
        # this thread's; a one-token block's views are whole rows, which run faster
        # without it, and it has no future key within itself
        bufsize = np.setbufsize(_LIVE_BUFSIZE) if tq > 1 else None
        try:
            for lo, hi in tiles:
                scores = work[:math.prod(lead) * (hi - lo) * width].reshape(*lead, hi - lo, width)
                live = scores[..., :slot + tq]
                diagonal, tail = scores[..., slot:slot + tq], scores[..., slot + tq:]
                for q_h, k_t, v, attended in heads:
                    np.matmul(q_h[..., lo:hi, :], k_t, out=scores)
                    live *= self._inv_sqrt_dh
                    if tq > 1:
                        np.copyto(diagonal, _NEG_INF, where=triangle[lo:hi])
                    tail[...] = 0.0
                    live -= np.maximum.reduce(live, axis=-1, keepdims=True)
                    np.exp(live, out=live)
                    live /= np.add.reduce(scores, axis=-1, keepdims=True)
                    np.matmul(scores, v, out=attended[..., lo:hi, :])
        finally:
            if bufsize is not None:
                np.setbufsize(bufsize)
        return out

    def _mlp(self, hidden: np.ndarray, layer: int, tiles: Sequence[tuple[int, int]],
             work: np.ndarray) -> np.ndarray:
        """SiLU MLP. Its (rows, d_ff) inner product is written into ``work``
        (flat float32) and its gate after it, one of the row ``tiles`` at a
        time, so ``work`` holds at least (rows + the largest tile's rows) x
        d_ff elements. The gate's ops are elementwise: tiles give the whole
        block's bits."""
        d_ff = self.config.d_ff
        size = hidden.shape[0] * d_ff
        x = _rms_norm(hidden)
        inner = np.matmul(x, self.params[f"layers.{layer}.w1"], out=work[:size].reshape(-1, d_ff))
        for lo, hi in tiles:
            gate = np.negative(inner[lo:hi], out=work[size:size + (hi - lo) * d_ff].reshape(-1, d_ff))
            np.exp(gate, out=gate)
            np.add(np.float32(1.0), gate, out=gate)
            inner[lo:hi] /= gate  # inner / (1 + exp(-inner))
        return inner @ self.params[f"layers.{layer}.w2"]

    def _rope_tables(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        angles = positions[:, None].astype(np.float64) * self._inv_freq[None, :]
        return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_tiles(rows: int, width: int, d_head: int) -> list[tuple[int, int]]:
    """The [lo, hi) query rows of each tile a block of ``rows`` over ``width``
    keys runs its attention in: rows / ``_TILE_ROWS`` tiles, rounded, of
    ``_TILE_ROWS`` rows each but the last, which takes the rest (from half
    to one and a half tiles); fewer while the smallest tile's q·kᵀ product
    (tile rows x width x d_head) is under ``_TILE_MIN_PRODUCT``; at least one."""
    n = max((2 * rows + _TILE_ROWS) // (2 * _TILE_ROWS), 1)
    while n > 1 and min(_TILE_ROWS, rows - (n - 1) * _TILE_ROWS) * width * d_head < _TILE_MIN_PRODUCT:
        n -= 1
    bounds = [*range(0, n * _TILE_ROWS, _TILE_ROWS), rows]
    return list(zip(bounds, bounds[1:]))


def _pipeline(stage: Callable[[int, _Block, np.ndarray], None], blocks: Sequence[_Block],
              layers: int, workspaces: Sequence[np.ndarray], kept: _Block | None) -> None:
    """Run each block through stages -1 to ``layers - 2``, and ``kept`` on
    through ``layers - 1``, on one thread per workspace (this one and helpers
    it starts) as the module docstring says. A block drops its states once
    done, but ``kept`` keeps its hidden ones. No stage after a failed one starts."""
    done = [-2] * len(blocks)  # the last stage each block has finished
    order = iter(enumerate(blocks))
    last = layers - 1  # the last stage a block may start: a failure lowers it
    turn = threading.Condition()

    def run(work: np.ndarray) -> None:
        nonlocal last
        layer = -1
        with turn:  # released while a stage runs
            try:
                for b, block in order:
                    for layer in range(-1, layers - (block is not kept)):
                        turn.wait_for(lambda: layer > last or min(done[:b], default=layer) >= layer - 1)
                        if layer > last:
                            return
                        turn.release()
                        try:
                            stage(layer, block, work)
                        finally:
                            turn.acquire()
                        done[b] = layer
                        turn.notify_all()
                    block.rope = block.normed = None
                    if block is not kept:
                        block.hidden = None
            except BaseException:
                last = min(last, layer)
                turn.notify_all()
                raise

    if len(workspaces) == 1:  # a decode step among them: a helper would cost each step 68-126 µs
        return run(workspaces[0])
    with futures.ThreadPoolExecutor(len(workspaces) - 1, thread_name_prefix="apce-attend") as pool:
        helpers = [pool.submit(run, work) for work in workspaces[1:]]
        run(workspaces[0])  # leaving the block joins the helpers, also when this raises
    for helper in helpers:
        helper.result()


@functools.lru_cache(maxsize=1)
def _init_params(cfg: ModelConfig) -> Mapping[str, np.ndarray]:
    """The seeded weights of ``cfg``, read-only and shared by every caller.

    Each is a read-only view of one float32 allocation that a single draw
    fills and a scaling in place finishes: the same stream and values as
    drawing the arrays in turn, with no temporary of a table's size."""
    shapes = {"embedding": (cfg.vocab_size, cfg.d_model)}
    for layer in range(cfg.n_layers):
        shapes[f"layers.{layer}.wq"] = (cfg.d_model, cfg.n_heads * cfg.d_head)
        shapes[f"layers.{layer}.wk"] = (cfg.d_model, cfg.d_kv_total)
        shapes[f"layers.{layer}.wv"] = (cfg.d_model, cfg.d_kv_total)
        shapes[f"layers.{layer}.wo"] = (cfg.n_heads * cfg.d_head, cfg.d_model)
        shapes[f"layers.{layer}.w1"] = (cfg.d_model, cfg.d_ff)
        shapes[f"layers.{layer}.w2"] = (cfg.d_ff, cfg.d_model)
    shapes["head"] = (cfg.d_model, cfg.vocab_size)
    sizes = [math.prod(shape) for shape in shapes.values()]
    base = np.empty(sum(sizes), dtype=np.float32)
    np.random.default_rng(cfg.init_seed).standard_normal(dtype=np.float32, out=base)
    base *= np.float32(0.02)
    base.setflags(write=False)
    views = np.split(base, np.cumsum(sizes)[:-1])
    return MappingProxyType({name: view.reshape(shape) for (name, shape), view in zip(shapes.items(), views)})


def _rms_norm(x: np.ndarray) -> np.ndarray:
    """RMS norm without a gain: the gains would all be one, and x * 1.0 == x."""
    # np.mean's own float32 arithmetic, without its Python-level wrappers
    ms = np.add.reduce(np.square(x), axis=-1, keepdims=True)
    np.true_divide(ms, np.intp(x.shape[-1]), out=ms, casting="unsafe")
    return x / np.sqrt(ms + _NORM_EPS)


def _split_heads(x: np.ndarray, n_heads: int, d_head: int) -> np.ndarray:
    t = x.shape[0]
    return np.ascontiguousarray(x.reshape(t, n_heads, d_head).transpose(1, 0, 2))


def _apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Split-half rotary embedding; x is (heads, tokens, d_head)."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
