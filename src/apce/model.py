"""A small deterministic decoder-only transformer with a chunk-keyed KV cache.

The network is conventional (pre-norm blocks, rotary attention with grouped
KV heads, SiLU MLP, greedy decoding) but three implementation choices are
load-bearing for the rest of the engine:

- Positions are document-absolute. A chunk keeps its original token offsets
  even when it is loaded out of order, and generated tokens sit after the
  full original document. Rotary phases therefore never depend on which
  chunks happen to be resident.

- K/V live in one contiguous arena per layer: the resident chunks in
  document order, then the generated tokens. Every attention reads a
  prefix view of it, so chunk tokens score against the keys of *every*
  resident chunk (future positions masked afterwards) and a decode step
  scores against all of them plus the generated tokens. The score-element
  counters therefore measure exactly (resident tokens)^2 for a prefill,
  like a conventional full-matrix implementation (decode and rebuild read
  theirs off the width of the view), and operand shapes stay identical
  between an initial prefill and a later rebuild of the same resident set.
  With identical shapes and identical unmasked inputs, float32 results are
  reproduced bit for bit, which is what the rebuild-equals-fresh-prefill
  checks rely on.

- The arena changes layout only when residency does. Eviction and
  admission edit a chunk -> slot index; the arrays are re-laid out once,
  before attention next reads them, with the generated tokens moved along.
  Decode steps write their token's K/V in place. Chunk tokens never attend
  the generated tail (it is strictly in the future of every chunk
  position), so rebuilding chunks mid-generation stays byte-equal to a
  document-only prefill.

Everything runs in float32 with a fixed reduction order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .textpipe import Chunk

_NORM_EPS = np.float32(1e-5)
_NEG_INF = np.float32(-np.inf)


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
        self.positions = np.zeros(0, dtype=np.int64)  # document position of each chunk slot
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
        spans = [np.zeros(0, dtype=np.int64)]
        slot = 0
        for idx in self.resident_indices():
            start, end, old = self._index[idx]
            moves.append((old, slot, end - start))
            spans.append(np.arange(start, end, dtype=np.int64))
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
        self.positions = np.concatenate(spans)
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
    """Weights are fully determined by the config seed and frozen after init."""

    def __init__(self, config: ModelConfig, _params: dict[str, np.ndarray] | None = None):
        self.config = config
        self.params = _params if _params is not None else _init_params(config)
        for arr in self.params.values():
            arr.setflags(write=False)
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

        emb = self.params["embedding"]
        hidden = [emb[np.asarray(c.token_ids, dtype=np.int64)].copy() for c in ordered]
        positions = [np.arange(c.doc_token_offset, c.doc_token_offset + c.size, dtype=np.int64)
                     for c in ordered]
        for c in ordered:
            cache.reserve(c)
        cache.settle()
        total = cache.chunk_tokens
        slots = [cache.slot(c.chunk_index) for c in ordered]
        # Future-key masks are position-only, so one per block covers all layers.
        masks = [cache.positions[None, :] <= p[:, None] for p in positions]

        for layer in range(cfg.n_layers):
            keys, values = cache.keys[layer], cache.values[layer]
            qs: list[np.ndarray] = []
            for b, c in enumerate(ordered):
                q, k, v = self._project_qkv(hidden[b], layer, positions[b])
                qs.append(q)
                keys[:, slots[b]:slots[b] + c.size] = k
                values[:, slots[b]:slots[b] + c.size] = v
            for b in range(len(ordered)):
                attn = self._attend(qs[b], keys[:, :total], values[:, :total], masks[b])
                hidden[b] = hidden[b] + attn @ self.params[f"layers.{layer}.wo"]
                hidden[b] = hidden[b] + self._mlp(hidden[b], layer)

        final = _rms_norm(np.concatenate(hidden, axis=0), self.params["final_norm"])
        last_logits = final[-1] @ self.params["head"]
        elements = total * total
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
        pos = np.asarray([position], dtype=np.int64)
        hidden = self.params["embedding"][np.asarray([last_token], dtype=np.int64)].copy()
        for layer in range(cfg.n_layers):
            q, k, v = self._project_qkv(hidden, layer, pos)
            keys, values = cache.keys[layer], cache.values[layer]
            keys[:, width - 1:width] = k
            values[:, width - 1:width] = v
            k_all = keys[:, :width]
            attn = self._attend(q, k_all, values[:, :width], None)
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

        width = cache.chunk_tokens
        elements = 0
        cfg = self.config
        for idx in sorted(targets, key=lambda i: chunks_by_index[i].doc_token_offset):
            c = chunks_by_index[idx]
            slot = cache.slot(idx)
            hidden = self.params["embedding"][np.asarray(c.token_ids, dtype=np.int64)].copy()
            pos = np.arange(c.doc_token_offset, c.doc_token_offset + c.size, dtype=np.int64)
            mask = cache.positions[None, :] <= pos[:, None]
            for layer in range(cfg.n_layers):
                q, k, v = self._project_qkv(hidden, layer, pos)
                keys, values = cache.keys[layer], cache.values[layer]
                keys[:, slot:slot + c.size] = k
                values[:, slot:slot + c.size] = v
                k_all = keys[:, :width]
                attn = self._attend(q, k_all, values[:, :width], mask)
                hidden = hidden + attn @ self.params[f"layers.{layer}.wo"]
                hidden = hidden + self._mlp(hidden, layer)
            elements += c.size * k_all.shape[1]
        cache.counters.rebuild_elements += elements
        return elements

    def recompute_kv(self, cache: KVCache, chunk_indices: Iterable[int],
                     chunks_by_index: Mapping[int, Chunk]) -> int:
        """Rebuild blocks for chunks that must already be resident."""
        targets = list(chunk_indices)
        for idx in targets:
            if not cache.has(idx):
                raise ValueError(f"chunk {idx} is not resident")
        return self.rebuild_blocks(cache, targets, chunks_by_index)

    def logits_for_hidden(self, hidden: np.ndarray) -> np.ndarray:
        """Project (already final-normed) hidden rows to vocabulary logits."""
        return hidden @ self.params["head"]

    # --- weight snapshots (test fixtures) ---

    def save_weights(self, path: str | Path) -> None:
        names = sorted(self.params)
        manifest = []
        offset = 0
        for name in names:
            arr = self.params[name]
            manifest.append({"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype),
                             "offset": offset, "nbytes": int(arr.nbytes)})
            offset += arr.nbytes
        header = json.dumps({"format": 1, "config": asdict(self.config), "arrays": manifest})
        with open(path, "wb") as fh:
            fh.write(header.encode("utf-8") + b"\n")
            for name in names:
                fh.write(np.ascontiguousarray(self.params[name]).tobytes())

    @classmethod
    def load_weights(cls, path: str | Path) -> "DecoderModel":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            if header.get("format") != 1:
                raise ValueError("unknown weight snapshot format")
            data = fh.read()
        config = ModelConfig(**header["config"])
        params: dict[str, np.ndarray] = {}
        for entry in header["arrays"]:
            start = entry["offset"]
            arr = np.frombuffer(data[start:start + entry["nbytes"]], dtype=entry["dtype"])
            params[entry["name"]] = arr.reshape(entry["shape"]).copy()
        return cls(config, _params=params)

    # --- internals ---

    def _project_qkv(self, hidden: np.ndarray, layer: int, positions: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cfg = self.config
        x = _rms_norm(hidden, self.params[f"layers.{layer}.attn_norm"])
        cos, sin = self._rope_tables(positions)
        q = x @ self.params[f"layers.{layer}.wq"]
        k = x @ self.params[f"layers.{layer}.wk"]
        v = x @ self.params[f"layers.{layer}.wv"]
        q = _split_heads(q, cfg.n_heads, cfg.d_head)
        k = _split_heads(k, cfg.n_kv_heads, cfg.d_head)
        v = _split_heads(v, cfg.n_kv_heads, cfg.d_head)
        return _apply_rope(q, cos, sin), _apply_rope(k, cos, sin), v

    def _attend(self, q: np.ndarray, k_all: np.ndarray, v_all: np.ndarray,
                mask: np.ndarray | None) -> np.ndarray:
        """q: (H, tq, dh); k_all/v_all: (Hk, tk, dh); mask: (tq, tk) or None."""
        cfg = self.config
        group = cfg.n_heads // cfg.n_kv_heads
        tq = q.shape[1]
        out = np.empty((tq, cfg.n_heads * cfg.d_head), dtype=np.float32)
        for h in range(cfg.n_heads):
            kv = h // group
            scores = (q[h] @ k_all[kv].T) * self._inv_sqrt_dh
            if mask is not None:
                scores = np.where(mask, scores, _NEG_INF)
            scores -= np.max(scores, axis=1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= np.sum(scores, axis=1, keepdims=True)
            out[:, h * cfg.d_head:(h + 1) * cfg.d_head] = scores @ v_all[kv]
        return out

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
        admit = list(admit)
        missing = [i for i in admit if i not in self.chunks_by_index]
        if missing:
            raise RuntimeError(f"internal consistency: admitted chunks without tokens: {missing}")
        targets = admit + (list(recompute) if self.recompute_enabled else [])
        if not targets:
            return 0
        return self.model.rebuild_blocks(self.cache, targets, self.chunks_by_index)


def _init_params(cfg: ModelConfig) -> dict[str, np.ndarray]:
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
    return params


def _rms_norm(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    return x / np.sqrt(ms + _NORM_EPS) * weight


def _split_heads(x: np.ndarray, n_heads: int, d_head: int) -> np.ndarray:
    t = x.shape[0]
    return np.ascontiguousarray(x.reshape(t, n_heads, d_head).transpose(1, 0, 2))


def _apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Split-half rotary embedding; x is (heads, tokens, d_head)."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
