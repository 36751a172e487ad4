"""Low-dimensional chunk and query embeddings.

The built-in provider uses signed feature hashing over token ids: every id
owns one coordinate in [0, dim) and a sign in {-1, +1}, both derived from
CRC32 hashes of the id bytes. Contributions accumulate in token order and
the result is L2-normalized. The representation is a bag model (token order
inside a chunk does not matter) and is fully deterministic, which is what
the scoring pipeline needs; semantic quality on par with a trained sentence
encoder is not the goal. External providers plug in through precomputed
embedding files with the same normalization contract.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .textpipe import Chunk, DEFAULT_VOCAB_SIZE, tokenize

DEFAULT_DIM = 384
FP16_BYTES = 2


class EmbeddingProvider(Protocol):
    """Anything that can turn a token-id sequence into a unit vector."""

    dim: int

    def embed_tokens(self, token_ids: Sequence[int]) -> np.ndarray: ...


def _hash_coordinate(token_id: int, dim: int) -> int:
    return zlib.crc32(b"coord:" + str(int(token_id)).encode("ascii")) % dim


def _hash_sign(token_id: int) -> float:
    return 1.0 if zlib.crc32(b"sign:" + str(int(token_id)).encode("ascii")) % 2 == 0 else -1.0


class HashingEmbedder:
    """Deterministic signed-feature-hashing embedder over token ids."""

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    def embed_tokens(self, token_ids: Sequence[int]) -> np.ndarray:
        if len(token_ids) == 0:
            raise ValueError("cannot embed an empty token sequence")
        vec = np.zeros(self.dim, dtype=np.float64)
        # Fixed accumulation order keeps results bit-stable regardless of
        # how callers parallelize across chunks.
        for tid in token_ids:
            vec[_hash_coordinate(tid, self.dim)] += _hash_sign(tid)
        return normalize(vec)


class DegenerateEmbedding(ValueError):
    """The vector to normalize is zero, e.g. because signed hashes cancelled."""


def normalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise DegenerateEmbedding("zero vector cannot be normalized (degenerate embedding)")
    out = vec / norm
    out.setflags(write=False)
    return out


def embed_or_zero(provider: EmbeddingProvider, token_ids: Sequence[int]) -> np.ndarray:
    """Embed tokens; a sequence whose contributions cancel gives the zero vector."""
    try:
        return provider.embed_tokens(token_ids)
    except DegenerateEmbedding:
        zero = np.zeros(provider.dim, dtype=np.float64)
        zero.setflags(write=False)
        return zero


def embed_chunk(chunk: Chunk, provider: EmbeddingProvider) -> np.ndarray:
    """Embed one chunk. Empty chunks are rejected (unusable for cosine); a
    chunk whose signed hashes cancel embeds to the zero vector, which scoring
    treats as degenerate (score 0.0, ranked last)."""
    if chunk.size == 0:
        raise ValueError(f"chunk {chunk.chunk_index} is empty")
    return embed_or_zero(provider, chunk.token_ids)


def embed_query_text(
    text: str,
    provider: EmbeddingProvider,
    vocab_size: int = DEFAULT_VOCAB_SIZE,
) -> np.ndarray:
    """Tokenize text and embed through the same provider as chunks."""
    if not text:
        raise ValueError("query text must be non-empty")
    seq = tokenize(text, vocab_size=vocab_size)
    if len(seq) == 0:
        raise ValueError("query text contains no tokens")
    return provider.embed_tokens(seq.tokens)


class EmbeddingStore:
    """Chunk embeddings computed once at prefill, plus the current query.

    The chunk map is write-once: arrays are stored non-writeable and the
    mapping cannot be replaced after construction. Only ``query_embedding``
    may be swapped as the query evolves.
    """

    def __init__(self, chunk_embeddings: Mapping[int, np.ndarray], dim: int,
                 query_embedding: np.ndarray | None = None):
        frozen: dict[int, np.ndarray] = {}
        for idx, vec in chunk_embeddings.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dim,):
                raise ValueError(f"chunk {idx}: expected dimension {dim}, got {arr.shape}")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen[int(idx)] = arr
        self._chunk_embeddings = frozen
        self.dim = dim
        self.query_embedding = query_embedding

    @classmethod
    def from_chunks(cls, chunks: Iterable[Chunk], provider: EmbeddingProvider) -> "EmbeddingStore":
        return cls(
            {c.chunk_index: embed_chunk(c, provider) for c in chunks},
            dim=provider.dim,
        )

    @property
    def chunk_embeddings(self) -> Mapping[int, np.ndarray]:
        return self._chunk_embeddings

    def __contains__(self, chunk_index: int) -> bool:
        return chunk_index in self._chunk_embeddings

    def __getitem__(self, chunk_index: int) -> np.ndarray:
        return self._chunk_embeddings[chunk_index]

    def __len__(self) -> int:
        return len(self._chunk_embeddings)

    def indices(self) -> list[int]:
        return sorted(self._chunk_embeddings)


def load_external_embeddings(path: str | Path, expected_dim: int | None = None) -> dict[int, np.ndarray]:
    """Load precomputed chunk embeddings from a JSON-lines file.

    Each line must be an object {"chunk_index": int, "vector": [floats]}.
    Vectors are validated (single dimension across the file, finite entries,
    unique chunk_index) and then L2-normalized.
    """
    out: dict[int, np.ndarray] = {}
    dim = expected_dim
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            if "chunk_index" not in obj or "vector" not in obj:
                raise ValueError(f"{path}: line {lineno}: needs 'chunk_index' and 'vector'")
            idx = int(obj["chunk_index"])
            if idx in out:
                raise ValueError(f"{path}: line {lineno}: duplicate chunk_index {idx}")
            vec = np.asarray(obj["vector"], dtype=np.float64)
            if vec.ndim != 1:
                raise ValueError(f"{path}: line {lineno}: vector must be one-dimensional")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise ValueError(
                    f"{path}: line {lineno}: dimension mismatch (expected {dim}, got {vec.shape[0]})"
                )
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{path}: line {lineno}: non-finite entry in vector")
            out[idx] = normalize(vec)
    return out


def embedding_store_bytes(n_chunks: int, dim: int, bytes_per_element: int = FP16_BYTES) -> int:
    """Bytes needed to hold all chunk embeddings once, shared across layers."""
    if n_chunks < 0:
        raise ValueError("n_chunks must be >= 0")
    if dim < 1 or bytes_per_element < 1:
        raise ValueError("dim and bytes_per_element must be >= 1")
    return n_chunks * dim * bytes_per_element
