"""Low-dimensional chunk and query embeddings.

The built-in provider uses signed feature hashing over token ids: every id
owns one coordinate in [0, dim) and a sign in {-1, +1}, both derived from
CRC32 hashes of the id bytes. Contributions accumulate in token order and
the result is L2-normalized. The representation is a bag model (token order
inside a chunk does not matter) and is fully deterministic, which is what
the scoring pipeline needs; semantic quality on par with a trained sentence
encoder is not the goal. External providers plug in through precomputed
embedding files with the same normalization contract.

Zero-vector rule: a non-empty bag whose signed hashes cancel embeds to the
read-only zero vector. It has no direction, so callers test ``.any()``:
scoring gives such a chunk 0.0 and ranks it last, a blend falls back to the
query tail, and a query tail itself may not embed to it.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .textpipe import Chunk, json_objects


def _hash_coordinate(token_id: int, dim: int) -> int:
    return zlib.crc32(b"coord:" + str(int(token_id)).encode("ascii")) % dim


def _hash_sign(token_id: int) -> float:
    return 1.0 if zlib.crc32(b"sign:" + str(int(token_id)).encode("ascii")) % 2 == 0 else -1.0


class HashingEmbedder:
    """Deterministic signed-feature-hashing embedder over token ids."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    def embed_tokens(self, token_ids: Sequence[int]) -> np.ndarray:
        """The unit embedding of a non-empty bag of ids, or the read-only
        zero vector when their signed hashes cancel."""
        if len(token_ids) == 0:
            raise ValueError("cannot embed an empty token sequence")
        vec = np.zeros(self.dim, dtype=np.float64)
        # Fixed accumulation order keeps results bit-stable regardless of
        # how callers parallelize across chunks.
        for tid in token_ids:
            vec[_hash_coordinate(tid, self.dim)] += _hash_sign(tid)
        if not vec.any():
            vec.setflags(write=False)
            return vec
        return normalize(vec)


def normalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("zero vector cannot be normalized")
    out = vec / norm
    out.setflags(write=False)
    return out


class EmbeddingStore:
    """Chunk embeddings computed once at prefill.

    The chunk map is write-once: arrays are stored non-writeable and the
    mapping cannot be replaced after construction.
    """

    def __init__(self, chunk_embeddings: Mapping[int, np.ndarray], dim: int):
        frozen: dict[int, np.ndarray] = {}
        for idx, vec in chunk_embeddings.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dim,):
                raise ValueError(f"chunk {idx}: expected dimension {dim}, got {arr.shape}")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen[int(idx)] = arr
        self._chunk_embeddings = frozen

    @classmethod
    def from_chunks(cls, chunks: Iterable[Chunk], provider: HashingEmbedder) -> "EmbeddingStore":
        return cls({c.chunk_index: provider.embed_tokens(c.token_ids) for c in chunks}, dim=provider.dim)

    def __getitem__(self, chunk_index: int) -> np.ndarray:
        return self._chunk_embeddings[chunk_index]


def load_external_embeddings(path: str | Path, expected_dim: int) -> dict[int, np.ndarray]:
    """Load precomputed chunk embeddings from a JSON-lines file.

    Each line must be an object {"chunk_index": int, "vector": [numbers]}.
    Vectors are validated (``expected_dim`` entries, all finite, unique
    chunk_index) and then L2-normalized. A bad line raises ValueError
    naming the path and the line.
    """
    out: dict[int, np.ndarray] = {}
    for lineno, obj in json_objects(path, "a line"):
        if "chunk_index" not in obj or "vector" not in obj:
            raise ValueError(f"{path}: line {lineno}: needs 'chunk_index' and 'vector'")
        idx = obj["chunk_index"]
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise ValueError(f"{path}: line {lineno}: chunk_index must be an integer, got {idx!r}")
        if idx in out:
            raise ValueError(f"{path}: line {lineno}: duplicate chunk_index {idx}")
        vector = obj["vector"]
        if not isinstance(vector, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in vector):
            raise ValueError(f"{path}: line {lineno}: vector must be a list of numbers")
        try:
            vec = np.asarray(vector, dtype=np.float64)
        except OverflowError as exc:  # an integer past the float range
            raise ValueError(f"{path}: line {lineno}: non-finite entry in vector") from exc
        if vec.shape[0] != expected_dim:
            raise ValueError(f"{path}: line {lineno}: dimension mismatch (expected {expected_dim}, "
                             f"got {vec.shape[0]})")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{path}: line {lineno}: non-finite entry in vector")
        if not vec.any():
            raise ValueError(f"{path}: line {lineno}: zero vector cannot be normalized")
        out[idx] = normalize(vec)
    return out
