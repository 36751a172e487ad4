"""Deterministic tokenization and fixed-size chunk partitioning.

The tokenizer is intentionally self-contained: text is split into word and
punctuation pieces, and each piece maps to an id through a stable 32-bit hash
(CRC32) reduced modulo the vocabulary size. Identical text therefore yields
identical ids on every platform and in every process, which the selection,
caching, and replay machinery downstream depends on. Linguistic fidelity is
a non-goal; determinism is the contract.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass
from pathlib import Path

DEFAULT_VOCAB_SIZE = 32768

# Words (runs of word characters) or single non-space punctuation marks.
_PIECE_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def piece_to_id(piece: str, vocab_size: int = DEFAULT_VOCAB_SIZE) -> int:
    """Map one surface piece to a stable token id in [0, vocab_size)."""
    return zlib.crc32(piece.encode("utf-8")) % vocab_size


@dataclass(frozen=True)
class TokenSequence:
    """An ordered run of token ids, with the surface pieces kept alongside.

    The hash mapping is not invertible, so the pieces are the only way back
    from ids to the text they came from.
    """

    tokens: tuple[int, ...]
    pieces: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.pieces is not None and len(self.pieces) != len(self.tokens):
            raise ValueError("pieces and tokens must have equal length")

    def __len__(self) -> int:
        return len(self.tokens)

    def slice(self, start: int, stop: int) -> "TokenSequence":
        pieces = self.pieces[start:stop] if self.pieces is not None else None
        return TokenSequence(tokens=self.tokens[start:stop], pieces=pieces)


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB_SIZE) -> TokenSequence:
    """Tokenize utf-8 text deterministically. Empty text gives an empty sequence."""
    if not isinstance(text, str):
        raise TypeError("tokenize expects a str")
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    pieces = tuple(_PIECE_RE.findall(text))
    ids = tuple(piece_to_id(p, vocab_size) for p in pieces)
    return TokenSequence(tokens=ids, pieces=pieces)


@dataclass(frozen=True)
class Chunk:
    """A contiguous slice of the document's token sequence."""

    chunk_index: int
    tokens: TokenSequence
    doc_token_offset: int

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def token_ids(self) -> tuple[int, ...]:
        return self.tokens.tokens


def chunk(seq: TokenSequence, chunk_size: int) -> list[Chunk]:
    """Partition a token sequence into fixed-size chunks.

    Every chunk has exactly ``chunk_size`` tokens except possibly the last,
    which holds the remainder (never empty). An empty sequence gives an
    empty list.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    chunks: list[Chunk] = []
    n = len(seq)
    for i, start in enumerate(range(0, n, chunk_size)):
        stop = min(start + chunk_size, n)
        chunks.append(Chunk(chunk_index=i, tokens=seq.slice(start, stop), doc_token_offset=start))
    return chunks


@dataclass(frozen=True)
class Record:
    """One evaluation record: a document, the instruction, and optionally a reference."""

    id: str
    text: str
    query: str
    reference: str | None = None


def load_jsonl_records(path: str | Path) -> list[Record]:
    """Read evaluation records from a JSON-lines file.

    Each line must be an object with "id", "text", and "query"; "reference"
    is optional. An id names the record's report file, so it may not be
    empty, "." or "..", nor hold "/", "\\" or NUL.
    """
    records: list[Record] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            missing = [key for key in ("id", "text", "query") if key not in obj]
            if missing:
                raise ValueError(f"{path}: line {lineno}: missing fields {missing}")
            record_id = str(obj["id"])
            if record_id in ("", ".", "..") or any(c in record_id for c in "/\\\0"):
                raise ValueError(f"{path}: line {lineno}: record id {record_id!r} is not a file name")
            records.append(
                Record(
                    id=record_id,
                    text=obj["text"],
                    query=obj["query"],
                    reference=obj.get("reference"),
                )
            )
    return records


def load_text_file(path: str | Path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()
