"""Deterministic tokenization and fixed-size chunk partitioning.

The tokenizer is intentionally self-contained: text is split into word and
punctuation pieces, and each piece maps to an id through a stable 32-bit hash
(CRC32) reduced modulo the vocabulary size. Identical text therefore yields
identical ids on every platform and in every process, which the selection,
caching, and replay machinery downstream depends on. Linguistic fidelity is
a non-goal; determinism is the contract.

The hash is not invertible, so ids do not lead back to text. A caller that
needs the pieces splits the text again with the same pattern: the i-th
piece gives the i-th id.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

DEFAULT_VOCAB_SIZE = 32768

# Words (runs of word characters) or single non-space punctuation marks.
_PIECE_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB_SIZE) -> tuple[int, ...]:
    """Tokenize utf-8 text deterministically into token ids. Empty text gives ()."""
    if not isinstance(text, str):
        raise TypeError("tokenize expects a str")
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    return tuple(zlib.crc32(p.encode("utf-8")) % vocab_size for p in _PIECE_RE.findall(text))


@dataclass(frozen=True)
class Chunk:
    """A contiguous slice of the document's token ids."""

    chunk_index: int
    token_ids: tuple[int, ...]
    doc_token_offset: int

    @property
    def size(self) -> int:
        return len(self.token_ids)


def chunk(ids: tuple[int, ...], chunk_size: int) -> list[Chunk]:
    """Partition token ids into fixed-size chunks, numbered in document order.

    Every chunk has exactly ``chunk_size`` tokens except possibly the last,
    which holds the remainder (never empty). No ids give an empty list.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [Chunk(chunk_index=i, token_ids=tuple(ids[start:start + chunk_size]), doc_token_offset=start)
            for i, start in enumerate(range(0, len(ids), chunk_size))]


@dataclass(frozen=True)
class Record:
    """One evaluation record: a document, the instruction, and optionally a reference."""

    id: str
    text: str
    query: str
    reference: str | None = None


def json_objects(path: str | Path, what: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of the JSON-lines file
    at ``path``. A line that is not JSON, or not a JSON object (``what``
    names it in the message), raises ValueError naming the path and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno}: {what} must be a JSON object")
            yield lineno, obj


def load_jsonl_records(path: str | Path) -> list[Record]:
    """Read evaluation records from a JSON-lines file.

    Each line must be an object with "id", "text", and "query"; "reference"
    is optional (null means none). "id", "text", "query" and a "reference"
    must be strings. An id names the record's report file, so it may not be
    empty, "." or "..", nor hold "/", "\\" or NUL, and no two records may
    share one.
    """
    records: list[Record] = []
    first_line: dict[str, int] = {}  # record id -> the line that holds it
    for lineno, obj in json_objects(path, "a record"):
        missing = [key for key in ("id", "text", "query") if key not in obj]
        if missing:
            raise ValueError(f"{path}: line {lineno}: missing fields {missing}")
        not_text = [key for key in ("id", "text", "query") if not isinstance(obj[key], str)]
        if not isinstance(obj.get("reference", ""), (str, type(None))):
            not_text.append("reference")
        if not_text:
            raise ValueError(f"{path}: line {lineno}: fields {not_text} must be strings")
        record_id = obj["id"]
        if record_id in ("", ".", "..") or any(c in record_id for c in "/\\\0"):
            raise ValueError(f"{path}: line {lineno}: record id {record_id!r} is not a file name")
        if record_id in first_line:
            raise ValueError(f"{path}: line {lineno}: record id {record_id!r} "
                             f"repeats line {first_line[record_id]}")
        first_line[record_id] = lineno
        records.append(Record(id=record_id, text=obj["text"], query=obj["query"], reference=obj.get("reference")))
    return records
