"""Output check: count laws at any seed, digests at the recorded seeds.

A session passes when its ``GenerationTrace`` obeys the count laws

- ``len(tokens) == max_new_tokens``;
- the initial prefill computed exactly (resident tokens)^2 score elements;
- ``taken <= available``;

and, where ``digests.json`` holds a digest for the (workload, seed, item),
when its digest matches. The digest covers the tokens, the counters, the
selection history and the virtual times, and was recorded from the code
the benchmark was defined on (``record_digests.py`` regenerates it).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"


def session_summary(trace) -> dict:
    """The deterministic part of a trace, in canonical JSON-ready form."""
    stats = trace.replacement_stats
    return {
        "tokens": list(trace.tokens),
        "counters": dict(trace.counters),
        "initial_selection": list(trace.initial_selection),
        "replacements": [e.as_dict() for e in stats.events],
        "taken": stats.taken,
        "available": stats.available,
        "ttft": repr(trace.ttft),
        "total_time": repr(trace.total_time),
    }


def digest(parts: list) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:24]


def law_violations(trace, chunk_size: int, max_new_tokens: int) -> list[str]:
    """Count laws that ``trace`` breaks (empty when it passes)."""
    bad = []
    if len(trace.tokens) != max_new_tokens:
        bad.append(f"{len(trace.tokens)} tokens, expected {max_new_tokens}")
    resident = sum(min(chunk_size, trace.doc_tokens - i * chunk_size)
                   for i in trace.initial_selection)
    if trace.counters["prefill_elements"] != resident * resident:
        bad.append(f"prefill_elements {trace.counters['prefill_elements']} != {resident}^2")
    stats = trace.replacement_stats
    if stats.taken > stats.available:
        bad.append(f"taken {stats.taken} > available {stats.available}")
    return bad


class DigestTable:
    """Recorded digests keyed by workload, then seed, then item index."""

    def __init__(self, table: dict[str, dict[str, list[str]]]):
        self.table = table

    @classmethod
    def load(cls, path: Path = DIGEST_FILE) -> "DigestTable":
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def mismatch(self, workload: str, seed: int, item: int, got: str) -> str | None:
        """Why ``got`` differs from the recorded digest; None if none is recorded."""
        items = self.table.get(workload, {}).get(str(seed))
        want = items[item] if items is not None else None
        if want is None or want == got:
            return None
        return f"digest {got} != recorded {want}"
