"""Span recorder for the traced run.

The recorder wraps public callables of the package from outside: each
wrapper records a span (name, start, end, parent span, session id) and may
add to counters from the call's arguments and result. A name is wrapped
where its caller looks it up, so ``score_chunks`` is wrapped both in
``apce.sched`` and in ``apce.reprior``. ``restore`` puts every original
back. Spans stay in memory; ``layer_times`` reduces them once the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

CountHook = Callable[[dict, tuple, object], None]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, session]
        self.counts: dict[str, float] = defaultdict(float)
        self.session = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str, count: CountHook | None = None) -> None:
        """Replace ``owner.attr`` (module function, method or classmethod)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: object = classmethod(self._traced(original.__func__, name, count))
        else:
            replacement = self._traced(original, name, count)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _traced(self, fn: Callable, name: str, count: CountHook | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.session]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, list[float]]]:
        """Total and self seconds per span name, plus each call's seconds.

        Self time is a span's duration minus that of its direct children;
        calls nest strictly on one thread, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            total[name] += (end - start) / 1e9
            own[name] += (end - start - children) / 1e9
            calls[name].append((end - start) / 1e9)
        return total, own, calls


def _count_prefill(counts: dict, args: tuple, result) -> None:
    counts["prefill_elements"] += result.score_elements


def _count_decode(counts: dict, args: tuple, result) -> None:
    counts["decode_elements"] += result.score_elements


def _count_rebuild(counts: dict, args: tuple, result) -> None:
    counts["rebuild_elements"] += result


def _count_boundary(counts: dict, args: tuple, result) -> None:
    counts["boundaries"] += 1


def _count_plan(counts: dict, args: tuple, result) -> None:
    _, plan, handle, _ = args[:4]
    if plan.is_empty():
        return
    counts["plans_taken"] += 1
    counts["admitted"] += len(plan.admit)
    if handle.recompute_enabled:
        counts["recomputed"] += len(plan.recompute)


def install(recorder: SpanRecorder) -> None:
    """Wrap the public names behind the per-layer metrics, where sched,
    reprior, cli and CacheHandle look them up."""
    import apce.cli as cli
    import apce.reprior as reprior
    import apce.sched as sched
    from apce.embed import EmbeddingStore
    from apce.model import DecoderModel

    targets = [
        (cli, "run_record", "cli.run_record", None),
        (cli, "write_report", "cli.write_report", None),
        (cli, "tokenize", "textpipe.tokenize", None),
        (cli, "rouge_l_f1", "metrics.rouge_l_f1", None),
        (cli, "simulate_generation", "sched.simulate_generation", None),
        (sched, "simulate_generation", "sched.simulate_generation", None),
        (sched, "tokenize", "textpipe.tokenize", None),
        (sched, "chunk_tokens", "textpipe.chunk", None),
        (EmbeddingStore, "from_chunks", "embed.from_chunks", None),
        (sched, "score_chunks", "select.score_chunks", None),
        (sched, "select_top_k", "select.select_top_k", None),
        (sched, "update_enhanced_query", "reprior.update_enhanced_query", None),
        (sched, "reprioritize", "reprior.reprioritize", _count_boundary),
        (sched, "apply_plan", "reprior.apply_plan", _count_plan),
        (reprior, "score_chunks", "select.score_chunks", None),
        (reprior, "select_top_k", "select.select_top_k", None),
        (DecoderModel, "__init__", "model.init", None),
        (DecoderModel, "prefill", "model.prefill", _count_prefill),
        (DecoderModel, "decode_step", "model.decode_step", _count_decode),
        (DecoderModel, "rebuild_blocks", "model.rebuild_blocks", _count_rebuild),
    ]
    for owner, attr, name, count in targets:
        recorder.wrap(owner, attr, name, count)
