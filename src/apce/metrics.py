"""Summarization metrics: ROUGE-L F1 plus aggregate mean/stddev formatting."""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

import numpy as np

from .embed import EmbeddingProvider, embed_or_zero
from .select import cosine

_SCORING_PIECE_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class RougeLScore(NamedTuple):
    precision: float
    recall: float
    f1: float


def tokenize_for_scoring(text: str) -> list[str]:
    """Lowercase word/punctuation split, independent of the model tokenizer."""
    return _SCORING_PIECE_RE.findall(text.lower())


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Longest common subsequence length via the standard dynamic program."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l_f1(candidate: Sequence, reference: Sequence) -> RougeLScore:
    """ROUGE-L over token sequences. Empty candidate or reference scores zero."""
    if not candidate or not reference:
        return RougeLScore(0.0, 0.0, 0.0)
    lcs = lcs_length(candidate, reference)
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return RougeLScore(precision, recall, f1)


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Population mean and standard deviation."""
    if not values:
        raise ValueError("need at least one value")
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def score_summary(values: Sequence[float]) -> str:
    """Format scores as 'mean±stddev' with four decimals, e.g. '0.1500±0.0500'."""
    mean, std = mean_std(values)
    return f"{mean:.4f}±{std:.4f}"


def embedding_cosine_proxy(
    candidate_tokens: Sequence[int],
    reference_tokens: Sequence[int],
    provider: EmbeddingProvider,
) -> float:
    """Cosine between hashed bag embeddings of candidate and reference.

    A cheap relatedness proxy only. It is not BERTScore and must never be
    reported as such: there is no contextual model behind it. Empty inputs
    and inputs that embed to the zero vector score 0.0.
    """
    if not candidate_tokens or not reference_tokens:
        return 0.0
    a = embed_or_zero(provider, candidate_tokens)
    b = embed_or_zero(provider, reference_tokens)
    return cosine(a, b) if a.any() and b.any() else 0.0
