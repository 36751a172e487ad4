import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apce.embed import HashingEmbedder
from apce.textpipe import tokenize
from apce.metrics import (
    embedding_cosine_proxy,
    lcs_length,
    mean_std,
    rouge_l_f1,
)


def brute_force_lcs(a, b):
    """Enumerate every subsequence of a and keep the longest found in b."""
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(x in it for x in sub):
            best = max(best, len(sub))
    return best


def test_identical_sequences():
    score = rouge_l_f1(list("abcd"), list("abcd"))
    assert score == (1.0, 1.0, 1.0)


def test_disjoint_sequences():
    assert rouge_l_f1(list("abc"), list("xyz")) == (0.0, 0.0, 0.0)


def test_worked_example():
    # LCS("a b c d", "a c d e") = "a c d" -> P = R = F1 = 3/4
    score = rouge_l_f1("a b c d".split(), "a c d e".split())
    assert score.precision == 0.75
    assert score.recall == 0.75
    assert score.f1 == 0.75
    assert brute_force_lcs("a b c d".split(), "a c d e".split()) == 3


def test_empty_inputs_score_zero():
    assert rouge_l_f1([], list("ab")) == (0.0, 0.0, 0.0)
    assert rouge_l_f1(list("ab"), []) == (0.0, 0.0, 0.0)


def test_lcs_exhaustive_small():
    # every pair over a 3-symbol alphabet up to length 4
    alphabet = "abc"
    seqs = [tuple()]
    for length in range(1, 5):
        seqs.extend(itertools.product(alphabet, repeat=length))
    for a in seqs:
        for b in seqs:
            assert lcs_length(a, b) == brute_force_lcs(a, b), (a, b)


@given(
    a=st.lists(st.sampled_from("abc"), max_size=12),
    b=st.lists(st.sampled_from("abc"), max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_lcs_matches_brute_force_up_to_12(a, b):
    assert lcs_length(a, b) == brute_force_lcs(a, b)


@given(
    a=st.lists(st.integers(0, 5), min_size=1, max_size=30),
    b=st.lists(st.integers(0, 5), min_size=1, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_rouge_bounds(a, b):
    score = rouge_l_f1(a, b)
    assert 0.0 <= score.precision <= 1.0
    assert 0.0 <= score.recall <= 1.0
    assert 0.0 <= score.f1 <= 1.0
    assert rouge_l_f1(a, a).f1 == 1.0


def test_mean_std_population_stddev():
    mean, std = mean_std([2.0, 4.0])
    assert mean == 3.0
    assert std == 1.0  # population, not sample
    assert mean_std([0.3, 0.3, 0.3]) == pytest.approx((0.3, 0.0))
    with pytest.raises(ValueError):
        mean_std([])


def test_embedding_cosine_proxy_basics():
    provider = HashingEmbedder(64)
    same = embedding_cosine_proxy([1, 2, 3], [1, 2, 3], provider)
    assert same == 1.0
    assert embedding_cosine_proxy([], [1], provider) == 0.0


def test_embedding_cosine_proxy_degenerate_input_scores_zero():
    cancelling = list(tokenize("z6 z54"))
    assert embedding_cosine_proxy(cancelling, [1, 2, 3], HashingEmbedder(384)) == 0.0
