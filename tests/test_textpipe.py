import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apce.textpipe import (
    Record,
    chunk,
    load_jsonl_records,
    tokenize,
)

DATA = Path(__file__).parent / "data"


def test_empty_text_gives_empty_sequence():
    assert tokenize("") == ()


def test_repeated_word_maps_to_equal_ids():
    ids = tokenize("a a a")
    assert len(ids) == 3
    assert ids[0] == ids[1] == ids[2]


def test_golden_tokens():
    # expected ids generated once by tests/oracles/tokenizer_reference.py
    golden = json.loads((DATA / "golden_tokens.json").read_text())
    got = tokenize(golden["text"], vocab_size=golden["vocab_size"])
    assert list(got) == golden["tokens"]


def test_tokenize_deterministic():
    text = "Some text, with punctuation! And 2 numbers: 42."
    assert tokenize(text) == tokenize(text)


def test_token_ids_below_vocab():
    ids = tokenize("alpha beta gamma delta", vocab_size=11)
    assert all(0 <= t < 11 for t in ids)


def test_chunk_6_tokens_by_4():
    seq = tokenize("a b c d e f")
    parts = chunk(seq, 4)
    assert [c.size for c in parts] == [4, 2]
    assert [c.doc_token_offset for c in parts] == [0, 4]


def test_chunk_exact_division():
    parts = chunk(tuple(range(8000)), 800)
    assert len(parts) == 10
    assert all(c.size == 800 for c in parts)


def test_chunk_30k_group_shape():
    # ceil(29924 / 800) = 38 with a final remainder chunk of 324 tokens
    parts = chunk(tuple(i % 32768 for i in range(29924)), 800)
    assert len(parts) == 38
    assert parts[-1].size == 324
    assert all(c.size == 800 for c in parts[:-1])


def test_chunk_rejects_zero_size():
    with pytest.raises(ValueError):
        chunk(tokenize("a b"), 0)


def test_chunk_empty_sequence():
    assert chunk(tokenize(""), 5) == []


@given(
    n=st.integers(min_value=0, max_value=100_000),
    m=st.integers(min_value=1, max_value=4096),
)
@settings(max_examples=40, deadline=None)
def test_partition_completeness_and_count_law(n, m):
    ids = tuple(i % 32768 for i in range(n))
    parts = chunk(ids, m)
    assert len(parts) == math.ceil(n / m)
    assert tuple(t for c in parts for t in c.token_ids) == ids
    running_offset = 0
    for i, c in enumerate(parts):
        assert c.chunk_index == i
        assert c.doc_token_offset == running_offset
        running_offset += c.size
        if i < len(parts) - 1:
            assert c.size == m
        else:
            assert 1 <= c.size <= m


def test_jsonl_records(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "a", "text": "one two", "query": "q", "reference": "r"}\n'
        '{"id": "b", "text": "three", "query": "q2"}\n'
    )
    records = load_jsonl_records(path)
    assert records == [
        Record(id="a", text="one two", query="q", reference="r"),
        Record(id="b", text="three", query="q2", reference=None),
    ]


def test_jsonl_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "one"}\n')
    with pytest.raises(ValueError, match="query"):
        load_jsonl_records(path)
