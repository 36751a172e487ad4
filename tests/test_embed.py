import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apce.embed import (
    DegenerateEmbedding,
    EmbeddingStore,
    HashingEmbedder,
    embed_chunk,
    embed_query_text,
    embedding_store_bytes,
    load_external_embeddings,
)
from apce.textpipe import Chunk, TokenSequence, chunk, tokenize

from oracles.hashing_embedding_reference import reference_embedding


def make_chunk(ids, index=0, offset=0):
    return Chunk(chunk_index=index, tokens=TokenSequence(tokens=tuple(ids)), doc_token_offset=offset)


def test_identical_chunks_identical_embeddings():
    provider = HashingEmbedder(32)
    a = embed_chunk(make_chunk([5, 9, 120]), provider)
    b = embed_chunk(make_chunk([5, 9, 120], index=3, offset=30), provider)
    assert np.array_equal(a, b)


def test_single_repeated_token_single_coordinate():
    provider = HashingEmbedder(64)
    vec = embed_chunk(make_chunk([7, 7, 7, 7]), provider)
    nonzero = np.nonzero(vec)[0]
    assert len(nonzero) == 1
    assert abs(abs(vec[nonzero[0]]) - 1.0) < 1e-12


def test_matches_reference_oracle():
    ids = [3, 17, 255, 31999, 42, 42, 8, 1023, 77, 5, 900, 13, 13, 2, 64, 65, 66, 1, 0, 511]
    provider = HashingEmbedder(384)
    got = provider.embed_tokens(ids)
    want = np.asarray(reference_embedding(ids, 384))
    assert np.allclose(got, want, atol=1e-12)


def test_empty_chunk_rejected():
    provider = HashingEmbedder(16)
    with pytest.raises(ValueError):
        embed_chunk(make_chunk([]), provider)


def test_query_text_routes_through_same_provider():
    provider = HashingEmbedder(96)
    text = "summarize the chapter about winters"
    seq = tokenize(text)
    via_text = embed_query_text(text, provider)
    via_tokens = provider.embed_tokens(seq.tokens)
    assert np.array_equal(via_text, via_tokens)


def test_query_text_matches_oracle():
    provider = HashingEmbedder(384)
    text = "summarize the chapter"
    ids = list(tokenize(text).tokens)
    assert np.allclose(embed_query_text(text, provider), reference_embedding(ids, 384), atol=1e-12)


def test_empty_query_rejected():
    with pytest.raises(ValueError):
        embed_query_text("", HashingEmbedder(8))
    with pytest.raises(ValueError):
        embed_query_text("   ", HashingEmbedder(8))


@given(st.lists(st.integers(min_value=0, max_value=32767), min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_norm_invariant(ids):
    provider = HashingEmbedder(384)
    try:
        vec = provider.embed_tokens(ids)
    except ValueError:
        return  # total sign cancellation is a documented degenerate error
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-6
    assert np.all(np.isfinite(vec))


@given(st.lists(st.integers(min_value=0, max_value=32767), min_size=2, max_size=40),
       st.randoms())
@settings(max_examples=40, deadline=None)
def test_bag_model_order_insensitive(ids, rnd):
    provider = HashingEmbedder(128)
    shuffled = list(ids)
    rnd.shuffle(shuffled)
    try:
        a = provider.embed_tokens(ids)
    except ValueError:
        return
    assert np.array_equal(a, provider.embed_tokens(shuffled))


def test_store_immutable_after_prefill():
    seq = tokenize("one two three four five six seven eight")
    chunks = chunk(seq, 3)
    store = EmbeddingStore.from_chunks(chunks, HashingEmbedder(32))
    first = store[0].copy()
    with pytest.raises(ValueError):
        store[0][0] = 99.0
    assert np.array_equal(store[0], first)
    assert store[1].flags.writeable is False


def test_store_dimension_check():
    with pytest.raises(ValueError):
        EmbeddingStore({0: np.ones(4)}, dim=5)


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def test_external_embeddings_valid(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(path, [
        {"chunk_index": 0, "vector": [3.0, 4.0]},
        {"chunk_index": 1, "vector": [1.0, 0.0]},
        {"chunk_index": 2, "vector": [0.0, -2.0]},
    ])
    frags = load_external_embeddings(path)
    assert sorted(frags) == [0, 1, 2]
    # norms checked against hand computation: (3,4)/5, (1,0), (0,-1)
    assert np.allclose(frags[0], [0.6, 0.8])
    assert np.allclose(frags[1], [1.0, 0.0])
    assert np.allclose(frags[2], [0.0, -1.0])


def test_external_embeddings_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(path, [
        {"chunk_index": 0, "vector": [1.0, 0.0]},
        {"chunk_index": 1, "vector": [1.0, 0.0, 0.0]},
    ])
    with pytest.raises(ValueError, match="line 2"):
        load_external_embeddings(path)


def test_external_embeddings_nan(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(path, [{"chunk_index": 0, "vector": [1.0, float("nan")]}])
    with pytest.raises(ValueError, match="non-finite"):
        load_external_embeddings(path)


def test_external_embeddings_duplicate_index(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(path, [
        {"chunk_index": 0, "vector": [1.0, 0.0]},
        {"chunk_index": 0, "vector": [0.0, 1.0]},
    ])
    with pytest.raises(ValueError, match="duplicate"):
        load_external_embeddings(path)


@pytest.mark.parametrize(
    "n,d,bpe,expected",
    [
        (1, 384, 2, 768),
        (37, 384, 2, 28_416),  # about 27.75 KB for the 30k-group store
        (0, 384, 2, 0),
    ],
)
def test_embedding_store_bytes(n, d, bpe, expected):
    assert embedding_store_bytes(n, d, bpe) == expected


def test_cancelling_chunk_embeds_to_zero():
    provider = HashingEmbedder(384)
    ids = tokenize("z6 z54").tokens  # both pieces hash to one coordinate, opposite signs
    with pytest.raises(DegenerateEmbedding):
        provider.embed_tokens(ids)
    vec = embed_chunk(make_chunk(ids), provider)
    assert vec.shape == (384,) and not vec.any()
