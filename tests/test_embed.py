import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apce.embed import EmbeddingStore, HashingEmbedder, load_external_embeddings
from apce.textpipe import Chunk, chunk, tokenize

from oracles.hashing_embedding_reference import reference_embedding


def make_chunk(ids, index=0, offset=0):
    return Chunk(chunk_index=index, token_ids=tuple(ids), doc_token_offset=offset)


def test_identical_chunks_identical_embeddings():
    store = EmbeddingStore.from_chunks(
        [make_chunk([5, 9, 120]), make_chunk([5, 9, 120], index=3, offset=30)], HashingEmbedder(32))
    assert np.array_equal(store[0], store[3])


def test_single_repeated_token_single_coordinate():
    provider = HashingEmbedder(64)
    vec = provider.embed_tokens([7, 7, 7, 7])
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
    with pytest.raises(ValueError, match="empty"):
        EmbeddingStore.from_chunks([make_chunk([1]), make_chunk([], index=1, offset=1)], provider)


def test_query_text_matches_oracle():
    provider = HashingEmbedder(384)
    text = "summarize the chapter"
    ids = tokenize(text)
    assert np.allclose(provider.embed_tokens(ids), reference_embedding(list(ids), 384), atol=1e-12)


def test_empty_query_rejected():
    for text in ("", "   "):
        with pytest.raises(ValueError, match="empty"):
            HashingEmbedder(8).embed_tokens(tokenize(text))


@given(st.lists(st.integers(min_value=0, max_value=32767), min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_norm_invariant(ids):
    vec = HashingEmbedder(384).embed_tokens(ids)
    if not vec.any():
        return  # every signed hash cancelled: the zero vector
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-6
    assert np.all(np.isfinite(vec))


@given(st.lists(st.integers(min_value=0, max_value=32767), min_size=2, max_size=40),
       st.randoms())
@settings(max_examples=40, deadline=None)
def test_bag_model_order_insensitive(ids, rnd):
    provider = HashingEmbedder(128)
    shuffled = list(ids)
    rnd.shuffle(shuffled)
    assert np.array_equal(provider.embed_tokens(ids), provider.embed_tokens(shuffled))


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
    frags = load_external_embeddings(path, expected_dim=2)
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
        load_external_embeddings(path, expected_dim=2)


def test_external_embeddings_nan(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(path, [{"chunk_index": 0, "vector": [1.0, float("nan")]}])
    with pytest.raises(ValueError, match="non-finite"):
        load_external_embeddings(path, expected_dim=2)


def test_external_embeddings_zero_vector(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(path, [
        {"chunk_index": 0, "vector": [1.0, 0.0]},
        {"chunk_index": 1, "vector": [0.0, -0.0]},
    ])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: zero vector"):
        load_external_embeddings(path, expected_dim=2)


@pytest.mark.parametrize("line,complaint", [
    pytest.param("5", "a line must be a JSON object", id="number"),
    pytest.param('["chunk_index", "vector"]', "a line must be a JSON object", id="list"),
    pytest.param('{"chunk_index": null, "vector": [1.0, 0.0]}', "chunk_index must be an integer",
                 id="null-index"),
    pytest.param('{"chunk_index": 0.7, "vector": [1.0, 0.0]}', "chunk_index must be an integer",
                 id="float-index"),
    pytest.param('{"chunk_index": true, "vector": [1.0, 0.0]}', "chunk_index must be an integer",
                 id="bool-index"),
    pytest.param('{"chunk_index": "1", "vector": [1.0, 0.0]}', "chunk_index must be an integer",
                 id="string-index"),
    pytest.param('{"chunk_index": 1, "vector": ["a", 0.0]}', "vector must be a list of numbers",
                 id="string-entry"),
    pytest.param('{"chunk_index": 1, "vector": [true, false]}', "vector must be a list of numbers",
                 id="bool-entries"),
    pytest.param('{"chunk_index": 1, "vector": [[1.0], [0.0]]}', "vector must be a list of numbers",
                 id="nested"),
    pytest.param('{"chunk_index": 1, "vector": "1.0"}', "vector must be a list of numbers",
                 id="string-vector"),
    pytest.param('{"chunk_index": 1, "vector": null}', "vector must be a list of numbers",
                 id="null-vector"),
    pytest.param('{"chunk_index": 1, "vector": [1' + "0" * 400 + ', 0.0]}', "non-finite entry",
                 id="int-past-float-range"),
])
def test_external_embeddings_bad_line(tmp_path, line, complaint):
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps({"chunk_index": 0, "vector": [1.0, 0.0]}) + "\n" + line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: {complaint}"):
        load_external_embeddings(path, expected_dim=2)


def test_external_embeddings_duplicate_index(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(path, [
        {"chunk_index": 0, "vector": [1.0, 0.0]},
        {"chunk_index": 0, "vector": [0.0, 1.0]},
    ])
    with pytest.raises(ValueError, match="duplicate"):
        load_external_embeddings(path, expected_dim=2)


def test_cancelling_chunk_embeds_to_zero():
    provider = HashingEmbedder(384)
    ids = tokenize("z6 z54")  # both pieces hash to one coordinate, opposite signs
    vec = provider.embed_tokens(ids)
    assert vec.shape == (384,) and not vec.any()
    assert not vec.flags.writeable
    assert not EmbeddingStore.from_chunks([make_chunk(ids)], provider)[0].any()
