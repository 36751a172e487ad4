import pytest

from apce.config import LoadModel, RunConfig, apply_overrides, load_config_file, parse_config_text
from apce.model import ModelConfig
from apce.textpipe import DEFAULT_VOCAB_SIZE


def test_defaults_are_valid():
    config = RunConfig()
    config.validate()
    assert config.chunk_size == 800
    assert config.interval == 50
    assert config.alpha == 0.5
    assert config.embedding_dim == 384
    assert config.async_start_chunks == 4
    assert config.model_config() == ModelConfig()  # the model and load defaults live there
    assert config.load_model() == LoadModel()
    assert config.vocab_size == DEFAULT_VOCAB_SIZE


def test_effective_k_fraction_round_half_up():
    config = RunConfig(fraction=0.7)
    assert config.effective_k(10) == 7
    assert config.effective_k(38) == 27  # 26.6 rounds up
    assert config.effective_k(5) == 4    # 3.5 rounds up
    assert config.effective_k(1) == 1


def test_effective_k_explicit_max_chunks():
    config = RunConfig(max_chunks=24)
    assert config.effective_k(38) == 24
    assert config.effective_k(10) == 10  # clamped to n


def test_effective_k_default_fraction():
    assert RunConfig().effective_k(10) == 7


def test_both_k_and_fraction_rejected():
    with pytest.raises(ValueError):
        RunConfig(max_chunks=5, fraction=0.5).validate()


@pytest.mark.parametrize("bad", [
    {"mode": "other"},
    {"chunk_size": 0},
    {"interval": 0},
    {"fraction": 1.5},
    {"alpha": -0.1},
    {"async_start_chunks": 0},
    {"decode_latency": -1.0},
    {"embedding_provider": "network"},
    {"embedding_provider": "file"},  # missing embedding_file
    {"recent_tokens": 0},
    {"recent_tokens": -3},
    {"tail_chars": 0},
    {"tail_chars": -3},
    {"compute_seconds_per_element": float("nan")},
    {"per_chunk_load_latency": float("inf")},
    {"rope_theta": 0.0},
    {"rope_theta": float("nan")},
])
def test_validation_rejects(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad).validate()


def test_parse_config_text():
    raw = parse_config_text(
        """
        # comment
        mode = dense
        chunk.size = 256
        reprioritization.recompute = false
        query.alpha = 0.25
        """
    )
    config = apply_overrides(RunConfig(), raw)
    assert config.mode == "dense"
    assert config.chunk_size == 256
    assert config.recompute is False
    assert config.alpha == 0.25


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("no.such.key = 1")


def test_parse_rejects_bad_line():
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just some words")


def test_apply_overrides_bad_value():
    with pytest.raises(ValueError, match="bad value"):
        apply_overrides(RunConfig(), {"reprioritization.interval": "soon"})


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("seed = 9\nreprioritization.interval = 25\nselect.fraction = 0.6\n")
    config = apply_overrides(RunConfig(), load_config_file(path))
    assert (config.seed, config.interval, config.fraction) == (9, 25, 0.6)


def test_flat_dict_covers_every_key():
    flat = RunConfig().as_flat_dict()
    assert flat["reprioritization.interval"] == 50
    assert flat["embedding.dim"] == 384
    assert flat["query.tail_chars"] == 100
    assert flat["query.recent_tokens"] == 50
    assert "mode" in flat and "seed" in flat
