import pytest

from apce.cli import RUN_FLAGS, build_parser, build_run_config
from apce.config import KEY_SPECS, LoadModel, RunConfig, apply_overrides, load_config_file, parse_config_text
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


def test_parse_rejects_a_repeated_key():
    with pytest.raises(ValueError, match="line 4: key 'chunk.size' repeats line 2"):
        parse_config_text("mode = apce\nchunk.size = 10\n# again\nchunk.size = 20\n")


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


# a report's "config" section is this view, so any change to a key, an
# attribute or a default must show up here as a deliberate edit
DEFAULT_FLAT = {
    "chunk.size": 800, "embedding.dim": 384, "embedding.file": None, "embedding.provider": "hash",
    "generation.max_new_tokens": 64, "load.async_start_chunks": 4,
    "load.compute_seconds_per_element": 0.0, "load.decode_latency": 0.0, "load.per_chunk_latency": 0.0,
    "mode": "apce", "model.d_head": 32, "model.d_kv_total": 64, "model.d_model": 128,
    "model.max_position": 65536, "model.n_heads": 4, "model.n_layers": 4, "model.rope_theta": 10000.0,
    "query.alpha": 0.5, "query.recent_tokens": 50, "query.tail_chars": 100,
    "reprioritization.enabled": True, "reprioritization.interval": 50, "reprioritization.recompute": True,
    "seed": 0, "select.fraction": None, "select.max_chunks": None, "tokenizer.vocab_size": 32768,
}

KEY_ATTRIBUTES = {
    "mode": "mode", "seed": "seed", "chunk.size": "chunk_size", "select.max_chunks": "max_chunks",
    "select.fraction": "fraction", "reprioritization.enabled": "reprioritization_enabled",
    "reprioritization.interval": "interval", "reprioritization.recompute": "recompute",
    "query.tail_chars": "tail_chars", "query.recent_tokens": "recent_tokens", "query.alpha": "alpha",
    "embedding.dim": "embedding_dim", "embedding.provider": "embedding_provider",
    "embedding.file": "embedding_file", "tokenizer.vocab_size": "vocab_size",
    "generation.max_new_tokens": "max_new_tokens", "load.per_chunk_latency": "per_chunk_load_latency",
    "load.async_start_chunks": "async_start_chunks", "load.decode_latency": "decode_latency",
    "load.compute_seconds_per_element": "compute_seconds_per_element", "model.n_layers": "n_layers",
    "model.n_heads": "n_heads", "model.d_model": "d_model", "model.d_head": "d_head",
    "model.d_kv_total": "d_kv_total", "model.rope_theta": "rope_theta", "model.max_position": "max_position",
}

# each run flag: the key it sets, its arguments, and the value they give that key
FLAGS = {
    "--seed": ("seed", ["5"], 5),
    "--mode": ("mode", ["dense"], "dense"),
    "--chunk-size": ("chunk.size", ["64"], 64),
    "--max-chunks": ("select.max_chunks", ["3"], 3),
    "--fraction": ("select.fraction", ["0.5"], 0.5),
    "--interval": ("reprioritization.interval", ["7"], 7),
    "--no-recompute": ("reprioritization.recompute", [], False),
    "--no-reprioritization": ("reprioritization.enabled", [], False),
    "--async-start": ("load.async_start_chunks", ["2"], 2),
    "--max-new-tokens": ("generation.max_new_tokens", ["9"], 9),
    "--load-latency": ("load.per_chunk_latency", ["0.25"], 0.25),
    "--decode-latency": ("load.decode_latency", ["0.125"], 0.125),
}


def test_config_keys_and_defaults_are_the_recorded_ones():
    flat = RunConfig().as_flat_dict()
    assert flat == DEFAULT_FLAT
    assert list(flat) == sorted(DEFAULT_FLAT)  # reports list the keys sorted
    assert {key: attr for key, (attr, _) in KEY_SPECS.items()} == KEY_ATTRIBUTES


def test_every_run_flag_names_a_config_key():
    assert {flag: key for flag, key, _ in RUN_FLAGS} == {flag: key for flag, (key, _, _) in FLAGS.items()}
    assert {key for _, key, _ in RUN_FLAGS} <= set(KEY_SPECS)


@pytest.mark.parametrize("flag", FLAGS)
def test_each_run_flag_sets_exactly_its_key(flag):
    key, argv, value = FLAGS[flag]
    flat = build_run_config(build_parser().parse_args(["run", "--input", "corpus.jsonl", flag, *argv])).as_flat_dict()
    assert {k: v for k, v in flat.items() if v != DEFAULT_FLAT[k]} == {key: value}


@pytest.mark.parametrize("file_rule,flag,rule", [("select.fraction = 0.5", "--max-chunks", (3, None)),
                                                 ("select.max_chunks = 2", "--fraction", (None, 0.5))])
def test_a_selection_flag_replaces_the_rule_the_file_set(tmp_path, file_rule, flag, rule):
    path = tmp_path / "run.conf"
    path.write_text(file_rule + "\n")
    args = build_parser().parse_args(["run", "--input", "corpus.jsonl", "--config", str(path),
                                      flag, *FLAGS[flag][1]])
    config = build_run_config(args)
    assert (config.max_chunks, config.fraction) == rule
