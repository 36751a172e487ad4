"""Run configuration: defaults, config-file parsing, CLI override keys, and
the simulated latencies a session runs under (``LoadModel``).

The config format is a flat key-value file (``key = value`` per line, ``#``
comments). Keys are namespaced per subsystem. Each ``RunConfig`` field
declares its key, its default and any bound or fixed set of values
(``_setting``); ``KEY_SPECS`` is derived from the fields, and each key's
parser from its field's annotation. Command-line flags override file values,
which override defaults.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

from .model import ModelConfig


@dataclass(frozen=True)
class LoadModel:
    """Simulated latencies. Zero means instantaneous."""

    per_chunk_load_latency: float = 0.0
    async_start_chunks: int = 4
    decode_latency: float = 0.0
    compute_seconds_per_element: float = 0.0

    def __post_init__(self) -> None:
        for name in ("per_chunk_load_latency", "decode_latency", "compute_seconds_per_element"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"latencies must be finite and >= 0, {name} is {getattr(self, name)}")
        if self.async_start_chunks < 1:
            raise ValueError("async_start_chunks must be >= 1")


# ModelConfig/LoadModel field -> the RunConfig field it is copied from
_RENAMED = {"init_seed": "seed"}


def _setting(key: str, default: Any, least: int | None = None, choices: tuple[str, ...] = ()) -> Any:
    """A ``RunConfig`` field whose config-file and report key is ``key``; ``validate``
    refuses a value below ``least`` or outside ``choices`` (None is always inside)."""
    return field(default=default, metadata={"key": key, "least": least, "choices": choices})


@dataclass
class RunConfig:
    """Every setting of a run, each under its config key. The model and load
    fields take their defaults from ``ModelConfig`` and ``LoadModel``."""

    mode: str = _setting("mode", "apce", choices=("dense", "apce"))
    seed: int = _setting("seed", 0, least=0)  # numpy's generators take no negative seed
    chunk_size: int = _setting("chunk.size", 800, least=1)
    max_chunks: int | None = _setting("select.max_chunks", None, least=1)
    fraction: float | None = _setting("select.fraction", None)
    reprioritization_enabled: bool = _setting("reprioritization.enabled", True)
    interval: int = _setting("reprioritization.interval", 50, least=1)
    recompute: bool = _setting("reprioritization.recompute", True)
    # tokens[-0:] is every token, so a window below 1 would silently mean "all"
    tail_chars: int = _setting("query.tail_chars", 100, least=1)
    recent_tokens: int = _setting("query.recent_tokens", 50, least=1)
    alpha: float = _setting("query.alpha", 0.5)
    embedding_dim: int = _setting("embedding.dim", 384, least=1)
    embedding_provider: str = _setting("embedding.provider", "hash", choices=("hash", "file"))
    embedding_file: str | None = _setting("embedding.file", None)
    vocab_size: int = _setting("tokenizer.vocab_size", ModelConfig.vocab_size)
    max_new_tokens: int = _setting("generation.max_new_tokens", 64, least=1)
    per_chunk_load_latency: float = _setting("load.per_chunk_latency", LoadModel.per_chunk_load_latency)
    async_start_chunks: int = _setting("load.async_start_chunks", LoadModel.async_start_chunks)
    decode_latency: float = _setting("load.decode_latency", LoadModel.decode_latency)
    compute_seconds_per_element: float = _setting("load.compute_seconds_per_element",
                                                  LoadModel.compute_seconds_per_element)
    n_layers: int = _setting("model.n_layers", ModelConfig.n_layers)
    n_heads: int = _setting("model.n_heads", ModelConfig.n_heads)
    d_model: int = _setting("model.d_model", ModelConfig.d_model)
    d_head: int = _setting("model.d_head", ModelConfig.d_head)
    d_kv_total: int = _setting("model.d_kv_total", ModelConfig.d_kv_total)
    rope_theta: float = _setting("model.rope_theta", ModelConfig.rope_theta)
    max_position: int = _setting("model.max_position", ModelConfig.max_position)

    def validate(self) -> None:
        for f in fields(self):
            key, least, choices = f.metadata["key"], f.metadata["least"], f.metadata["choices"]
            value = getattr(self, f.name)
            if choices and value not in choices:
                raise ValueError(f"{key} must be {' or '.join(map(repr, choices))}, got {value!r}")
            if least is not None and value is not None and value < least:
                raise ValueError(f"{key} must be >= {least}")
        if self.max_chunks is not None and self.fraction is not None:
            raise ValueError("set at most one of select.max_chunks and select.fraction")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError("select.fraction must lie in (0, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("query.alpha must lie in [0, 1]")
        if self.embedding_provider == "file" and not self.embedding_file:
            raise ValueError("embedding.provider 'file' needs embedding.file")
        for cls in (ModelConfig, LoadModel):  # dimension, latency and async_start_chunks checks
            try:
                self._copy_into(cls)
            except ValueError as exc:  # its message names fields: name their keys instead
                keys = {f.name: _KEY_OF[_RENAMED.get(f.name, f.name)] for f in fields(cls)}
                raise ValueError(re.sub(r"\w+", lambda word: keys.get(word[0], word[0]), str(exc))) from exc

    def effective_k(self, n_chunks: int) -> int:
        """Buffer capacity for a document with n_chunks chunks.

        An explicit max_chunks wins; otherwise the fraction (default 0.7)
        maps through round-half-up. Always clamped to [1, n_chunks].
        """
        if n_chunks < 1:
            raise ValueError("n_chunks must be >= 1")
        if self.max_chunks is not None:
            return max(1, min(self.max_chunks, n_chunks))
        fraction = self.fraction if self.fraction is not None else 0.7
        return max(1, min(n_chunks, math.floor(fraction * n_chunks + 0.5)))

    def _copy_into(self, cls: type) -> Any:
        return cls(**{f.name: getattr(self, _RENAMED.get(f.name, f.name)) for f in fields(cls)})

    def model_config(self) -> ModelConfig:
        return self._copy_into(ModelConfig)

    def load_model(self) -> LoadModel:
        return self._copy_into(LoadModel)

    def as_flat_dict(self) -> dict[str, Any]:
        """Namespaced key view of this config (stable order), for reports."""
        return {key: getattr(self, attr) for key, (attr, _) in sorted(KEY_SPECS.items())}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _optional(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    return lambda raw: None if raw.strip().lower() in ("", "none") else parse(raw)


# a field's annotation -> the parser of its config values
_PARSERS: dict[str, Callable[[str], Any]] = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str | None": _optional(str.strip),
    "int | None": _optional(int),
    "float | None": _optional(float),
}

# config key -> (RunConfig attribute, parser), in field order
KEY_SPECS: dict[str, tuple[str, Callable[[str], Any]]] = {
    f.metadata["key"]: (f.name, _PARSERS[f.type]) for f in fields(RunConfig)
}
_KEY_OF = {attr: key for key, (attr, _) in KEY_SPECS.items()}
# config key -> the values it may take, for each key with a fixed set
CHOICES = {f.metadata["key"]: f.metadata["choices"] for f in fields(RunConfig) if f.metadata["choices"]}


def with_one_selection_rule(raw: dict[str, str]) -> dict[str, str]:
    """``raw`` plus a reset of the selection rule it does not set, so an
    explicit select.max_chunks replaces a fraction the config had set, and
    the other way round. Setting both is left for ``validate`` to refuse."""
    if raw.keys() & {"select.max_chunks", "select.fraction"}:
        return {"select.max_chunks": "none", "select.fraction": "none", **raw}
    return raw


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string mapping."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KEY_SPECS:
            raise ValueError(f"{source}: line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"{source}: line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        raw[key] = value.strip()
    return raw


def load_config_file(path: str | Path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def apply_overrides(config: RunConfig, raw: dict[str, str]) -> RunConfig:
    """Return a copy of ``config`` with raw key/value overrides applied."""
    updates: dict[str, Any] = {}
    for key, value in raw.items():
        if key not in KEY_SPECS:
            raise ValueError(f"unknown config key {key!r}")
        attr, parser = KEY_SPECS[key]
        try:
            updates[attr] = parser(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    return replace(config, **updates)
