"""Run configuration: defaults, config-file parsing, CLI override keys, and
the simulated latencies a session runs under (``LoadModel``).

The config format is a flat key-value file (``key = value`` per line, ``#``
comments). Keys are namespaced per subsystem; the full set lives in
``KEY_SPECS``. Command-line flags override file values, which override
defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .model import ModelConfig


@dataclass(frozen=True)
class LoadModel:
    """Simulated latencies. Zero means instantaneous."""

    per_chunk_load_latency: float = 0.0
    async_start_chunks: int = 4
    decode_latency: float = 0.0
    compute_seconds_per_element: float = 0.0

    def __post_init__(self) -> None:
        for latency in (self.per_chunk_load_latency, self.decode_latency, self.compute_seconds_per_element):
            if not 0.0 <= latency < math.inf:
                raise ValueError("latencies must be finite and >= 0")
        if self.async_start_chunks < 1:
            raise ValueError("async_start_chunks must be >= 1")


@dataclass
class RunConfig:
    """Every setting of a run. The model and load fields take their defaults
    from ``ModelConfig`` and ``LoadModel``."""

    mode: str = "apce"
    seed: int = 0
    chunk_size: int = 800
    max_chunks: int | None = None
    fraction: float | None = None
    reprioritization_enabled: bool = True
    interval: int = 50
    recompute: bool = True
    tail_chars: int = 100
    recent_tokens: int = 50
    alpha: float = 0.5
    embedding_dim: int = 384
    embedding_provider: str = "hash"
    embedding_file: str | None = None
    vocab_size: int = ModelConfig.vocab_size
    max_new_tokens: int = 64
    per_chunk_load_latency: float = LoadModel.per_chunk_load_latency
    async_start_chunks: int = LoadModel.async_start_chunks
    decode_latency: float = LoadModel.decode_latency
    compute_seconds_per_element: float = LoadModel.compute_seconds_per_element
    n_layers: int = ModelConfig.n_layers
    n_heads: int = ModelConfig.n_heads
    d_model: int = ModelConfig.d_model
    d_head: int = ModelConfig.d_head
    d_kv_total: int = ModelConfig.d_kv_total
    rope_theta: float = ModelConfig.rope_theta
    max_position: int = ModelConfig.max_position

    def validate(self) -> None:
        if self.mode not in ("dense", "apce"):
            raise ValueError(f"mode must be 'dense' or 'apce', got {self.mode!r}")
        if self.max_chunks is not None and self.fraction is not None:
            raise ValueError("set at most one of max_chunks and fraction")
        if self.max_chunks is not None and self.max_chunks < 1:
            raise ValueError("max_chunks must be >= 1")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        # tokens[-0:] is every token, so a window below 1 would silently mean "all"
        if self.tail_chars < 1 or self.recent_tokens < 1:
            raise ValueError("query.tail_chars and query.recent_tokens must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.embedding_provider not in ("hash", "file"):
            raise ValueError("embedding.provider must be 'hash' or 'file'")
        if self.embedding_provider == "file" and not self.embedding_file:
            raise ValueError("embedding.provider 'file' needs embedding.file")
        self.model_config()  # dimension checks
        self.load_model()  # latency and async_start_chunks checks

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

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_model=self.d_model,
            d_head=self.d_head,
            d_kv_total=self.d_kv_total,
            vocab_size=self.vocab_size,
            rope_theta=self.rope_theta,
            init_seed=self.seed,
            max_position=self.max_position,
        )

    def load_model(self) -> LoadModel:
        return LoadModel(
            per_chunk_load_latency=self.per_chunk_load_latency,
            async_start_chunks=self.async_start_chunks,
            decode_latency=self.decode_latency,
            compute_seconds_per_element=self.compute_seconds_per_element,
        )

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


def _parse_opt_int(raw: str) -> int | None:
    return None if raw.strip().lower() in ("", "none") else int(raw)


def _parse_opt_float(raw: str) -> float | None:
    return None if raw.strip().lower() in ("", "none") else float(raw)


def _parse_opt_str(raw: str) -> str | None:
    return None if raw.strip().lower() in ("", "none") else raw.strip()


# config-file key -> (RunConfig attribute, parser)
KEY_SPECS: dict[str, tuple[str, Any]] = {
    "mode": ("mode", str),
    "seed": ("seed", int),
    "chunk.size": ("chunk_size", int),
    "select.max_chunks": ("max_chunks", _parse_opt_int),
    "select.fraction": ("fraction", _parse_opt_float),
    "reprioritization.enabled": ("reprioritization_enabled", _parse_bool),
    "reprioritization.interval": ("interval", int),
    "reprioritization.recompute": ("recompute", _parse_bool),
    "query.tail_chars": ("tail_chars", int),
    "query.recent_tokens": ("recent_tokens", int),
    "query.alpha": ("alpha", float),
    "embedding.dim": ("embedding_dim", int),
    "embedding.provider": ("embedding_provider", str),
    "embedding.file": ("embedding_file", _parse_opt_str),
    "tokenizer.vocab_size": ("vocab_size", int),
    "generation.max_new_tokens": ("max_new_tokens", int),
    "load.per_chunk_latency": ("per_chunk_load_latency", float),
    "load.async_start_chunks": ("async_start_chunks", int),
    "load.decode_latency": ("decode_latency", float),
    "load.compute_seconds_per_element": ("compute_seconds_per_element", float),
    "model.n_layers": ("n_layers", int),
    "model.n_heads": ("n_heads", int),
    "model.d_model": ("d_model", int),
    "model.d_head": ("d_head", int),
    "model.d_kv_total": ("d_kv_total", int),
    "model.rope_theta": ("rope_theta", float),
    "model.max_position": ("max_position", int),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string mapping."""
    raw: dict[str, str] = {}
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
