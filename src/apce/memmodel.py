"""Analytical memory model for dense vs chunk-selected attention.

Per-layer byte counts for three quantities, all in FP16 elements unless
configured otherwise:

- KV cache:        elements = L * 2 * d_kv
- prefill attention: elements = 2*L*d_kv + 2*L*d_q + L^2
- decode attention:  elements = 2*L*d_kv + L + 2*d_q
  (the lone L term is the attention vector for the single live query)

Dense rows use the full sequence length; selected rows use L = k*m. MB here
always means 2^20 bytes; that is the convention under which the shipped
reference figures reproduce exactly.

``memory_report`` returns the table as a list of rows: a dense row, then a
selected row, for each group in config order. The builtin presets model one
self-attention layer with d_q=3072 and d_kv=1024 at three context-length
groups. Reference figures for those presets are included for
cross-checking; two of the dense prefill figures are internally
inconsistent with the formula above (the formula gives 1085.67 and 2175.49
MB where 1060.0 and 2120.0 are reported) and get flagged rather than
matched.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

MIB = float(2**20)
FP16_BYTES = 2

LLAMA_3B_D_Q = 3072
LLAMA_3B_D_KV = 1024


@dataclass(frozen=True)
class MemConfig:
    """Inputs for one table row."""

    seq_len: int
    n_chunks_selected: int
    chunk_size: int
    d_q: int = LLAMA_3B_D_Q
    d_kv: int = LLAMA_3B_D_KV
    bytes_per_element: int = FP16_BYTES

    def __post_init__(self) -> None:
        for name in ("seq_len", "n_chunks_selected", "chunk_size", "d_q", "d_kv", "bytes_per_element"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.selected_len > self.seq_len:
            raise ValueError("k*m must not exceed seq_len")

    @property
    def selected_len(self) -> int:
        return self.n_chunks_selected * self.chunk_size


def kv_cache_bytes(l_effective: int, cfg: MemConfig) -> int:
    """KV cache bytes for an effective context of l_effective tokens."""
    if l_effective < 0:
        raise ValueError("l_effective must be >= 0")
    return l_effective * 2 * cfg.d_kv * cfg.bytes_per_element


def prefill_attn_bytes(l_effective: int, cfg: MemConfig) -> int:
    """Prefill attention bytes: Q/K/V vectors, the L^2 score matrix, outputs."""
    if l_effective < 1:
        raise ValueError("l_effective must be >= 1")
    elements = 2 * l_effective * cfg.d_kv + 2 * l_effective * cfg.d_q + l_effective**2
    return elements * cfg.bytes_per_element


def decode_attn_bytes(l_effective: int, cfg: MemConfig) -> int:
    """Decode attention bytes: cached K/V, the attention vector, one query/output."""
    if l_effective < 1:
        raise ValueError("l_effective must be >= 1")
    elements = 2 * l_effective * cfg.d_kv + l_effective + 2 * cfg.d_q
    return elements * cfg.bytes_per_element


def to_mib(n_bytes: int) -> float:
    """Bytes to MB (2^20 convention), rounded to two decimals."""
    return round(n_bytes / MIB, 2)


COLUMNS = ("kv_cache_mb", "prefill_attn_mb", "decode_attn_mb")

# label -> (dense sequence length, selected chunks k) for the builtin groups.
# The dense lengths are recovered by inverting the KV formula from the
# reported dense KV figures (32.40 / 78.56 / 116.89 MB).
PRESETS = {"8k": (8294, 7), "20k": (20111, 18), "30k": (29924, 24)}
PRESET_CHUNK_SIZE = 800

# Reported per-layer figures used for cross-checking, in MB (2^20 bytes).
REFERENCE_MB = {
    ("8k", "dense"): {"kv_cache_mb": 32.40, "prefill_attn_mb": 260.80, "decode_attn_mb": 32.43},
    ("8k", "selected"): {"kv_cache_mb": 21.88, "prefill_attn_mb": 147.31, "decode_attn_mb": 21.90},
    ("20k", "dense"): {"kv_cache_mb": 78.56, "prefill_attn_mb": 1060.0, "decode_attn_mb": 78.61},
    ("20k", "selected"): {"kv_cache_mb": 56.25, "prefill_attn_mb": 620.51, "decode_attn_mb": 56.29},
    ("30k", "dense"): {"kv_cache_mb": 116.89, "prefill_attn_mb": 2120.0, "decode_attn_mb": 116.96},
    ("30k", "selected"): {"kv_cache_mb": 75.00, "prefill_attn_mb": 1003.12, "decode_attn_mb": 75.05},
}


@dataclass(frozen=True)
class MemoryRow:
    label: str
    method: str  # "dense" or "selected"
    l_effective: int
    kv_cache_bytes: int
    prefill_attn_bytes: int
    decode_attn_bytes: int
    reference_mb: dict[str, float] | None = None

    def mb(self, column: str) -> float:
        """The MB cell of ``column``, e.g. ``kv_cache_mb`` from ``kv_cache_bytes``."""
        return to_mib(getattr(self, column.removesuffix("_mb") + "_bytes"))

    def mismatched_columns(self) -> list[str]:
        """Columns where the formula disagrees with the reference figure."""
        if self.reference_mb is None:
            return []
        return [c for c in COLUMNS if abs(self.mb(c) - self.reference_mb[c]) > 0.005]


def make_row(label: str, method: str, cfg: MemConfig, reference_mb: dict[str, float] | None = None,
             layer_count: int = 1) -> MemoryRow:
    l_eff = cfg.seq_len if method == "dense" else cfg.selected_len
    return MemoryRow(
        label=label,
        method=method,
        l_effective=l_eff,
        kv_cache_bytes=kv_cache_bytes(l_eff, cfg) * layer_count,
        prefill_attn_bytes=prefill_attn_bytes(l_eff, cfg) * layer_count,
        decode_attn_bytes=decode_attn_bytes(l_eff, cfg) * layer_count,
        reference_mb=reference_mb,
    )


def memory_report(configs: dict[str, MemConfig] | None = None, layer_count: int = 1) -> list[MemoryRow]:
    """The memory table: a dense row, then a selected row, for each group.

    Without ``configs`` the builtin presets are used and every formula cell
    is paired with its reported reference figure; disagreeing cells show up
    in ``flagged_cells``. Custom configs carry no reference column.
    """
    if layer_count < 1:
        raise ValueError("layer_count must be >= 1")
    custom = configs is not None
    if configs is None:
        configs = {label: MemConfig(seq_len=seq_len, n_chunks_selected=k, chunk_size=PRESET_CHUNK_SIZE)
                   for label, (seq_len, k) in PRESETS.items()}
    return [make_row(label, method, cfg, None if custom else REFERENCE_MB[(label, method)], layer_count)
            for label, cfg in configs.items() for method in ("dense", "selected")]


def savings(dense: MemoryRow, selected: MemoryRow) -> dict[str, float]:
    """Per-column savings of the selected row vs the dense row, as a
    fraction: from the rounded MB cells, or from the byte counts where the
    dense cell rounds to 0.00."""
    out = {}
    for c in COLUMNS:
        part, whole = selected.mb(c), dense.mb(c)
        if not whole:
            part, whole = (getattr(row, c.removesuffix("_mb") + "_bytes") for row in (selected, dense))
        out[c] = round(1.0 - part / whole, 3)
    return out


def flagged_cells(rows: list[MemoryRow]) -> list[tuple[MemoryRow, str]]:
    """(row, column) of every cell that disagrees with its reference figure."""
    return [(row, col) for row in rows for col in row.mismatched_columns()]


def report_text(rows: list[MemoryRow], flag_inconsistent: bool = False) -> str:
    """Aligned text rendering, one dense/selected pair per group plus savings."""
    header = f"{'group':<8}{'method':<10}{'KV-cache (MB)':>15}{'Prefill Attn (MB)':>19}{'Decode Attn (MB)':>18}"
    lines = [header, "-" * len(header)]
    for row in rows:
        mismatched = row.mismatched_columns() if flag_inconsistent else []
        kv, prefill, decode = (f"{row.mb(c):.2f}" + ("*" if c in mismatched else "") for c in COLUMNS)
        lines.append(f"{row.label:<8}{row.method:<10}{kv:>15}{prefill:>19}{decode:>18}")
    lines.append("")
    for dense, selected in zip(rows[::2], rows[1::2]):
        sav = savings(dense, selected)
        lines.append(
            f"{dense.label}: savings vs dense  kv {sav['kv_cache_mb']:.1%}  "
            f"prefill {sav['prefill_attn_mb']:.1%}  decode {sav['decode_attn_mb']:.1%}"
        )
    flagged = flagged_cells(rows) if flag_inconsistent else []
    if flagged:
        lines += ["", "* formula disagrees with the reported reference figure:"]
        lines += [f"  {row.label}/{row.method}/{col}: formula {row.mb(col):.2f} MB vs reported "
                  f"{row.reference_mb[col]:.2f} MB" for row, col in flagged]
    return "\n".join(lines)


def report_csv(rows: list[MemoryRow]) -> str:
    """CSV rendering; a label that holds a quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["group", "method", "l_effective", *COLUMNS])
    writer.writerows([row.label, row.method, row.l_effective, *(f"{row.mb(c):.2f}" for c in COLUMNS)]
                     for row in rows)
    return out.getvalue()


def report_json(rows: list[MemoryRow], layer_count: int) -> dict:
    return {
        "layer_count": layer_count,
        "mb_convention_bytes": int(MIB),
        "rows": [
            {
                "group": row.label,
                "method": row.method,
                "l_effective": row.l_effective,
                "kv_cache_bytes": row.kv_cache_bytes,
                "prefill_attn_bytes": row.prefill_attn_bytes,
                "decode_attn_bytes": row.decode_attn_bytes,
                **{c: row.mb(c) for c in COLUMNS},
                "reference_mb": row.reference_mb,
                "mismatched_columns": row.mismatched_columns(),
            }
            for row in rows
        ],
        "flagged_cells": [[row.label, row.method, col] for row, col in flagged_cells(rows)],
    }
