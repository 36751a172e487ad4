"""The analytical memory model: per-layer KV-cache, prefill-attention, and
decode-attention footprints for dense decoding vs 70% chunk selection.

The builtin rows model one self-attention layer with query width 3072 and
aggregate K/V width 1024 in FP16. Two of the shipped dense-prefill reference
figures are internally inconsistent with the formula and get an asterisk.

Run:  python demos/04_memory_table.py
"""

from apce.memmodel import (
    COLUMNS,
    MemConfig,
    make_row,
    memory_report,
    report_text,
)

print(report_text(memory_report(), flag_inconsistent=True))

print("\nscaling a custom configuration (100k context, 70% of 800-token chunks):")
cfg = MemConfig(seq_len=100_000, n_chunks_selected=87, chunk_size=800)
dense = make_row("100k", "dense", cfg)
selected = make_row("100k", "selected", cfg)
for row in (dense, selected):
    kv, prefill, decode = (row.mb(c) for c in COLUMNS)
    print(f"  {row.method:>8}: kv {kv:10.2f} MB   prefill {prefill:10.2f} MB   decode {decode:10.2f} MB")
ratio = selected.l_effective / dense.l_effective
print(f"  kv and decode shrink like km/L ({ratio:.3f}); prefill like (km/L)^2 ({ratio**2:.3f})")
