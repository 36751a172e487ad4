import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apce.memmodel import (
    MemConfig,
    decode_attn_bytes,
    flagged_cells,
    kv_cache_bytes,
    memory_report,
    prefill_attn_bytes,
    report_csv,
    report_json,
    report_text,
    savings,
    to_mib,
)

CFG = MemConfig(seq_len=29924, n_chunks_selected=24, chunk_size=800)


# Expected MB cells for the builtin groups (formula-consistent ones).
EXPECTED_CELLS = {
    ("8k", "dense"): (32.40, 260.80, 32.43),
    ("8k", "selected"): (21.88, 147.31, 21.90),
    ("20k", "dense"): (78.56, None, 78.61),  # prefill cell known inconsistent
    ("20k", "selected"): (56.25, 620.51, 56.29),
    ("30k", "dense"): (116.89, None, 116.96),  # prefill cell known inconsistent
    ("30k", "selected"): (75.00, 1003.12, 75.05),
}


def test_kv_cache_bytes_examples():
    assert kv_cache_bytes(5600, CFG) == 22_937_600
    assert to_mib(kv_cache_bytes(5600, CFG)) == 21.88
    assert to_mib(kv_cache_bytes(14400, CFG)) == 56.25
    assert kv_cache_bytes(0, CFG) == 0


def test_prefill_attn_bytes_examples():
    assert prefill_attn_bytes(5600, CFG) == 154_470_400
    assert to_mib(prefill_attn_bytes(5600, CFG)) == 147.31
    assert to_mib(prefill_attn_bytes(19200, CFG)) == 1003.12
    assert to_mib(prefill_attn_bytes(8294, CFG)) == 260.80


def test_decode_attn_bytes_examples():
    assert to_mib(decode_attn_bytes(8294, CFG)) == 32.43
    assert to_mib(decode_attn_bytes(5600, CFG)) == 21.90
    assert to_mib(decode_attn_bytes(19200, CFG)) == 75.05


def test_dense_lengths_recovered_by_inversion():
    # 32.40 MB and 78.56 MB KV cells imply the dense lengths used everywhere
    bytes_per_token = 2 * CFG.d_kv * CFG.bytes_per_element
    assert round(32.40 * 2**20 / bytes_per_token) == 8294
    assert round(78.56 * 2**20 / bytes_per_token) == 20111
    assert round(116.89 * 2**20 / bytes_per_token) == 29924


def pairs(rows):
    """(dense, selected) per group, checking the table's dense-then-selected shape."""
    out = list(zip(rows[::2], rows[1::2]))
    assert len(rows) == 2 * len(out)
    for dense, sel in out:
        assert (dense.method, sel.method, sel.label) == ("dense", "selected", dense.label)
    return out


def test_builtin_report_cells():
    rows = memory_report()
    assert [(row.label, row.method) for row in rows] == list(EXPECTED_CELLS)
    for row in rows:
        kv, prefill, decode = EXPECTED_CELLS[(row.label, row.method)]
        assert row.mb("kv_cache_mb") == kv
        assert row.mb("decode_attn_mb") == decode
        if prefill is not None:
            assert row.mb("prefill_attn_mb") == prefill


def test_flagged_cells_are_exactly_the_two_dense_prefills():
    cells = [(row.label, row.method, col) for row, col in flagged_cells(memory_report())]
    assert cells == [
        ("20k", "dense", "prefill_attn_mb"),
        ("30k", "dense", "prefill_attn_mb"),
    ]


def test_savings_examples():
    by_label = {dense.label: (dense, sel) for dense, sel in pairs(memory_report())}
    assert savings(*by_label["30k"])["kv_cache_mb"] == pytest.approx(0.358, abs=5e-4)
    assert savings(*by_label["8k"])["prefill_attn_mb"] == pytest.approx(0.435, abs=5e-4)


def test_selected_never_exceeds_dense():
    for dense, sel in pairs(memory_report()):
        assert sel.kv_cache_bytes <= dense.kv_cache_bytes
        assert sel.prefill_attn_bytes <= dense.prefill_attn_bytes
        assert sel.decode_attn_bytes <= dense.decode_attn_bytes


@given(l1=st.integers(1, 10**6), l2=st.integers(1, 10**6))
@settings(max_examples=50, deadline=None)
def test_monotonic_in_length(l1, l2):
    lo, hi = sorted((l1, l2))
    if lo == hi:
        return
    assert kv_cache_bytes(lo, CFG) < kv_cache_bytes(hi, CFG)
    assert prefill_attn_bytes(lo, CFG) < prefill_attn_bytes(hi, CFG)
    assert decode_attn_bytes(lo, CFG) < decode_attn_bytes(hi, CFG)


def test_ratio_laws():
    km = CFG.selected_len
    L = CFG.seq_len
    # KV ratio is exactly km/L
    assert kv_cache_bytes(km, CFG) * L == kv_cache_bytes(L, CFG) * km
    # decode and prefill ratios approach km/L and (km/L)^2 as L grows
    big = MemConfig(seq_len=10**7, n_chunks_selected=1, chunk_size=7 * 10**6)
    r_decode = decode_attn_bytes(big.selected_len, big) / decode_attn_bytes(big.seq_len, big)
    r_prefill = prefill_attn_bytes(big.selected_len, big) / prefill_attn_bytes(big.seq_len, big)
    assert r_decode == pytest.approx(0.7, abs=1e-3)
    assert r_prefill == pytest.approx(0.49, abs=1e-3)


def test_custom_rows_have_no_reference():
    rows = memory_report(configs={"tiny": MemConfig(seq_len=1000, n_chunks_selected=1, chunk_size=500)})
    assert [(row.label, row.method) for row in rows] == [("tiny", "dense"), ("tiny", "selected")]
    assert all(row.reference_mb is None for row in rows)
    assert flagged_cells(rows) == []


def test_mem_config_validation():
    with pytest.raises(ValueError):
        MemConfig(seq_len=100, n_chunks_selected=2, chunk_size=100)  # k*m > L
    with pytest.raises(ValueError):
        MemConfig(seq_len=0, n_chunks_selected=1, chunk_size=1)


def test_renderings_cover_all_rows():
    rows = memory_report()
    text = report_text(rows, flag_inconsistent=True)
    assert "1085.67*" in text and "2175.49*" in text
    csv_text = report_csv(rows)
    assert len(csv_text.strip().splitlines()) == 7  # header + 6 rows
    payload = report_json(rows, 1)
    assert len(payload["rows"]) == 6
    assert payload["layer_count"] == 1
    assert payload["flagged_cells"] == [["20k", "dense", "prefill_attn_mb"],
                                        ["30k", "dense", "prefill_attn_mb"]]


def test_layer_scaling():
    single = memory_report()
    stacked = memory_report(layer_count=28)
    assert len(stacked) == len(single)
    for one, many in zip(single, stacked):
        assert many.kv_cache_bytes == 28 * one.kv_cache_bytes
        assert many.prefill_attn_bytes == 28 * one.prefill_attn_bytes
        assert many.decode_attn_bytes == 28 * one.decode_attn_bytes
    with pytest.raises(ValueError):
        memory_report(layer_count=0)

