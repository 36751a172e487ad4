"""Metrics and measured attention cost.

ROUGE-L over token ids, as `apce run` scores it, on a worked example, then
a small end-to-end run showing the attention score-element counters: dense
prefill pays N^2, selection pays (km)^2, and each decode step pays one row
over the resident tokens.

Run:  python demos/05_metrics_and_counters.py
"""

from apce.config import RunConfig
from apce.metrics import mean_std, rouge_l_f1
from apce.sched import LoadModel, simulate_generation
from apce.textpipe import tokenize

candidate = tokenize("the railway follows the river for sixty miles")
reference = tokenize("the railway follows the river and then turns north")
score = rouge_l_f1(candidate, reference)
print(f"ROUGE-L  precision {score.precision:.4f}  recall {score.recall:.4f}  f1 {score.f1:.4f}")
mean, std = mean_std([score.f1, 0.61, 0.55])
print(f"aggregate formatting: {mean:.4f}±{std:.4f}\n")

n_tokens, selected = 29924, 24 * 800
print("closed-form prefill attention cost at a 30k-token context, 24 chunks of 800:")
print(f"  dense {n_tokens ** 2:,} vs selected {selected ** 2:,}"
      f"  (ratio {selected ** 2 / n_tokens ** 2:.4f})\n")

DOC = " ".join(f"sect{i % 13} item{i % 7}" for i in range(80))  # 160 tokens, 16 chunks
CONFIG = RunConfig(chunk_size=10, vocab_size=512, n_layers=2, n_heads=2, d_model=32,
                   d_head=16, d_kv_total=32, embedding_dim=64, fraction=0.5,
                   max_new_tokens=10, seed=3)
SYNC = LoadModel(async_start_chunks=10**6)

dense = simulate_generation(DOC, "summarize", "dense", SYNC, CONFIG)
apce = simulate_generation(DOC, "summarize", "apce", SYNC, CONFIG)
print("measured score-element counters from a toy run (160 tokens, k = 8 of 16 chunks):")
print(f"  dense prefill: {dense.counters['prefill_elements']:>7,}  (= 160^2)")
print(f"  apce  prefill: {apce.counters['prefill_elements']:>7,}  (= 80^2)")
print(f"  dense decode total: {dense.counters['decode_elements']:,}")
print(f"  apce  decode total: {apce.counters['decode_elements']:,}")
print(f"  measured ratio {apce.counters['prefill_elements'] / dense.counters['prefill_elements']:.4f}"
      f" == analytical {(8 * 10) ** 2 / 160 ** 2:.4f}")
