"""Time-to-first-token under constrained chunk loading.

Dense decoding has to wait for every chunk to load before prefill starts.
With asynchronous generation, decoding begins once a handful of chunks are
resident, and later arrivals join the candidate pool at reprioritization
boundaries. The simulated clock makes the trade visible without a GPU.

Run:  python demos/03_async_ttft.py
"""

from apce.config import RunConfig
from apce.metrics import mean_std
from apce.sched import LoadModel, simulate_generation

DOC = " ".join(f"sect{i % 13} item{i % 7}" for i in range(100))  # 200 tokens, 20 chunks
QUERY = "summarize the sect passages"

CONFIG = RunConfig(
    chunk_size=10,
    vocab_size=512,
    n_layers=2, n_heads=2, d_model=32, d_head=16, d_kv_total=32,
    embedding_dim=64,
    fraction=0.5,
    interval=10,
    max_new_tokens=20,
    seed=7,
)

print("one second per chunk load, 20 chunks, decode 0.05 s/token\n")
print(f"{'async start':>12} {'mode':>6} {'TTFT (s)':>10} {'total (s)':>10}")
for async_start in (2, 4, 8, 20):
    load = LoadModel(per_chunk_load_latency=1.0, async_start_chunks=async_start,
                     decode_latency=0.05)
    apce = simulate_generation(DOC, QUERY, "apce", load, CONFIG)
    dense = simulate_generation(DOC, QUERY, "dense", load, CONFIG)
    print(f"{async_start:>12} {'apce':>6} {apce.ttft:>10.2f} {apce.total_time:>10.2f}")
    if async_start == 2:
        print(f"{'-':>12} {'dense':>6} {dense.ttft:>10.2f} {dense.total_time:>10.2f}")

print("\nevent trace for async start 4 (first ten events):")
load = LoadModel(per_chunk_load_latency=1.0, async_start_chunks=4, decode_latency=0.05)
trace = simulate_generation(DOC, QUERY, "apce", load, CONFIG)
for event in trace.events[:10]:
    print(f"  t={event.time:6.2f}  {event.kind:16s} {event.data}")

ttft_mean, ttft_std = mean_std([simulate_generation(DOC, QUERY, "apce", load, CONFIG).ttft
                               for _ in range(3)])
print(f"\nttft over 3 identical runs: {ttft_mean:.4f}±{ttft_std:.4f} (deterministic, stddev 0)")
