"""Show the buffer reconsidering an unselected chunk mid-generation.

The document has two chunks. Chunk A matches the instruction, so it owns the
single buffer slot at prefill. Chunk B is built (from a probe run) to match
the blend of the instruction with the tokens the model generates around step
100, so when the enhanced query drifts, B outscores A and gets admitted at a
reprioritization boundary. Persistent-eviction schemes cannot do this: once
out, always out.

Run:  python demos/02_reprioritization_recovery.py
"""

import dataclasses
import itertools
import zlib

from apce.config import RunConfig
from apce.sched import LoadModel, simulate_generation

VOCAB = 512
INSTRUCTION = "locate the hidden chamber notes"

CONFIG = RunConfig(
    chunk_size=50,
    vocab_size=VOCAB,
    n_layers=2, n_heads=2, d_model=32, d_head=16, d_kv_total=32,
    embedding_dim=64,
    max_new_tokens=120,
    max_chunks=1,          # one buffer slot: admission forces an eviction
    interval=50,
    recent_tokens=50,
    seed=21,
)
SYNC = LoadModel(async_start_chunks=10**6)


def pieces_for_ids(wanted):
    """Invert the tokenizer hash: find one surface piece per wanted id."""
    lookup, needed, i = {}, set(wanted), 0
    while needed:
        piece = f"v{i}"
        tid = zlib.crc32(piece.encode()) % VOCAB
        if tid in needed:
            lookup[tid] = piece
            needed.discard(tid)
        i += 1
    return [lookup[t] for t in wanted]


tail_pieces = INSTRUCTION.split()
chunk_a = " ".join(tail_pieces * 10)                      # 50 tokens, embeds like the instruction
placeholder = " ".join(f"junk{i}" for i in range(50))     # irrelevant filler

print("probe run: chunk A selected alone, observe what gets generated...")
probe = simulate_generation(chunk_a + " " + placeholder, INSTRUCTION, "apce", SYNC, CONFIG)
early = set(probe.tokens[:50])
fresh = [t for t in probe.tokens[50:100] if t not in early]
gen_ids = list(itertools.islice(itertools.cycle(fresh), 40))

chunk_b = " ".join(pieces_for_ids(gen_ids) + tail_pieces * 2)  # 50 tokens
doc = chunk_a + " " + chunk_b

print("real run: chunk B now embeds like (instruction + generated tokens 51..100)\n")
trace = simulate_generation(doc, INSTRUCTION, "apce", SYNC, CONFIG)
print(f"initial selection: {trace.initial_selection} (chunk A)")
for event in trace.replacement_stats.events:
    plan = event.plan
    print(f"  step {event.step:3d}: evict {list(plan.evict)} admit {list(plan.admit)} "
          f"recompute {list(plan.recompute)}")
print(f"replacements taken/available: {trace.replacement_stats.taken}"
      f"/{trace.replacement_stats.available}")

off = simulate_generation(doc, INSTRUCTION, "apce", SYNC,
                          dataclasses.replace(CONFIG, reprioritization_enabled=False))
print(f"\nwith reprioritization disabled: {len(off.replacement_stats.events)} replacement events")
print("chunk B stays out forever, however relevant it becomes")
