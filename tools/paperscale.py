"""Run the source paper's input sizes through apce, one process per session.

Usage:

    python3 tools/paperscale.py [--json PATH]

The paper's table has three rows (``PAPER_ROWS``): documents of 8,294,
20,111 and 29,924 tokens, in chunks of m = 800 tokens, of which apce keeps
k = 7, 18 and 24. For each row this writes a seeded document of exactly
that many tokens, each a word drawn uniformly from a 4,000-word lexicon,
and a query of lexicon words. It runs one dense and one apce session of it
with the default model (``simulate_generation``, synchronous load, 16 new
tokens): dense attends to every chunk, apce to the k chunks it selects.

Every session runs in a fresh Python process that imports the package from
this checkout's ``src`` and pins numpy's OpenBLAS to one thread as ``apce``
does, unless the environment sets a thread count. The process draws the
model's weights first, so the wall time is the session's alone, and its
peak RSS covers the weights and the session. For each session it prints
the wall time, the peak RSS, the score-element counters and the first
generated tokens; ``--json PATH`` also writes them to PATH. A 15 s
benchmark run cannot hold one such session, so this is a tool, not a
workload. Standard library only, plus the package in the child processes.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAPER_ROWS = [(8294, 7), (20111, 18), (29924, 24)]  # (document tokens, k)
CHUNK_SIZE = 800
NEW_TOKENS = 16
LEXICON_WORDS = 4000
QUERY_WORDS = 40
FIRST_TOKENS = 8
MODES = ("dense", "apce")
SEED = 0  # the lexicon's, the documents' and the model's

SESSION = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from apce.cli import _pin_blas_threads
from apce.config import RunConfig
from apce.model import DecoderModel
from apce.sched import simulate_generation

_pin_blas_threads()
spec = json.loads(sys.stdin.read())
config = RunConfig(mode=spec["mode"], seed=spec["seed"], chunk_size=spec["chunk_size"],
                   max_chunks=spec["k"], max_new_tokens=spec["new_tokens"])
DecoderModel(config.model_config())  # the weights, drawn once per process
trace = simulate_generation(spec["doc"], spec["query"], spec["mode"], config.load_model(), config)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
print(json.dumps({"wall_s": trace.wall_seconds,
                  "peak_rss_mib": peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10),
                  "doc_tokens": trace.doc_tokens, "k_effective": trace.k_effective,
                  "counters": trace.counters, "generated": trace.tokens}))
"""


def lexicon() -> list[str]:
    """LEXICON_WORDS distinct lowercase words of 3-9 letters."""
    rng = random.Random(f"lexicon-{SEED}")
    words: set[str] = set()
    while len(words) < LEXICON_WORDS:
        words.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 9))))
    return sorted(words)


def inputs(tokens: int) -> tuple[str, str]:
    """A document of ``tokens`` words, one token each, and a query, both
    drawn uniformly from the lexicon."""
    words = lexicon()
    rng = random.Random(f"document-{SEED}-{tokens}")
    return " ".join(rng.choices(words, k=tokens)), " ".join(rng.choices(words, k=QUERY_WORDS))


def run_session(spec: dict, doc: str, query: str) -> dict:
    done = subprocess.run([sys.executable, "-c", SESSION, str(ROOT / "src")],
                          input=json.dumps({**spec, "doc": doc, "query": query}),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{spec['mode']} session of {spec['tokens']} tokens failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path, help="also write every session's results here")
    args = parser.parse_args(argv)

    results = []
    print(f"{'tokens':>7} {'mode':>5} {'k':>3} {'wall_s':>8} {'peak_rss_mib':>12} {'prefill_elements':>17} "
          f"{'rebuild_elements':>16} {'decode_elements':>15}  first tokens")
    for tokens, k in PAPER_ROWS:
        doc, query = inputs(tokens)
        for mode in MODES:
            spec = {"tokens": tokens, "k": k, "mode": mode, "chunk_size": CHUNK_SIZE,
                    "new_tokens": NEW_TOKENS, "seed": SEED}
            result = {**spec, **run_session(spec, doc, query)}
            results.append(result)
            counters = result["counters"]
            print(f"{tokens:>7} {mode:>5} {result['k_effective']:>3} {result['wall_s']:>8.3f} "
                  f"{result['peak_rss_mib']:>12.1f} {counters['prefill_elements']:>17} "
                  f"{counters['rebuild_elements']:>16} {counters['decode_elements']:>15}  "
                  f"{' '.join(map(str, result['generated'][:FIRST_TOKENS]))}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
