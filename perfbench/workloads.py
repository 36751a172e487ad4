"""Seeded inputs for the benchmark workloads: one function per workload.

Each function takes the run's seed and returns plain data: document and
query text with the ``RunConfig`` overrides and ``LoadModel`` arguments for
``simulate_generation``, or the JSONL corpus, config file and command-line
flags for ``apce sweep``. Nothing here imports the package, which only ever
sees the generated text. The same seed gives the same inputs, byte for byte.

Documents are made of topic regions. A region draws about half its words
from its topic's own lexicon and the rest from a shared one, so chunk
embeddings cluster by topic, and the query names words of one or two
topics. Load latencies carry a 1% seeded jitter, so the virtual clock
differs a little from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_N_TOPICS = 8
_TOPIC_WORDS = 48
_COMMON_WORDS = 96
_TOPIC_SHARE = 0.5
_SENTENCE_WORDS = (6, 16)

# Documents per run. A run cycles through its documents in order, so its
# median session covers several documents, not one.
DOCS_PER_RUN = 4


@dataclass(frozen=True)
class Session:
    """Inputs of one ``simulate_generation`` call."""

    doc: str
    query: str
    mode: str
    config: dict  # RunConfig field overrides
    load: dict  # LoadModel arguments


@dataclass(frozen=True)
class Corpus:
    """Inputs of one ``apce sweep`` plus one ``apce run`` over a JSONL corpus."""

    lines: list[str]
    config_text: str
    sweep_args: list[str]
    run_args: list[str]
    chunk_size: int
    max_new_tokens: int


def _rng(workload: str, seed: int, item: int) -> random.Random:
    # str seeds go through SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{item}")


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + rng.uniform(-0.01, 0.01))


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(3, 9)))


def _lexicons(rng: random.Random) -> tuple[list[str], list[list[str]]]:
    common = [_word(rng) for _ in range(_COMMON_WORDS)]
    topics = [[_word(rng) for _ in range(_TOPIC_WORDS)] for _ in range(_N_TOPICS)]
    return common, topics


def _text(rng: random.Random, n_tokens: int, region_tokens: int, common: list[str],
          topics: list[list[str]], focus: int | None = None, rise: float = 0.0) -> str:
    """Exactly ``n_tokens`` tokenizer pieces: lowercase words plus '.'.

    With ``focus`` set, a word at relative position x is drawn from that
    topic with probability ``rise * x``, and regions take the other topics,
    so a chunk matches the focus topic better the later it sits.
    """
    region_topics = [t for t in range(len(topics)) if t != focus]
    words: list[str] = []
    topic = rng.choice(region_topics)
    region_left = region_tokens
    sentence_left = rng.randint(*_SENTENCE_WORDS)
    pieces = 0
    while pieces < n_tokens:
        if region_left <= 0:
            topic = rng.choice(region_topics)
            region_left = rng.randint(region_tokens // 2, region_tokens * 3 // 2)
        if sentence_left == 0 and words and pieces < n_tokens - 1:
            words[-1] += "."
            pieces += 1
            sentence_left = rng.randint(*_SENTENCE_WORDS)
            continue
        if focus is not None and rng.random() < rise * pieces / n_tokens:
            source = topics[focus]
        elif rng.random() < _TOPIC_SHARE:
            source = topics[topic]
        else:
            source = common
        words.append(rng.choice(source))
        pieces += 1
        sentence_left -= 1
        region_left -= 1
    return " ".join(words)


def _query(rng: random.Random, topics: list[list[str]], focus: int | None = None) -> str:
    if focus is None:
        a, b = rng.sample(range(len(topics)), 2)
        words = rng.sample(topics[a], 6) + rng.sample(topics[b], 4)
    else:
        words = rng.sample(topics[focus], 10)
    return "Summarize what the document says about " + " ".join(words)


def prefill_dense(seed: int) -> list[Session]:
    """Dense mode, about 3k tokens, 8 new tokens: the prefill dominates."""
    sessions = []
    for i in range(DOCS_PER_RUN):
        rng = _rng("prefill-dense", seed, i)
        common, topics = _lexicons(rng)
        n_tokens = 3000 + rng.randint(-24, 24)  # always 6 chunks of up to 512
        sessions.append(Session(
            doc=_text(rng, n_tokens, 700, common, topics),
            query=_query(rng, topics),
            mode="dense",
            config={"chunk_size": 512, "max_new_tokens": 8},
            load={"per_chunk_load_latency": _jitter(rng, 0.01), "decode_latency": 0.02,
                  "compute_seconds_per_element": 1e-9},
        ))
    return sessions


def apce_reprior(seed: int) -> list[Session]:
    """The full pipeline: 13 chunks, k = 9, asynchronous arrival, interval 8,
    recompute on, 64 new tokens.

    Chunks arrive about one per boundary, and the query's topic grows
    denser towards the end of the document. The first five boundaries admit
    arrivals into the free slots; each later one admits the newest chunk
    and evicts an early one, which makes every retained chunk after it
    stale, so K/V rebuilds dominate the session.
    """
    sessions = []
    for i in range(DOCS_PER_RUN):
        rng = _rng("apce-reprior", seed, i)
        common, topics = _lexicons(rng)
        focus = rng.randrange(len(topics))
        n_tokens = 2500 + rng.randint(-40, 40)  # always 13 chunks of up to 200
        sessions.append(Session(
            doc=_text(rng, n_tokens, 500, common, topics, focus=focus, rise=0.8),
            query=_query(rng, topics, focus=focus),
            mode="apce",
            config={"chunk_size": 200, "max_chunks": 9, "interval": 8, "recompute": True,
                    "max_new_tokens": 64},
            load={"per_chunk_load_latency": _jitter(rng, 0.136), "async_start_chunks": 4,
                  "decode_latency": 0.02, "compute_seconds_per_element": 1e-9},
        ))
    return sessions


def decode_long(seed: int) -> list[Session]:
    """k = n, reprioritization off, synchronous load (start after all 8
    chunks), about 2k resident tokens, 300 new tokens: decode steps dominate
    and the generated-token block grows to 300."""
    sessions = []
    for i in range(DOCS_PER_RUN):
        rng = _rng("decode-long", seed, i)
        common, topics = _lexicons(rng)
        n_tokens = 2000 + rng.randint(-24, 24)  # always 8 chunks of up to 256
        sessions.append(Session(
            doc=_text(rng, n_tokens, 600, common, topics),
            query=_query(rng, topics),
            mode="apce",
            config={"chunk_size": 256, "max_chunks": 8, "reprioritization_enabled": False,
                    "max_new_tokens": 300},
            load={"per_chunk_load_latency": _jitter(rng, 0.001), "async_start_chunks": 8,
                  "decode_latency": 0.02, "compute_seconds_per_element": 1e-9},
        ))
    return sessions


def corpus_sweep(seed: int) -> list[Corpus]:
    """Corpora of three records of about 640 tokens with references, each
    swept over two reprioritization intervals, plus one single-record run
    that writes a report: per-session fixed costs and the text-side layers
    dominate."""
    corpora = []
    for i in range(DOCS_PER_RUN):
        rng = _rng("corpus-sweep", seed, i)
        common, topics = _lexicons(rng)
        lines = []
        for r in range(3):
            n_tokens = 640 + rng.randint(-30, 30)  # always 7 chunks of up to 100
            lines.append(json.dumps({
                "id": f"rec{r:02d}",
                "text": _text(rng, n_tokens, 150, common, topics),
                "query": _query(rng, topics),
                "reference": _text(rng, 40, 40, common, topics),
            }, sort_keys=True))
        chunk_size, max_new_tokens = 100, 16
        flags = ["--chunk-size", str(chunk_size), "--max-new-tokens", str(max_new_tokens),
                 "--load-latency", repr(_jitter(rng, 0.01)), "--decode-latency", "0.02"]
        corpora.append(Corpus(
            lines=lines,
            config_text="load.compute_seconds_per_element = 1e-8\n",
            sweep_args=["--axis", "reprioritization_interval", "--values", "4,8", *flags],
            run_args=["--record-id", "rec00", "--interval", "4", *flags],
            chunk_size=chunk_size,
            max_new_tokens=max_new_tokens,
        ))
    return corpora


WORKLOADS = {
    "prefill-dense": prefill_dense,
    "apce-reprior": apce_reprior,
    "decode-long": decode_long,
    "corpus-sweep": corpus_sweep,
}
