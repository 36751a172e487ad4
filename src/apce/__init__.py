"""Query-aware input chunk selection for long-context decoding.

The pipeline: tokenize and chunk a document, embed every chunk once into a
low-dimensional space, keep only the top-k chunks most similar to the query
in a KV-cached buffer, and periodically reprioritize that buffer as
generation progresses, rebuilding K/V for chunks whose causal context
changed. A discrete-event scheduler simulates asynchronous loading, and an
analytical model accounts for the memory this saves.
"""

from .config import LoadModel, RunConfig, apply_overrides, load_config_file
from .embed import EmbeddingStore, HashingEmbedder, load_external_embeddings
from .memmodel import (
    MemConfig,
    decode_attn_bytes,
    kv_cache_bytes,
    memory_report,
    prefill_attn_bytes,
)
from .metrics import RougeLScore, rouge_l_f1
from .model import DecoderModel, KVCache, ModelConfig
from .reprior import ReplacementPlan, ReplacementStats, apply_plan, reprioritize, update_enhanced_query
from .sched import GenerationTrace, Session, simulate_generation
from .select import ChunkScore, cosine, select_top_k
from .textpipe import Chunk, Record, chunk, tokenize

__version__ = "0.1.0"
