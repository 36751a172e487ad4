"""Walk through the front half of the pipeline: tokenize a document, cut it
into fixed-size chunks, embed every chunk once, and pick the top-k chunks
for a query by cosine similarity.

Run:  python demos/01_chunking_and_selection.py
"""

import re

from apce.embed import EmbeddingStore, HashingEmbedder
from apce.select import score_chunks, select_top_k
from apce.textpipe import chunk, tokenize

DOCUMENT = """
The river valley floods every spring when the snowpack melts upstream.
Farmers in the valley plant late to avoid losing seed to the water.
The mountain pass stays closed until the road crews clear the rockfall.
Traders once crossed the pass with salt and wool before the railway came.
The railway follows the river for sixty miles and then turns north.
Freight on the railway is mostly grain, timber, and quarried stone.
The quarry closed in the nineties but the stone sheds still stand.
Hikers use the stone sheds as shelters when storms roll over the ridge.
"""

QUERY = "how does the railway route relate to the river"

ids = tokenize(DOCUMENT)
print(f"document tokens: {len(ids)}")
# ids do not lead back to text, but the tokenizer's own split gives the i-th piece for the i-th id
pieces = re.findall(r"\w+|[^\w\s]", DOCUMENT)

chunks = chunk(ids, chunk_size=12)
print(f"chunks of 12 tokens: {len(chunks)} (last has {chunks[-1].size})")

provider = HashingEmbedder(dim=384)
store = EmbeddingStore.from_chunks(chunks, provider)
query_vec = provider.embed_tokens(tokenize(QUERY))

scores = score_chunks(store, query_vec, range(len(chunks)))
selected = select_top_k(scores, k=3)

print("\nchunk scores against the query:")
for s in scores:
    marker = "  <-- selected" if s.chunk_index in selected else ""
    offset = chunks[s.chunk_index].doc_token_offset
    words = " ".join(pieces[offset:offset + 6])
    print(f"  chunk {s.chunk_index:2d}  score {s.score:+.3f}  [{words} ...]{marker}")

print(f"\nselected (document order): {selected}")
print("only these chunks would be prefilled into the KV cache;")
print(f"the other {len(chunks) - len(selected)} stay out until a reprioritization admits them")
