import sys
from pathlib import Path

import pytest

# oracle helpers live next to the tests, not in the package
sys.path.insert(0, str(Path(__file__).resolve().parent))

from apce.model import ModelConfig


@pytest.fixture(scope="session")
def toy_model_config():
    """Small dims so model-level oracle comparisons stay fast."""
    return ModelConfig(
        n_layers=2,
        n_heads=2,
        d_model=32,
        d_head=16,
        d_kv_total=32,
        vocab_size=512,
        init_seed=1234,
    )

