"""Shared builders for toy graphs, small models and checkpoint edits."""

import json

import numpy as np
import pytest

from kgreason.data import Triplet, build_graph
from kgreason.model import ModelConfig, ModelParams


def make_config(**overrides) -> ModelConfig:
    base = dict(
        hidden_dim=6,
        attention_layers=1,
        query_layers=1,
        value_layers=1,
        precision="float64",
        noise_mode="disabled",
    )
    base.update(overrides)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def make_model(num_relations: int, seed: int = 0, **overrides):
    cfg = make_config(**overrides)
    params = ModelParams(cfg, num_relations, np.random.default_rng(seed))
    return cfg, params


def chain_graph(n: int, add_inverse: bool = True):
    """Path 0 -> 1 -> ... -> n-1 over a single base relation."""
    trips = [Triplet(i, 0, i + 1) for i in range(n - 1)]
    return build_graph(trips, n, 1, add_inverse=add_inverse)


def random_graph(rng, num_entities, num_base_relations, num_edges, add_inverse=True):
    trips = [
        Triplet(int(rng.integers(num_entities)), int(rng.integers(num_base_relations)),
                int(rng.integers(num_entities)))
        for _ in range(num_edges)
    ]
    return build_graph(trips, num_entities, num_base_relations, add_inverse=add_inverse)


def set_header_heads(path, heads: int) -> None:
    """Rewrite a checkpoint's JSON header with ``model_config.heads`` set."""
    blob = path.read_bytes()
    head_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + head_len])
    header["model_config"]["heads"] = heads
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:8] + len(head).to_bytes(8, "little") + head + blob[16 + head_len:])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
