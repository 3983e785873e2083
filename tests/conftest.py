"""Shared builders for toy graphs, small models and checkpoint edits."""

import hashlib
import json

import numpy as np
import pytest

from kgreason.data import Query, Triplet, build_graph
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


def incoming(graph, entity: int) -> list[tuple[int, int]]:
    """(source, relation) pairs of facts relation(source, entity), sorted by (relation, source)."""
    lo, hi = np.searchsorted(graph.in_tgt, [entity, entity + 1])
    return list(zip(graph.in_src[lo:hi].tolist(), graph.in_rel[lo:hi].tolist()))


def build_filter_sets(*triplet_lists) -> dict:
    """Oracle: union of true tails per (head, relation) across the given splits, fact by fact."""
    filters: dict[tuple[int, int], set] = {}
    for triplets in triplet_lists:
        for h, r, t in np.asarray(triplets, dtype=np.int64).reshape(-1, 3).tolist():
            filters.setdefault((h, r), set()).add(t)
    return filters


def oracle_queries(triplets, num_base_relations: int, known_splits) -> list:
    """Oracle: both-direction queries of ``triplets``, each with its own copy of its filter."""
    augmented = []
    for split in known_splits:
        rows = np.asarray(split, dtype=np.int64).reshape(-1, 3)
        augmented += [rows, rows[:, ::-1] + (0, num_base_relations, 0)]
    filters = build_filter_sets(*augmented)
    queries = []
    for h, r, t in np.asarray(triplets, dtype=np.int64).reshape(-1, 3).tolist():
        queries.append(Query(h, r, t, frozenset(filters[(h, r)])))
        inv = r + num_base_relations
        queries.append(Query(t, inv, h, frozenset(filters[(t, inv)])))
    return queries


def rewrite_header(path, edit) -> None:
    """Rewrite a checkpoint's JSON header as ``edit(header)`` leaves it."""
    blob = path.read_bytes()
    head_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:8] + len(head).to_bytes(8, "little") + head + blob[16 + head_len:])


def set_header(path, section: str, key: str, value) -> None:
    """Set ``section.key`` in a checkpoint's header, as a writer recording that value would.

    The config digest is refreshed to match, so only the edited value is off.
    """
    def edit(header):
        header[section][key] = value
        blob = json.dumps({"model": header["model_config"], "train": header["train_config"]},
                          sort_keys=True)
        header["config_digest"] = hashlib.sha256(blob.encode()).hexdigest()

    rewrite_header(path, edit)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
