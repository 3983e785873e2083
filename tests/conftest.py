"""Shared builders for toy graphs, small models and checkpoint edits."""

import hashlib
import json
import os
import pickle

import numpy as np
import pytest

from kgreason import evaluation
from kgreason.data import Query, Triplet, build_graph
from kgreason.model import ModelConfig, ModelParams
from kgreason.training import AdamState, load_checkpoint


def use_cpus(monkeypatch, cpus):
    """Make ``evaluate`` and ``train`` see ``cpus`` CPUs and a one-thread BLAS, so they use that many."""
    monkeypatch.setattr(evaluation, "available_cpus", lambda: cpus)
    monkeypatch.setattr(evaluation, "blas_threads", lambda: 1)


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


def facts(graph) -> list[tuple[int, int, int]]:
    """Every (head, relation, tail) of ``graph``, in index order."""
    return list(zip(graph.in_src.tolist(), graph.in_rel.tolist(), graph.in_tgt.tolist()))


def filter_dict(filters) -> dict:
    """``{(head, relation): set of tails}`` read off the CSR arrays of a ``QueryFilters``, in key order."""
    heads, relations = np.divmod(filters.packed, 2 * filters.num_base_relations)
    bounds = zip(filters.ptr[:-1].tolist(), filters.ptr[1:].tolist())
    return {(h, r): set(filters.tails[lo:hi].tolist())
            for h, r, (lo, hi) in zip(heads.tolist(), relations.tolist(), bounds)}


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


def reference_save(path, params, adam, mcfg, tcfg, entity_tokens, relation_tokens, rngs, tstate):
    """The container as first specified: each tensor's little-endian bytes joined after the header."""
    tensors, blobs, offset = [], [], 0
    for role in ("param", "adam_m", "adam_v"):
        for p in params.parameters():
            arr = p.data if role == "param" else getattr(adam, role[-1])[p.name]
            raw = arr.astype("<f8" if arr.dtype == np.float64 else "<f4").tobytes()
            tensors.append({"name": p.name, "role": role, "shape": list(arr.shape), "dtype": str(arr.dtype),
                            "offset": offset, "nbytes": len(raw)})
            blobs.append(raw)
            offset += len(raw)
    model, train_ = vars(mcfg).copy(), vars(tcfg).copy()
    digest = hashlib.sha256(json.dumps({"model": model, "train": train_}, sort_keys=True).encode()).hexdigest()
    header = {"format_version": 1, "config_digest": digest, "model_config": model, "train_config": train_,
              "num_relations": params.num_relations, "adam_step": adam.step,
              "entity_tokens": list(entity_tokens), "relation_tokens": list(relation_tokens),
              "rng": rngs, "training_state": tstate, "tensors": tensors}
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(b"KGRCKPT1" + len(head).to_bytes(8, "little") + head + b"".join(blobs))


# Headers that list another layout than the writer's, each with the message that refuses it.
LAYOUT_FAULTS = {
    "aliased-offsets": r"tensor \d+ \('layer0\.head0\.query\.rel_b'\) has offset 0; the model layout needs",
    "dropped-moment": r"checkpoint header lists \d+ tensors; the model layout has \d+",
    "mixed-dtype": r"tensor \d+ \('relations'\) has dtype 'float\d+'; the model layout needs 'float\d+'",
    "relation-count": r"num_relations = \d+, but the header's relation_tokens and their inverses make \d+",
}


def damage_layout(path, fault: str) -> None:
    """Give the checkpoint at ``path`` one of ``LAYOUT_FAULTS``, as a faulty writer would."""
    if fault == "aliased-offsets":  # a tensor shaped like ``relations`` pointed at its bytes
        def alias(header):
            next(e for e in header["tensors"] if e["name"] == "layer0.head0.query.rel_b").update(offset=0)
        rewrite_header(path, alias)
    elif fault == "dropped-moment":  # the last moment's entry gone, and its bytes with it
        dropped = []
        rewrite_header(path, lambda h: dropped.append(h["tensors"].pop()))
        path.write_bytes(path.read_bytes()[:-dropped[0]["nbytes"]])
    elif fault == "mixed-dtype":  # one moment written in the other float width
        ck = load_checkpoint(str(path))
        m = dict(ck.adam.m)
        other = np.float32 if m["relations"].dtype == np.float64 else np.float64
        m["relations"] = m["relations"].astype(other)
        reference_save(path, ck.params, AdamState(ck.params.parameters(), m, ck.adam.v, ck.adam.step),
                       ck.model_config, ck.train_config, ck.entity_tokens, ck.relation_tokens,
                       ck.rng_states, ck.training_state)
    else:  # one relation token more than the tensors were built for
        rewrite_header(path, lambda h: h["relation_tokens"].append("extra"))


class ProcessLog:
    """Records appended by this process and by the children it forks, read back in arrival order.

    Spies inside ``evaluate`` run in every worker; a list would keep only
    this process's calls, so they append to a file (one write per record).
    """

    def __init__(self, path):
        self.path = path

    def append(self, record) -> None:
        blob = pickle.dumps(record)
        with open(self.path, "ab") as fh:
            fh.write(len(blob).to_bytes(8, "little") + blob)

    def records(self) -> list:
        out = []
        if not os.path.exists(self.path):
            return out
        with open(self.path, "rb") as fh:
            while head := fh.read(8):
                out.append(pickle.loads(fh.read(int.from_bytes(head, "little"))))
        return out


@pytest.fixture
def process_log(tmp_path):
    return ProcessLog(tmp_path / "calls.log")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = f"reaped {pid} here" if pid else "still running"
    pytest.fail(f"the test left a child process behind ({state})")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
