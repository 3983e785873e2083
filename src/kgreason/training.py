"""Negative-sampling training with Adam, checkpointing and seeded streams.

All randomness flows from one master seed through named sub-streams
(init / shuffle / negatives / noise), so any single component can be
pinned in tests and two runs with the same seed are bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import Parameter, RowIndex, Tape, Tensor
from .data import DatasetSplit, KnowledgeGraph, Vocabulary, build_graph, make_queries, query_filters
from .evaluation import evaluate
from .model import ModelConfig, ModelParams, forward, make_noise

SCORE_CLAMP = 1e-7

TRAIN_GRIDS = {
    "learning_rate": (1e-4, 5e-4, 1e-3, 5e-3),
    "weight_decay": (0.0, 1e-6, 1e-5, 1e-4),
    "num_negatives": (2**6, 2**8, 2**10, 2**12, 2**14, 2**16),
}

_STREAMS = {"init": 0, "shuffle": 1, "negatives": 2, "noise": 3}


class SamplingError(Exception):
    pass


class TrainingDiverged(Exception):
    pass


class CheckpointError(Exception):
    pass


def rng_stream(seed: int, name: str) -> np.random.Generator:
    """Named deterministic sub-stream of the master seed."""
    key = _STREAMS[name]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


@dataclass
class TrainConfig:
    learning_rate: float = 5e-4
    weight_decay: float = 0.0
    num_negatives: int = 64
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    eval_interval: int = 1          # epochs between validation evaluations
    patience: int = 5               # early stop after this many evals without improvement
    target_valid_mrr: Optional[float] = None   # stop once validation MRR reaches this
    max_valid_queries: Optional[int] = None    # subsample validation for cheap smoke runs
    log_timing: bool = True         # wall_ms in the metrics log (off for byte-identical logs)

    def grid_warnings(self) -> list[str]:
        warnings = []
        for name, grid in TRAIN_GRIDS.items():
            if getattr(self, name) not in grid:
                warnings.append(f"{name}={getattr(self, name)} is outside the default grid {grid}")
        return warnings


def sample_negatives(rng: np.random.Generator, num_entities: int, gold: int, k: int) -> np.ndarray:
    """k entities drawn uniformly without replacement from V minus the gold tail."""
    if k >= num_entities:
        raise SamplingError(f"cannot draw {k} negatives from {num_entities} entities (gold excluded)")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    draw = rng.choice(num_entities - 1, size=k, replace=False).astype(np.int64)
    return draw + (draw >= gold)


def negative_sampling_loss(tape: Tape, scores: Tensor, gold: int, negatives: np.ndarray) -> Tensor:
    """-log s(t) - sum log(1 - s(t')) over sampled negatives.

    Scores are post-sigmoid probabilities; they are clamped into
    [1e-7, 1 - 1e-7] before the logs so a saturated model cannot produce
    infinities.
    """
    dt = scores.data.dtype
    clamped = tape.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    pos = tape.gather_rows(clamped, RowIndex([gold]))
    loss = tape.scale(tape.log(pos), -1.0)
    if len(negatives):
        neg = tape.gather_rows(clamped, RowIndex(negatives))
        one_minus = tape.add(tape.scale(neg, -1.0), tape.tensor(np.ones((1, 1), dtype=dt)))
        loss = tape.add(loss, tape.scale(tape.sum(tape.log(one_minus)), -1.0))
    return loss


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self, params: Sequence[Parameter]):
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}
        self.step = 0


def adam_step(params: Sequence[Parameter], state: AdamState, config: TrainConfig) -> None:
    """One update from the accumulated gradients (standard bias correction).

    Weight decay is applied as an L2 term folded into the gradient.
    """
    state.step += 1
    t = state.step
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for p in params:
        g = p.grad
        if config.weight_decay:
            g = g + config.weight_decay * p.data
        m = state.m[p.name]
        v = state.v[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= config.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + config.adam_eps)


# --- checkpoint container ----------------------------------------------------

_MAGIC = b"KGRCKPT1"
_FORMAT_VERSION = 1


def _config_digest(model_config: ModelConfig, train_config: TrainConfig) -> str:
    blob = json.dumps({"model": asdict(model_config), "train": asdict(train_config)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _rng_state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


def _restore_rng(state: dict) -> np.random.Generator:
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = state
    return gen


@dataclass
class Checkpoint:
    model_config: ModelConfig
    train_config: TrainConfig
    params: ModelParams
    adam: AdamState
    num_relations: int
    entity_tokens: list
    relation_tokens: list
    rng_states: dict
    training_state: dict


def save_checkpoint(path: str, params: ModelParams, adam: AdamState,
                    model_config: ModelConfig, train_config: TrainConfig,
                    entity_tokens: Sequence[str], relation_tokens: Sequence[str],
                    rng_states: dict, training_state: dict) -> None:
    """Write the documented binary container: magic, JSON header, raw payload.

    Tensors are serialized little-endian in parameter order; the header is
    canonical JSON (sorted keys), so save -> load -> save round-trips to
    identical bytes.
    """
    tensors = []
    blobs = []
    offset = 0

    def push(name, role, arr):
        nonlocal offset
        raw = np.ascontiguousarray(arr, dtype=arr.dtype).astype(
            "<f8" if arr.dtype == np.float64 else "<f4").tobytes()
        tensors.append({
            "name": name, "role": role, "shape": list(arr.shape),
            "dtype": str(arr.dtype), "offset": offset, "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)

    for p in params.parameters():
        push(p.name, "param", p.data)
    for p in params.parameters():
        push(p.name, "adam_m", adam.m[p.name])
    for p in params.parameters():
        push(p.name, "adam_v", adam.v[p.name])

    header = {
        "format_version": _FORMAT_VERSION,
        "config_digest": _config_digest(model_config, train_config),
        "model_config": asdict(model_config),
        "train_config": asdict(train_config),
        "num_relations": params.num_relations,
        "adam_step": adam.step,
        "entity_tokens": list(entity_tokens),
        "relation_tokens": list(relation_tokens),
        "rng": rng_states,
        "training_state": training_state,
        "tensors": tensors,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(head).to_bytes(8, "little"))
        fh.write(head)
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        head_len = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(head_len).decode())
        payload = fh.read()
    if header["format_version"] != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format {header['format_version']}")
    model_fields = dict(header["model_config"])
    heads = model_fields.pop("heads", 1)  # earlier headers record the head count
    if heads != 1:
        raise CheckpointError(f"{path}: checkpoint has {heads} attention heads per layer; "
                              "only single-head models are supported")
    model_config = ModelConfig(**model_fields)
    train_config = TrainConfig(**header["train_config"])
    params = ModelParams(model_config, header["num_relations"], np.random.default_rng(0))
    adam = AdamState(params.parameters())
    adam.step = header["adam_step"]
    by_name = params.by_name()
    stores = {"param": None, "adam_m": adam.m, "adam_v": adam.v}
    seen = set()
    for entry in header["tensors"]:
        raw = payload[entry["offset"]:entry["offset"] + entry["nbytes"]]
        wire = "<f8" if entry["dtype"] == "float64" else "<f4"
        arr = np.frombuffer(raw, dtype=wire).astype(entry["dtype"]).reshape(entry["shape"])
        if entry["name"] not in by_name:
            raise CheckpointError(f"checkpoint tensor {entry['name']!r} not in model layout")
        if entry["role"] == "param":
            by_name[entry["name"]].data = arr.copy()
        else:
            stores[entry["role"]][entry["name"]] = arr.copy()
        seen.add((entry["name"], entry["role"]))
    missing = {p.name for p in params.parameters()} - {n for n, r in seen if r == "param"}
    if missing:
        raise CheckpointError(f"checkpoint missing tensors: {sorted(missing)[:5]}")
    return Checkpoint(model_config, train_config, params, adam, header["num_relations"],
                      header["entity_tokens"], header["relation_tokens"], header["rng"],
                      header["training_state"])


# --- split builder -----------------------------------------------------------


def split_graph(dataset: DatasetSplit, split: str) -> tuple[KnowledgeGraph, Vocabulary]:
    """The inverse-augmented fact graph a split's queries run on, and its entity vocabulary.

    Inductive test queries run on the inference graph, in the inference
    vocabulary; every other split runs on the training graph.
    """
    if dataset.mode == "inductive" and split == "test":
        facts, vocab = dataset.inference, dataset.inference_entity_vocab
    else:
        facts, vocab = dataset.train, dataset.entity_vocab
    return build_graph(facts, len(vocab), dataset.num_relations, add_inverse=True), vocab


def _filter_splits(dataset: DatasetSplit, split: str) -> tuple:
    """Names of the splits whose facts filter the rankings of ``split``'s queries.

    Filters stay inside the id space the split's graph uses: inductive test
    ids belong to the inference vocabulary, everything else to training's.
    """
    if dataset.mode == "transductive":
        return ("train", "valid", "test")
    return ("inference", "test") if split == "test" else ("train", "valid")


def split_queries(dataset: DatasetSplit, *splits: str) -> list:
    """Filtered tail queries (both directions) of each named split, one list per split."""
    filters = {}
    out = []
    for split in splits:
        known = _filter_splits(dataset, split)
        if known not in filters:
            filters[known] = query_filters([getattr(dataset, name) for name in known],
                                           dataset.num_relations)
        out.append(make_queries(getattr(dataset, split), dataset.num_relations, filters[known]))
    return out


# --- training loop -----------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParams
    adam: AdamState
    history: list
    best: dict
    checkpoint_path: Optional[str] = None
    best_checkpoint_path: Optional[str] = None


class _MetricsLog:
    """Append-only JSON-lines writer that also keeps records in memory."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.records = []
        if path:
            open(path, "w").close()

    def emit(self, record: dict) -> None:
        self.records.append(record)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _param_norms(params: ModelParams, worst: int = 5) -> str:
    norms = sorted(((float(np.linalg.norm(p.data)), p.name) for p in params.parameters()), reverse=True)
    return ", ".join(f"{name}={norm:.3e}" for norm, name in norms[:worst])


def train(dataset: DatasetSplit, model_config: ModelConfig, train_config: TrainConfig,
          out_dir: Optional[str] = None, resume_from: Optional[str] = None,
          log=print) -> TrainResult:
    """Train on the dataset's train split, tracking filtered validation MRR.

    Every training fact yields a tail query in each direction (the inverse
    edge supervises head prediction). During a query's forward pass the
    query's own edge and its inverse are dropped from message passing so
    the answer cannot leak through the graph.
    """
    model_config.validate()
    num_rel_aug = 2 * dataset.num_relations
    graph, _ = split_graph(dataset, "train")
    train_queries, valid_queries = split_queries(dataset, "train", "valid")
    if train_config.max_valid_queries is not None:
        valid_queries = valid_queries[:train_config.max_valid_queries]

    if resume_from:
        ck = load_checkpoint(resume_from)
        if asdict(ck.model_config) != asdict(model_config):
            raise CheckpointError(
                "checkpoint model configuration differs from the requested one; "
                "resuming would silently change the architecture")
        params, adam = ck.params, ck.adam
        shuffle_rng = _restore_rng(ck.rng_states["shuffle"])
        neg_rng = _restore_rng(ck.rng_states["negatives"])
        noise_rng = _restore_rng(ck.rng_states["noise"])
        start_epoch = ck.training_state["epoch"]
        best = ck.training_state["best"]
        evals_since_best = ck.training_state["evals_since_best"]
    else:
        params = ModelParams(model_config, num_rel_aug, rng_stream(train_config.seed, "init"))
        adam = AdamState(params.parameters())
        shuffle_rng = rng_stream(train_config.seed, "shuffle")
        neg_rng = rng_stream(train_config.seed, "negatives")
        noise_rng = rng_stream(train_config.seed, "noise")
        start_epoch = 0
        best = {"mrr": -1.0, "epoch": 0}
        evals_since_best = 0
    log(f"model has {params.count()} parameters over {num_rel_aug} relations "
        f"({len(train_queries)} training queries)")

    metrics_path = os.path.join(out_dir, "metrics.jsonl") if out_dir else None
    logger = _MetricsLog(metrics_path)
    ckpt_path = os.path.join(out_dir, "checkpoint.bin") if out_dir else None
    best_path = os.path.join(out_dir, "best.bin") if out_dir else None

    def snapshot(path):
        if path is None:
            return
        save_checkpoint(
            path, params, adam, model_config, train_config,
            dataset.entity_vocab.tokens, dataset.relation_vocab.tokens,
            {"shuffle": _rng_state(shuffle_rng), "negatives": _rng_state(neg_rng),
             "noise": _rng_state(noise_rng)},
            {"epoch": epoch, "best": best, "evals_since_best": evals_since_best},
        )

    def record(epoch, split, loss=None, report=None, wall_ms=None):
        rec = {"epoch": epoch, "split": split, "loss": loss,
               "mrr": None, "hits1": None, "hits3": None, "hits10": None,
               "wall_ms": wall_ms if train_config.log_timing else None}
        if report is not None:
            rec.update(report.as_dict())
            rec.pop("count", None)
        logger.emit(rec)
        return rec

    epoch = start_epoch
    stop = False
    for epoch in range(start_epoch + 1, train_config.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_queries))
        epoch_loss = 0.0
        for batch_no, lo in enumerate(range(0, len(order), train_config.batch_size)):
            batch = order[lo:lo + train_config.batch_size]
            params.zero_grad()
            batch_loss = 0.0
            for qi in batch:
                q = train_queries[qi]
                negs = sample_negatives(neg_rng, graph.num_entities, q.gold_tail,
                                        train_config.num_negatives)
                noise = make_noise(model_config, graph.num_entities,
                                   noise_rng if model_config.noise_mode == "per_forward" else None)
                tape = Tape()
                scores = forward(tape, graph, q, params, model_config, noise,
                                 exclude_query_edge=True)
                loss = negative_sampling_loss(tape, scores, q.gold_tail, negs)
                tape.backward(tape.scale(loss, 1.0 / len(batch)))
                batch_loss += loss.item()
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}; "
                    f"largest parameter norms: {_param_norms(params)}")
            adam_step(params.parameters(), adam, train_config)
            epoch_loss += batch_loss
        mean_loss = epoch_loss / len(order)
        wall = (time.perf_counter() - t0) * 1000.0
        record(epoch, "train", loss=mean_loss, wall_ms=round(wall, 3))

        if epoch % train_config.eval_interval == 0 and valid_queries:
            t1 = time.perf_counter()
            report = evaluate(graph, valid_queries, params, model_config,
                              noise_seed=train_config.seed)
            wall = (time.perf_counter() - t1) * 1000.0
            record(epoch, "valid", report=report, wall_ms=round(wall, 3))
            log(f"epoch {epoch}: train loss {mean_loss:.4f} | valid {report}")
            if report.mrr > best["mrr"]:
                best = {"mrr": report.mrr, "epoch": epoch}
                evals_since_best = 0
                snapshot(best_path)
            else:
                evals_since_best += 1
            if train_config.target_valid_mrr is not None and report.mrr >= train_config.target_valid_mrr:
                log(f"target validation MRR {train_config.target_valid_mrr} reached; stopping")
                stop = True
            if evals_since_best >= train_config.patience:
                log(f"no improvement in {train_config.patience} evaluations; stopping")
                stop = True
        else:
            log(f"epoch {epoch}: train loss {mean_loss:.4f}")
        if stop:
            break

    snapshot(ckpt_path)
    return TrainResult(params, adam, logger.records, best, ckpt_path, best_path)
