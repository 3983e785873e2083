"""Negative-sampling training with Adam, checkpointing and seeded streams.

All randomness flows from one master seed through named sub-streams
(init / shuffle / negatives / noise), so any single component can be
pinned in tests and two runs with the same seed are bit-identical.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pickle
import time
from dataclasses import asdict, dataclass, fields as dataclass_fields
from typing import Optional, Sequence

import numpy as np

from . import UserError
from .autodiff import Parameter, Tape, Tensor
from .data import DatasetSplit, KnowledgeGraph, Vocabulary, build_graph, make_queries, query_filters
from .evaluation import Children, evaluate, receive, send, sendable_error, worker_count
from .model import (
    DENSE_GUARD, FFN_DEPTH, FFN_MULTIPLIER, LAYER_NORM_EPS, MLP_DEPTH, NORM_EPS, ConfigError,
    ModelConfig, ModelParams, forward, make_noise,
)

SCORE_CLAMP = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_STREAMS = {"init": 0, "shuffle": 1, "negatives": 2, "noise": 3}
_RUN_STREAMS = ("shuffle", "negatives", "noise")   # the streams a run draws from after init


class SamplingError(Exception):
    pass


class TrainingDiverged(Exception):
    pass


class CheckpointError(UserError):
    """A checkpoint file is unreadable, damaged, or does not fit the run that asks for it."""


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
    eval_interval: int = 1          # epochs between validation evaluations
    patience: int = 5               # early stop after this many evals without improvement
    target_valid_mrr: Optional[float] = None   # stop once validation MRR reaches this
    max_valid_queries: Optional[int] = None    # subsample validation for cheap smoke runs
    log_timing: bool = True         # wall_ms in the metrics log (off for byte-identical logs)


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
    pos = tape.gather_rows(clamped, [gold])
    loss = tape.scale(tape.log(pos), -1.0)
    if len(negatives):
        neg = tape.gather_rows(clamped, negatives)
        one_minus = tape.add(tape.scale(neg, -1.0), tape.tensor(np.ones((1, 1), dtype=dt)))
        loss = tape.add(loss, tape.scale(tape.sum(tape.log(one_minus)), -1.0))
    return loss


class AdamState:
    """First/second moment accumulators plus the shared step counter.

    Moments start at zero unless ``m`` and ``v`` give every parameter's, by
    name, to continue from.
    """

    def __init__(self, params: Sequence[Parameter], m: Optional[dict] = None, v: Optional[dict] = None,
                 step: int = 0):
        self.m = {p.name: np.zeros_like(p.data) for p in params} if m is None else m
        self.v = {p.name: np.zeros_like(p.data) for p in params} if v is None else v
        self.step = step


def adam_step(params: Sequence[Parameter], state: AdamState, config: TrainConfig) -> None:
    """One update from the accumulated gradients (standard bias correction).

    Weight decay is applied as an L2 term folded into the gradient.
    """
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
        p.data -= config.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)


# --- checkpoint container ----------------------------------------------------

_MAGIC = b"KGRCKPT1"
_FORMAT_VERSION = 1

# Settings that were once configurable and now have one value. Headers written
# before they were fixed still record them; those load when the value matches.
_RETIRED = {
    "model_config": {"heads": 1, "mlp_depth": MLP_DEPTH, "ffn_depth": FFN_DEPTH,
                     "ffn_multiplier": FFN_MULTIPLIER, "layer_norm_eps": LAYER_NORM_EPS,
                     "norm_eps": NORM_EPS, "dense_guard": DENSE_GUARD},
    "train_config": {"adam_beta1": ADAM_BETA1, "adam_beta2": ADAM_BETA2, "adam_eps": ADAM_EPS},
}


# Keys every header carries.
_HEADER_KEYS = ("format_version", "config_digest", "model_config", "train_config", "num_relations",
                "adam_step", "entity_tokens", "relation_tokens", "rng", "training_state", "tensors")


def _config_digest(model_section: dict, train_section: dict) -> str:
    """sha256 of the two config sections a header records.

    Load verifies the digest against the header's own sections, not against
    today's dataclasses, so files that record retired settings still load.
    """
    blob = json.dumps({"model": model_section, "train": train_section}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _restore_rng(state: dict) -> np.random.Generator:
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = state
    return gen


def _tensor_table(params: ModelParams) -> list:
    """The header's ``tensors`` list for a checkpoint of ``params``: the one layout there is.

    Every parameter in ``parameters()`` order, then its ``adam_m`` moment in
    that order, then its ``adam_v``; back to back from offset 0, all in the
    model's dtype.
    """
    dtype = np.dtype(params.config.dtype)
    dtype_name, itemsize = dtype.name, dtype.itemsize
    sized = [(p.name, list(p.data.shape), p.data.size * itemsize) for p in params.parameters()]
    table, offset = [], 0
    for role in ("param", "adam_m", "adam_v"):
        for name, shape, nbytes in sized:
            table.append({"name": name, "role": role, "shape": shape, "dtype": dtype_name,
                          "offset": offset, "nbytes": nbytes})
            offset += nbytes
    return table


@dataclass
class Checkpoint:
    """A run's record: what ``load_checkpoint`` returns and ``save_checkpoint`` writes."""

    model_config: ModelConfig
    train_config: TrainConfig
    params: ModelParams
    adam: Optional[AdamState]      # None when loaded without the moments
    entity_tokens: list
    relation_tokens: list
    rng_states: dict
    training_state: dict


# List entries per piece of a written header, about 2 KB of JSON for the tensor table.
_HEADER_CHUNK = 16


def _header_pieces(header: dict):
    """``json.dumps(header, sort_keys=True, separators=(",", ":"))`` in pieces, by C encoder calls.

    One call per key, and one per ``_HEADER_CHUNK`` entries of a list value,
    so no piece holds a whole token list or tensor table.
    """
    dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    for i, key in enumerate(sorted(header)):
        value = header[key]
        yield ("," if i else "{") + dumps(key) + ":"
        if isinstance(value, list):
            yield "["
            for j in range(0, len(value), _HEADER_CHUNK):
                yield ("," if j else "") + dumps(value[j:j + _HEADER_CHUNK])[1:-1]
            yield "]"
        else:
            yield dumps(value)
    yield "}"


def save_checkpoint(path: str, ck: Checkpoint) -> None:
    """Write ``ck`` as the documented binary container: magic, JSON header, raw payload.

    ``ck`` is what ``load_checkpoint`` returns, so ``save_checkpoint(p2,
    load_checkpoint(p1))`` writes the bytes of ``p1`` again. The header's
    ``tensors`` list is ``_tensor_table(ck.params)``, and the payload is its
    arrays in that order, little-endian, each written straight from its
    array. The header is canonical JSON (sorted keys), written in pieces
    (``_header_pieces``), so no string of the whole header is held; its
    length is written last. The file is written beside
    ``path`` and renamed over it, so a save that fails partway leaves the
    previous file intact.
    """
    params, adam = ck.params, ck.adam
    plist = params.parameters()
    wire = np.dtype(params.config.dtype).newbyteorder("<")
    arrays = [p.data for p in plist] + [adam.m[p.name] for p in plist] + [adam.v[p.name] for p in plist]
    header = {
        "format_version": _FORMAT_VERSION,
        "config_digest": _config_digest(asdict(ck.model_config), asdict(ck.train_config)),
        "model_config": asdict(ck.model_config),
        "train_config": asdict(ck.train_config),
        "num_relations": params.num_relations,
        "adam_step": adam.step,
        "entity_tokens": list(ck.entity_tokens),
        "relation_tokens": list(ck.relation_tokens),
        "rng": ck.rng_states,
        "training_state": ck.training_state,
        "tensors": _tensor_table(params),
    }
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(bytes(8))                  # the header's length, patched in below
            for piece in _header_pieces(header):
                fh.write(piece.encode())   # ASCII: the encoder escapes everything else
            head_len = fh.tell() - len(_MAGIC) - 8
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype=wire))
            fh.seek(len(_MAGIC))
            fh.write(head_len.to_bytes(8, "little"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _header_settings(path: str, header: dict, key: str, cls):
    """The ``cls`` settings a header records under ``key``, less its retired keys."""
    fields = dict(header[key])
    for name, fixed in _RETIRED[key].items():
        value = fields.pop(name, fixed)
        if value != fixed:
            raise CheckpointError(f"{path}: retired setting {key}.{name} = {value!r}; only {fixed!r} loads")
    unknown = sorted(set(fields) - {f.name for f in dataclass_fields(cls)})
    if unknown:
        raise CheckpointError(f"{path}: unknown setting {key}.{unknown[0]} = {fields[unknown[0]]!r}")
    return cls(**fields)


def _read_header(path: str, fh) -> dict:
    """The JSON header of an open checkpoint, its keys and digest checked, leaving ``fh`` at the payload."""
    magic = fh.read(len(_MAGIC))
    head_len = int.from_bytes(fh.read(8), "little")
    head = fh.read(head_len)
    if magic != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(head) != head_len:
        raise CheckpointError(f"{path}: truncated checkpoint: header runs past the end of the file")
    try:
        header = json.loads(head)
    except ValueError as exc:  # bad encoding or bad JSON
        raise CheckpointError(f"{path}: unreadable checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: checkpoint header is not a JSON object")
    if "format_version" in header and header["format_version"] != _FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint format {header['format_version']!r}")
    absent = [key for key in _HEADER_KEYS if key not in header]
    if absent:
        raise CheckpointError(f"{path}: checkpoint header lacks {', '.join(absent)}")
    if header["config_digest"] != _config_digest(header["model_config"], header["train_config"]):
        raise CheckpointError(f"{path}: config_digest does not match the header's "
                              "model_config and train_config")
    for key in ("entity_tokens", "relation_tokens"):
        if not isinstance(header[key], list) or not set(map(type, header[key])) <= {str}:
            raise CheckpointError(f"{path}: checkpoint {key} is not a list of strings")
    if header["num_relations"] != 2 * len(header["relation_tokens"]):
        raise CheckpointError(f"{path}: num_relations = {header['num_relations']!r}, but the header's "
                              f"relation_tokens and their inverses make {2 * len(header['relation_tokens'])}")
    return header


def load_checkpoint(path: str, *, moments: bool = True) -> Checkpoint:
    """Restore a checkpoint; with ``moments=False``, only what inference reads.

    The header must list exactly ``_tensor_table`` of the model it records,
    entry for entry, and its ``num_relations`` must count each relation token
    and its inverse; anything else is refused before a tensor is read. The
    payload is read into one buffer and every tensor is a writable view of
    it, so nothing is copied on a little-endian host. ``moments=False``
    reads the parameter section only (it comes first): the parameters get
    no gradient buffers and ``adam`` is ``None``. Otherwise gradients are
    zero buffers and ``adam`` holds the moments.
    """
    try:
        with open(path, "rb") as fh:
            header = _read_header(path, fh)
            model_config = _header_settings(path, header, "model_config", ModelConfig)
            train_config = _header_settings(path, header, "train_config", TrainConfig)
            # stand-ins over one element give the layout; the payload's views replace them below
            one = np.zeros(1, model_config.dtype)
            params = ModelParams(model_config, 2 * len(header["relation_tokens"]), grads=moments,
                                 source=lambda name, shape: np.ndarray(shape, one.dtype, one, strides=(0, 0)))
            table = _tensor_table(params)
            tensors = header["tensors"]
            if not isinstance(tensors, list) or len(tensors) != len(table):
                count = len(tensors) if isinstance(tensors, list) else "no"
                raise CheckpointError(f"{path}: checkpoint header lists {count} tensors; "
                                      f"the model layout has {len(table)}")
            for i, (got, want) in enumerate(zip(tensors, table)):
                if got != want:
                    got = got if isinstance(got, dict) else {}
                    key = next(k for k in {**want, **got}
                               if (k in got, got.get(k)) != (k in want, want.get(k)))
                    shown = [repr(entry[key]) if key in entry else "none" for entry in (got, want)]
                    raise CheckpointError(f"{path}: tensor {i} ({want['name']!r}) has {key} {shown[0]}; "
                                          f"the model layout needs {shown[1]}")
            size = table[-1]["offset"] + table[-1]["nbytes"]
            payload = os.fstat(fh.fileno()).st_size - fh.tell()
            if payload != size:
                fault = "truncated checkpoint" if payload < size else "checkpoint has bytes past its payload"
                raise CheckpointError(f"{path}: {fault}: {payload} bytes follow the header, "
                                      f"where its tensors need {size}")
            plist = params.parameters()
            entries = table if moments else table[:len(plist)]
            buf = bytearray(entries[-1]["offset"] + entries[-1]["nbytes"])
            if fh.readinto(buf) != len(buf):
                raise CheckpointError(f"{path}: truncated checkpoint: the file shrank while it was read")
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror}") from None
    wire = np.dtype(model_config.dtype).newbyteorder("<")
    arrays = [np.frombuffer(buf, wire, math.prod(entry["shape"]), entry["offset"])
              .reshape(entry["shape"]).astype(model_config.dtype, copy=False) for entry in entries]
    for p, arr in zip(plist, arrays):
        p.data = arr
    adam = None
    if moments:
        names, n = [p.name for p in plist], len(plist)
        adam = AdamState(plist, dict(zip(names, arrays[n:2 * n])), dict(zip(names, arrays[2 * n:])),
                         header["adam_step"])
    return Checkpoint(model_config, train_config, params, adam, header["entity_tokens"],
                      header["relation_tokens"], header["rng"], header["training_state"])


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
    """Filtered tail queries (both directions) of each named split, one ``Queries`` per split."""
    filters = {}
    out = []
    for split in splits:
        known = _filter_splits(dataset, split)
        if known not in filters:
            filters[known] = query_filters([getattr(dataset, name) for name in known],
                                           dataset.num_relations)
        out.append(make_queries(getattr(dataset, split), dataset.num_relations, filters[known]))
    return out


# --- batch replicas ----------------------------------------------------------

_DONE, _FAILED = b"\x00", b"\x01"   # a replica's status byte for its share of a batch


def _batch_shares(size: int, processes: int) -> list[range]:
    """Each process's contiguous positions in a batch of ``size`` queries, in order.

    The first ``size % processes`` shares hold one query more than the rest.
    """
    base, extra = divmod(size, processes)
    starts = [j * base + min(j, extra) for j in range(processes + 1)]
    return [range(starts[j], starts[j + 1]) for j in range(processes)]


class _Replicas(Children):
    """Forked copies of a training run that each run a share of every batch of one epoch.

    This process is process 0 and replica i is process i; ``_batch_shares``
    gives each its queries. A replica records its parameters' gradient
    contributions (``Parameter.deferred``) and, per batch with queries,
    sends a status byte and its losses as float64. This process then passes
    the running gradient down the chain, as raw bytes from and into the
    ``grad`` buffers: replica i receives the sum over the shares before its
    own, adds its contributions in order and sends the sum back. Each
    parameter's accumulator thus sees the ``+=`` operands of one process
    running the batch in order. Before the next batch, every replica but
    the last receives the batch's gradient, and every process takes the
    same Adam step. Only the epoch's last batch can leave a replica without
    queries; after its fold the replicas end, and this process alone steps.
    A replica whose share fails sends its error, pickled, in place of its
    losses; one that is ended by a signal raises ``WorkerError`` naming it.

    Replica i is ``Children``'s child i - 1. It ends when the epoch ends,
    or when its pipe from this process closes.
    """

    def shares(self, size: int) -> list[range]:
        return _batch_shares(size, len(self.ends) + 1)

    def fold(self, grads: list, size: int) -> list:
        """Pass ``grads`` (this process's share's sum) down the chain; the replicas' losses in query order.

        On return ``grads`` hold the whole batch's gradient.
        """
        losses = []
        for k, share in enumerate(self.shares(size)[1:]):
            if not share:
                break
            _, down, up = self.ends[k]
            got = np.empty(len(share))
            if os.read(up, 1) != _DONE or not receive(up, got):
                raise self.outcome(k)
            losses += got.tolist()
            self._send_grads(k, grads)
            if not receive(up, *grads):
                raise self.outcome(k)
        return losses

    def share_final(self, grads: list) -> None:
        """Send a full batch's gradient to every replica but the last, whose share it ended with."""
        for k in range(len(self.ends) - 1):
            self._send_grads(k, grads)

    def _send_grads(self, k: int, grads: list) -> None:
        try:
            send(self.ends[k][1], *grads)
        except BrokenPipeError:
            raise self.outcome(k) from None


# --- training loop -----------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParams
    history: list
    best: dict
    checkpoint_path: Optional[str] = None


class _MetricsLog:
    """Append-only JSON-lines writer that also keeps records in memory.

    A run resumed from ``resume_epoch`` keeps the file's records up to that
    epoch and drops later ones; a fresh run starts an empty file.
    """

    def __init__(self, path: Optional[str], resume_epoch: Optional[int] = None):
        self.path = path
        self.records = []
        if not path:
            return
        if resume_epoch is not None and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.records = [rec for rec in map(json.loads, fh) if rec["epoch"] <= resume_epoch]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in self.records)

    def emit(self, record: dict) -> None:
        self.records.append(record)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _param_norms(params: ModelParams, worst: int = 5) -> str:
    norms = sorted(((float(np.linalg.norm(p.data)), p.name) for p in params.parameters()), reverse=True)
    return ", ".join(f"{name}={norm:.3e}" for norm, name in norms[:worst])


def check_train_settings(dataset: DatasetSplit, model_config: ModelConfig, train_config: TrainConfig) -> None:
    """Refuse settings the training loop or the dataset cannot support (``train`` runs this first)."""
    for key, least in (("batch_size", 1), ("eval_interval", 1), ("patience", 1), ("num_negatives", 0),
                       ("seed", 0), ("max_valid_queries", 0), ("epochs", 0), ("learning_rate", 0),
                       ("weight_decay", 0)):
        value = getattr(train_config, key)
        if value is not None and not least <= value < math.inf:   # NaN fails too
            finite = "" if math.isfinite(value) else "finite and "
            raise ConfigError(f"training.{key} must be {finite}>= {least}, got {value}")
    num_entities = len(dataset.entity_vocab)   # the training graph's entities
    if train_config.num_negatives >= num_entities:
        raise ConfigError(f"training.num_negatives = {train_config.num_negatives} needs more entities: "
                          f"the training graph has {num_entities}, and negatives exclude the gold")
    if model_config.kernel_mode == "full_exponential" and num_entities > DENSE_GUARD:
        raise ConfigError(f"model.kernel_mode = full_exponential runs dense attention on at most "
                          f"{DENSE_GUARD} entities; the training graph has {num_entities}")


def check_resume(ck: Checkpoint, model_config: ModelConfig, dataset: DatasetSplit,
                 source: str = "resume checkpoint") -> None:
    """Refuse a checkpoint (read from ``source``) that a run on ``dataset`` cannot continue.

    It must have the requested architecture, hold its Adam moments, and
    have the dataset's relation vocabulary, id for id, since relation
    parameters are indexed by relation id. Entity tokens may differ: no
    parameter belongs to an entity. The run state that neither the config
    digest nor the tensor table covers must be usable too: ``adam_step`` and
    the ``training_state`` counts integers >= 0, ``best.mrr`` a number, and
    each ``rng`` stream of ``_RUN_STREAMS`` a PCG64 state.
    ``kgreason train`` runs this before it writes anything, and ``train``
    runs it on the record it is given.
    """
    if asdict(ck.model_config) != asdict(model_config):
        raise CheckpointError(
            f"{source}: checkpoint model configuration differs from the requested one; "
            "resuming would silently change the architecture")
    if tuple(ck.relation_tokens) != dataset.relation_vocab.tokens:
        raise CheckpointError(
            f"{source}: checkpoint relation vocabulary differs from the dataset's; relation "
            "parameters are indexed by relation id, so resuming would change what they mean")
    if ck.adam is None:
        raise CheckpointError(f"{source}: loaded without its Adam moments; a run resumes with them")
    state = ck.training_state if isinstance(ck.training_state, dict) else {}
    best = state.get("best") if isinstance(state.get("best"), dict) else {}
    counts = {"adam_step": ck.adam.step, "training_state.epoch": state.get("epoch"),
              "training_state.best.epoch": best.get("epoch"),
              "training_state.evals_since_best": state.get("evals_since_best")}
    for key, value in counts.items():
        if type(value) is not int or value < 0:
            raise CheckpointError(f"{source}: checkpoint {key} is {value!r}; a resume needs an integer >= 0")
    if type(best.get("mrr")) not in (int, float):
        raise CheckpointError(f"{source}: checkpoint training_state.best.mrr is {best.get('mrr')!r}; "
                              "a resume needs a number")
    for name in _RUN_STREAMS:
        try:
            _restore_rng(ck.rng_states[name])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise CheckpointError(f"{source}: checkpoint rng.{name} is not a PCG64 generator state") from None


def train(dataset: DatasetSplit, model_config: ModelConfig, train_config: TrainConfig,
          out_dir: Optional[str] = None, resume: Optional[Checkpoint] = None,
          log=print) -> TrainResult:
    """Train on the dataset's train split, tracking filtered validation MRR.

    Every training fact yields a tail query in each direction (the inverse
    edge supervises head prediction). During a query's forward pass the
    query's own edge and its inverse are dropped from message passing so
    the answer cannot leak through the graph. ``resume``, a checkpoint loaded
    with its moments, continues the run it records; its arrays are trained
    in place. Where ``worker_count`` allows more than one process for a
    batch, each epoch's batches are shared with forked replicas
    (``_Replicas``), which are reaped before the epoch's validation, any
    save and any raise; every output is bit for bit that of one process.
    If a pipe or a fork fails, the replicas already made are killed and the
    epoch trains in this process alone. ``worker_count`` counts the CPUs
    the process may use, not the idle ones, and every batch waits for its
    slowest share: on 2 vCPUs with the second one busy, replicas trained
    the benchmark's umls-train at 90–93 queries/s against 107–114 in one
    process.
    """
    check_train_settings(dataset, model_config, train_config)
    num_rel_aug = 2 * dataset.num_relations
    graph, _ = split_graph(dataset, "train")
    train_queries, valid_queries = split_queries(dataset, "train", "valid")
    if train_config.max_valid_queries is not None:
        valid_queries = valid_queries[:train_config.max_valid_queries]

    # The run's state, as a checkpoint records it: the epoch/best/evals_since_best
    # record ``run``, and one generator per stream the epochs draw from.
    if resume is None:
        params = ModelParams(model_config, num_rel_aug, rng_stream(train_config.seed, "init"))
        adam = AdamState(params.parameters())
        rngs = {name: rng_stream(train_config.seed, name) for name in _RUN_STREAMS}
        run = {"epoch": 0, "best": {"mrr": -1.0, "epoch": 0}, "evals_since_best": 0}
    else:
        check_resume(resume, model_config, dataset)
        params, adam, run = resume.params, resume.adam, dict(resume.training_state)
        rngs = {name: _restore_rng(resume.rng_states[name]) for name in _RUN_STREAMS}
    log(f"model has {params.count()} parameters over {num_rel_aug} relations "
        f"({len(train_queries)} training queries)")

    metrics_path = os.path.join(out_dir, "metrics.jsonl") if out_dir else None
    logger = _MetricsLog(metrics_path, None if resume is None else run["epoch"])
    ckpt_path = os.path.join(out_dir, "checkpoint.bin") if out_dir else None
    best_path = os.path.join(out_dir, "best.bin") if out_dir else None

    def snapshot(path):
        if path is not None:
            rng_states = {name: gen.bit_generator.state for name, gen in rngs.items()}
            save_checkpoint(path, Checkpoint(model_config, train_config, params, adam,
                                             dataset.entity_vocab.tokens, dataset.relation_vocab.tokens,
                                             rng_states, run))

    def record(epoch, split, loss=None, grad_norm=None, report=None, wall_ms=None, timing=None):
        rec = {"epoch": epoch, "split": split, "loss": loss, "grad_norm": grad_norm,
               "mrr": None, "hits1": None, "hits3": None, "hits10": None,
               "wall_ms": wall_ms if train_config.log_timing else None,
               "queries_per_s": None, "fwd_ms": None, "bwd_ms": None, "opt_ms": None}
        if timing is not None and train_config.log_timing:
            rec.update(timing)
        if report is not None:
            rec.update(report.as_dict())
            rec.pop("count", None)
        logger.emit(rec)
        return rec

    plist = params.parameters()
    grads = [p.grad for p in plist]   # filled in place, never replaced

    def query_losses(batch, share: range) -> list:
        """Losses of the queries at ``share``'s positions in ``batch``, after their backward passes.

        Every query's negatives and noise are drawn, in batch order, so the
        streams stay in step in every process that runs a share of the batch.
        """
        nonlocal fwd_s, bwd_s
        losses = []
        for i, qi in enumerate(batch):
            q = train_queries[qi]
            negs = sample_negatives(rngs["negatives"], graph.num_entities, q.gold_tail,
                                    train_config.num_negatives)
            noise = make_noise(model_config, graph.num_entities,
                               rngs["noise"] if model_config.noise_mode == "per_forward" else None)
            if i not in share:
                continue
            t_fwd = time.perf_counter()
            tape = Tape()
            scores = forward(tape, graph, q, params, model_config, noise, exclude_query_edge=True)
            loss = negative_sampling_loss(tape, scores, q.gold_tail, negs)
            t_bwd = time.perf_counter()
            tape.backward(tape.scale(loss, 1.0 / len(batch)))
            losses.append(loss.item())
            t_end = time.perf_counter()
            fwd_s += t_bwd - t_fwd
            bwd_s += t_end - t_bwd
        return losses

    def replica(index: int, down: int, up: int) -> None:
        """Child ``index``'s part of the epoch's batches, as replica ``index + 1`` (see ``_Replicas``)."""
        for p in plist:
            p.deferred = []
        for batch in batches:
            share = _batch_shares(len(batch), processes)[index + 1]
            if not share:                  # only the epoch's last batch can leave a replica none
                return
            try:
                losses = query_losses(batch, share)
            except BaseException as exc:   # KeyboardInterrupt too: the caller re-raises it
                send(up, _FAILED, pickle.dumps(sendable_error(exc)))
                return
            send(up, _DONE, np.array(losses, dtype=np.float64))
            if not receive(down, *grads):
                return
            for p in plist:
                for contribution in p.deferred:
                    p.grad += contribution
                p.deferred.clear()
            send(up, *grads)
            if batch is batches[-1]:       # the caller alone steps after the epoch's last batch
                return
            # the last replica ended the chain with the batch's gradient
            if index + 1 != processes - 1 and not receive(down, *grads):
                return
            adam_step(plist, adam, train_config)

    stop = False
    for epoch in range(run["epoch"] + 1, train_config.epochs + 1):
        run["epoch"] = epoch
        t0 = time.perf_counter()
        order = rngs["shuffle"].permutation(len(train_queries))
        size = train_config.batch_size
        batches = [order[lo:lo + size] for lo in range(0, len(order), size)]
        epoch_loss = 0.0
        grad_norm = 0.0
        fwd_s = bwd_s = opt_s = 0.0
        processes = worker_count(min(size, len(order)))
        replicas = _Replicas(processes - 1, replica, "training replica")
        try:
            for batch_no, batch in enumerate(batches):
                params.zero_grad()
                losses = query_losses(batch, replicas.shares(len(batch))[0])
                t_wait = time.perf_counter()
                losses += replicas.fold(grads, len(batch))
                t_opt = time.perf_counter()
                bwd_s += t_opt - t_wait
                batch_loss = 0.0
                for loss in losses:   # in query order, as one process adds them
                    batch_loss += loss
                if not np.isfinite(batch_loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {batch_no}; "
                        f"largest parameter norms: {_param_norms(params)}")
                # One sweep per group gives both the finiteness check and the squared norm:
                # a non-finite entry makes the float64 sum non-finite (as does a norm
                # past float64's range, which counts as diverged too).
                sq_norm = 0.0
                for p in plist:
                    sq = float(np.einsum("ij,ij->", p.grad, p.grad, dtype=np.float64))
                    if not math.isfinite(sq):
                        raise TrainingDiverged(f"non-finite gradient in {p.name} at epoch {epoch}, "
                                               f"batch {batch_no}")
                    sq_norm += sq
                grad_norm = max(grad_norm, math.sqrt(sq_norm))
                if batch_no + 1 < len(batches):
                    replicas.share_final(grads)
                adam_step(plist, adam, train_config)
                opt_s += time.perf_counter() - t_opt
                epoch_loss += batch_loss
            replicas.close()
        except BaseException:
            replicas.kill()
            raise
        mean_loss = epoch_loss / len(order)
        wall = time.perf_counter() - t0
        record(epoch, "train", loss=mean_loss, grad_norm=grad_norm, wall_ms=round(wall * 1000.0, 3),
               timing={"queries_per_s": round(len(order) / wall, 3), "fwd_ms": round(fwd_s * 1000.0, 3),
                       "bwd_ms": round(bwd_s * 1000.0, 3), "opt_ms": round(opt_s * 1000.0, 3)})

        if epoch % train_config.eval_interval == 0 and valid_queries:
            t1 = time.perf_counter()
            report = evaluate(graph, valid_queries, params, model_config,
                              noise_seed=train_config.seed)
            wall = (time.perf_counter() - t1) * 1000.0
            record(epoch, "valid", report=report, wall_ms=round(wall, 3))
            log(f"epoch {epoch}: train loss {mean_loss:.4f} | valid {report}")
            if report.mrr > run["best"]["mrr"]:
                run.update(best={"mrr": report.mrr, "epoch": epoch}, evals_since_best=0)
                snapshot(best_path)
            else:
                run["evals_since_best"] += 1
            if train_config.target_valid_mrr is not None and report.mrr >= train_config.target_valid_mrr:
                log(f"target validation MRR {train_config.target_valid_mrr} reached; stopping")
                stop = True
            if run["evals_since_best"] >= train_config.patience:
                log(f"no improvement in {train_config.patience} evaluations; stopping")
                stop = True
        else:
            log(f"epoch {epoch}: train loss {mean_loss:.4f}")
        if stop:
            break

    snapshot(ckpt_path)
    return TrainResult(params, logger.records, run["best"], ckpt_path)
