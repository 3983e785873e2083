"""Operator surface: train, evaluate, predict, and diagnostics.

Run configs are flat ``key = value`` files with one section per module
(``[dataset]``, ``[model]``, ``[training]``, ``[run]``); command-line
``--set section.key=value`` flags override file values. Exit codes:
0 success, 1 internal failure, 2 user error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
import time
import typing

import numpy as np

from . import __version__
from .autodiff import Tape, grad_check
from .data import (
    DatasetError, DatasetSplit, ParseError, Query, Triplet, Vocabulary, VocabularyError, build_graph,
    load_dataset,
)
# unused here, but the benchmark tracer (kgbench/tracer.py) patches these names on this module
from .data import load_triplets, make_queries, query_filters  # noqa: F401
from .evaluation import evaluate
from .model import (
    ConfigError, ModelConfig, ModelParams, dense_attention_oracle, forward, ForwardState, pin_noise,
    score_query,
)
from .training import (
    CheckpointError, TrainConfig, check_resume, check_train_settings, load_checkpoint,
    negative_sampling_loss, sample_negatives, split_graph, split_queries, train,
)


class UserError(Exception):
    """Bad input from the operator (missing files, unknown tokens, bad config)."""


@dataclasses.dataclass
class DatasetSettings:
    path: str = ""
    mode: str = "auto"


@dataclasses.dataclass
class RunSettings:
    output_dir: str = ""
    verbosity: str = "info"


# The settings schema: config sections in file order, each parsed into its dataclass.
SECTIONS = {"dataset": DatasetSettings, "model": ModelConfig, "training": TrainConfig,
            "run": RunSettings}

# Default hyperparameter search grids per section: ``kgreason grid`` prints them and
# ``kgreason train`` warns about values outside them.
GRIDS = {
    "model": {"hidden_dim": (16, 32, 64), "attention_layers": (1, 2, 3),
              "query_layers": (1, 2, 3), "value_layers": (1, 2, 3)},
    "training": {"learning_rate": (1e-4, 5e-4, 1e-3, 5e-3), "weight_decay": (0.0, 1e-6, 1e-5, 1e-4),
                 "num_negatives": (2**6, 2**8, 2**10, 2**12, 2**14, 2**16)},
}


def _cast(raw: str, annotation):
    origin = typing.get_origin(annotation)
    if origin is typing.Union:  # Optional[...]
        inner = [a for a in typing.get_args(annotation) if a is not type(None)][0]
        return None if raw == "" else _cast(raw, inner)
    if annotation is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise UserError(f"expected a boolean, got {raw!r}")
    if annotation in (int, float):
        try:
            return annotation(raw)
        except ValueError:
            raise UserError(f"expected {annotation.__name__}, got {raw!r}") from None
    return raw


def load_run_config(path: str, overrides=()) -> dict:
    """Parse a config file into one settings object per section of ``SECTIONS``.

    Unknown sections or keys are rejected outright so typos cannot
    silently fall back to defaults.
    """
    if not os.path.exists(path):
        raise UserError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise UserError(f"malformed config file: {exc}") from None
    values = {section: dict(parser[section]) for section in parser.sections()}
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise UserError(f"--set expects section.key=value, got {item!r}")
        key, val = item.split("=", 1)
        section, name = key.split(".", 1)
        values.setdefault(section, {})[name] = val

    unknown_sections = set(values) - set(SECTIONS)
    if unknown_sections:
        raise UserError(f"unknown config sections: {sorted(unknown_sections)}")

    def build(section, cls):
        hints = typing.get_type_hints(cls)
        field_names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in values.get(section, {}).items():
            if key not in field_names:
                raise UserError(f"unknown key {key!r} in section [{section}]")
            kwargs[key] = _cast(raw, hints[key])
        return cls(**kwargs)

    return {section: build(section, cls) for section, cls in SECTIONS.items()}


def echo_config(out_dir: str, settings: dict) -> None:
    """Write the fully resolved effective config next to the run outputs."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for section, values in settings.items():
        parser[section] = {k: "" if v is None else str(v) for k, v in dataclasses.asdict(values).items()}
    with open(os.path.join(out_dir, "resolved.cfg"), "w", encoding="utf-8") as fh:
        parser.write(fh)


def _load_dataset(path: str, mode: str = "auto", entity_vocab=None, relation_vocab=None) -> DatasetSplit:
    """``load_dataset`` with a missing file reported as a user error."""
    try:
        return load_dataset(path, mode, entity_vocab, relation_vocab)
    except FileNotFoundError as exc:
        raise UserError(str(exc)) from None


def _relation_id(token: str, relation_vocab: Vocabulary) -> int:
    """Augmented relation id of a relation token; ``rel^-1`` names the inverse of ``rel``."""
    if token.endswith("^-1"):
        return relation_vocab.id(token[:-3]) + len(relation_vocab)
    return relation_vocab.id(token)


def _relation_token(relation: int, relation_vocab: Vocabulary) -> str:
    """Inverse of ``_relation_id``."""
    num_base = len(relation_vocab)
    if relation < num_base:
        return relation_vocab[relation]
    return relation_vocab[relation - num_base] + "^-1"


def grid_warnings(settings: dict) -> list[str]:
    """Values outside the default hyperparameter search grids (allowed, flagged)."""
    return [f"{name}={getattr(settings[section], name)} is outside the default grid {grid}"
            for section, grids in GRIDS.items() for name, grid in grids.items()
            if getattr(settings[section], name) not in grid]


def cmd_train(args) -> int:
    settings = load_run_config(args.config, args.set or [])
    settings["model"].validate()
    dataset_settings, run = settings["dataset"], settings["run"]
    if args.seed is not None:
        settings["training"].seed = args.seed
    if args.out:
        run.output_dir = args.out
    for warning in grid_warnings(settings):
        print(f"warning: {warning}", file=sys.stderr)
    if not dataset_settings.path:
        raise UserError("no dataset path configured")
    dataset = _load_dataset(dataset_settings.path, dataset_settings.mode)
    check_train_settings(dataset, settings["training"])
    resume = None
    if args.resume:
        resume = load_checkpoint(args.resume)
        check_resume(resume, settings["model"], dataset, args.resume)
    out_dir = run.output_dir or None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        echo_config(out_dir, settings)
    log = (lambda *a, **k: None) if run.verbosity == "quiet" else print
    result = train(dataset, settings["model"], settings["training"], out_dir=out_dir,
                   resume=resume, log=log)
    best = result.best
    print(f"done: best validation MRR {best['mrr']:.4f} at epoch {best['epoch']}"
          if best["mrr"] >= 0 else "done (no validation evaluations ran)")
    if result.checkpoint_path:
        print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _restore_for_inference(args):
    """The parameters of ``args.checkpoint`` and ``args.data`` parsed under its fixed vocabularies.

    A negative ``--noise-seed`` is refused first.
    """
    if args.noise_seed < 0:
        raise UserError(f"--noise-seed must be >= 0, got {args.noise_seed}")
    ck = load_checkpoint(args.checkpoint, moments=False)
    dataset = _load_dataset(args.data, entity_vocab=Vocabulary(ck.entity_tokens, frozen=True),
                            relation_vocab=Vocabulary(ck.relation_tokens, frozen=True))
    return ck, dataset


def cmd_eval(args) -> int:
    ck, dataset = _restore_for_inference(args)
    graph, entity_vocab = split_graph(dataset, args.split)
    [queries] = split_queries(dataset, args.split)
    t0 = time.perf_counter()
    out = evaluate(graph, queries, ck.params, ck.model_config, noise_seed=args.noise_seed,
                   raw=args.raw, per_query=args.per_query)
    wall = (time.perf_counter() - t0) * 1000
    if args.per_query:
        report, records = out
        for rec in records:
            print(json.dumps({"head": entity_vocab[rec["head"]],
                              "relation": _relation_token(rec["relation"], dataset.relation_vocab),
                              "gold": entity_vocab[rec["gold"]], "rank": rec["rank"]}, sort_keys=True))
    else:
        report = out
    print(json.dumps({"split": args.split, "wall_ms": round(wall, 3), **report.as_dict()}, sort_keys=True))
    if args.noise_std and ck.model_config.noise_mode != "disabled":
        mrrs = [report.mrr]
        for offset in (1, 2):
            extra = evaluate(graph, queries, ck.params, ck.model_config,
                             noise_seed=args.noise_seed + offset, raw=args.raw)
            mrrs.append(extra.mrr)
        print(json.dumps({"mrr_mean": float(np.mean(mrrs)), "mrr_std": float(np.std(mrrs)),
                          "noise_seeds": [args.noise_seed + i for i in range(3)]}, sort_keys=True))
    return 0


def cmd_grid(args) -> int:
    """Print the default hyperparameter search grids, one JSON object."""
    print(json.dumps({section: {k: list(v) for k, v in grids.items()} for section, grids in GRIDS.items()},
                     sort_keys=True))
    return 0


def _inference_query(args):
    """Checkpoint, training graph, vocabulary and the (head, relation) query of ``args``."""
    ck, dataset = _restore_for_inference(args)
    graph, entity_vocab = split_graph(dataset, "train")
    query = Query(entity_vocab.id(args.head), _relation_id(args.relation, dataset.relation_vocab),
                  0, frozenset({0}))
    return ck, graph, entity_vocab, query


def cmd_predict(args) -> int:
    if args.k < 1:
        raise UserError(f"-k must be at least 1, got {args.k}")
    ck, graph, entity_vocab, query = _inference_query(args)
    k = args.k
    if k > graph.num_entities:
        print(f"warning: k={k} clipped to {graph.num_entities} entities", file=sys.stderr)
        k = graph.num_entities
    scores = score_query(graph, query, ck.params, pin_noise(ck.model_config, args.noise_seed))
    top = np.argsort(-scores, kind="stable")[:k]
    for entity in top:
        print(json.dumps({"tail": entity_vocab[int(entity)], "score": float(scores[entity])}))
    return 0


# --- diagnostics -------------------------------------------------------------


def kernel_error_sweep(samples: int, dim: int, seed: int):
    """Empirical max |approximate - exponential| over unit pairs.

    Includes a deterministic ramp through near-parallel pairs so the sweep
    covers the worst case (cosine -> 1), where the gap approaches e - 2.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((samples, dim))
    v = rng.standard_normal((samples, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    cos = np.sum(u * v, axis=1)
    ramp = np.linspace(-1.0, 1.0, 2001)
    cos = np.concatenate([cos, ramp])
    gaps = np.abs((1.0 + cos) - np.exp(cos))
    worst = float(np.max(gaps))
    return worst, float(np.e / 2), float(np.e - 2)


def _toy_graph_and_model(seed: int = 0):
    """Fixed 6-entity / 3-relation fixture used by the gradient audit.

    Parameters are nudged off their init point: zero biases plus all-zero
    input features park ReLU inputs exactly on the kink, where central
    differences are one-sided and meaningless. A generic point avoids that.
    """
    trips = [Triplet(0, 0, 1), Triplet(1, 1, 2), Triplet(2, 2, 3), Triplet(3, 0, 4),
             Triplet(4, 1, 5), Triplet(5, 2, 0), Triplet(0, 1, 3), Triplet(1, 2, 4)]
    graph = build_graph(trips, 6, 3, add_inverse=True)
    config = ModelConfig(hidden_dim=8, attention_layers=1, query_layers=1, value_layers=1,
                         precision="float64", noise_mode="disabled")
    params = ModelParams(config, 6, np.random.default_rng(seed))
    jitter = np.random.default_rng(seed + 1)
    for p in params.parameters():
        p.data += 0.2 * jitter.standard_normal(p.data.shape)
    return graph, config, params


def cmd_diagnose(args) -> int:
    if args.subcommand == "kernel-error":
        worst, bound, analytic_sup = kernel_error_sweep(args.samples, args.dim, args.seed)
        ok = worst <= bound
        print(f"max |approx - exp| over {args.samples} random unit pairs (+ramp): {worst:.6f}")
        print(f"bound e/2 = {bound:.6f}; analytic sup e-2 = {analytic_sup:.6f}")
        print("PASS" if ok else "FAIL")
        return 0 if ok else 1

    if args.subcommand == "gradcheck":
        graph, config, params = _toy_graph_and_model(args.seed)
        noise = np.random.default_rng(args.seed + 1).standard_normal((6, config.hidden_dim))
        rng_negs = np.random.default_rng(args.seed + 2)
        negs = sample_negatives(rng_negs, 6, 1, 3)
        query = Query(0, 0, 1, frozenset({1}))

        def loss_fn():
            tape = Tape()
            scores = forward(tape, graph, query, params, config, noise, exclude_query_edge=True)
            return tape, negative_sampling_loss(tape, scores, query.gold_tail, negs)

        report = grad_check(loss_fn, params.parameters(), step=1e-5, tolerance=1e-4)
        for name in sorted(report.errors, key=report.errors.get, reverse=True)[:10]:
            print(f"{name}: {report.errors[name]:.3e}")
        print(f"max relative error {report.max_error:.3e} over {len(report.errors)} parameter groups")
        print("PASS" if report.passed else "FAIL")
        return 0 if report.passed else 1

    if args.subcommand == "wl":
        from .wl import rawl2_refine
        graph, entity_vocab = split_graph(_load_dataset(args.data), "train")
        coloring = rawl2_refine(graph, entity_vocab.id(args.head), rounds=args.rounds)
        for color, members in sorted(coloring.classes().items()):
            print(json.dumps({"color": color, "size": len(members),
                              "entities": [entity_vocab[u] for u in members[:20]]}))
        print(f"{len(coloring.classes())} classes after {coloring.rounds} rounds "
              f"(stable: {coloring.stable})")
        return 0

    if args.subcommand == "attention":
        if args.top < 1:
            raise UserError(f"--top must be at least 1, got {args.top}")
        ck, graph, entity_vocab, query = _inference_query(args)
        config = pin_noise(ck.model_config, args.noise_seed)
        state = ForwardState()
        tape = Tape(grad=False)
        scores = forward(tape, graph, query, ck.params, config, state=state)
        answer = int(np.argmax(scores.data[:, 0]))
        ztilde = state.query_reprs[-1]
        zhat = state.value_reprs[-1]
        _, attn = dense_attention_oracle(ztilde, zhat, ck.params.layers[-1].head, config.kernel_mode)
        row = attn[answer].copy()
        row[answer] = -1.0  # exclude the answer itself from its own top list
        top = np.argsort(-row, kind="stable")[:args.top]
        print(json.dumps({"answer": entity_vocab[answer], "score": float(scores.data[answer, 0])}))
        for entity in top:
            print(json.dumps({"entity": entity_vocab[int(entity)], "weight": float(attn[answer, entity])}))
        return 0

    if args.subcommand == "scaling":
        try:
            sizes = [int(s) for s in args.sizes.split(",")]
        except ValueError:
            sizes = []
        if len(sizes) < 2 or min(sizes) < 2:
            raise UserError(f"--sizes expects two or more comma-separated entity counts of at least 2, "
                            f"got {args.sizes!r}")
        times = scaling_measurements(sizes, dim=args.dim, reps=args.reps, seed=args.seed)
        r2 = linear_fit_r2(sizes, times)
        for n, t in zip(sizes, times):
            print(f"|V|={n}: {t * 1000:.2f} ms")
        print(f"linear fit R^2 = {r2:.5f}")
        print("PASS" if r2 >= 0.98 else "FAIL")
        return 0 if r2 >= 0.98 else 1

    raise UserError(f"unknown diagnose subcommand {args.subcommand!r}")


def scaling_measurements(sizes, dim=32, reps=3, seed=0):
    """Forward wall-clock on synthetic chains of each size, the fastest of ``reps``.

    Reps run round-robin across sizes, so a brief stall of a shared machine
    lands on one rep of several sizes rather than on every rep of one; the
    minimum is the estimate such a stall moves least.
    """
    config = ModelConfig(hidden_dim=dim, attention_layers=2, query_layers=2, value_layers=2,
                         precision="float64", noise_mode="fixed_seed", noise_seed=seed)
    params = ModelParams(config, 2, np.random.default_rng(seed))
    cases = []
    for n in sizes:
        trips = [Triplet(i, 0, i + 1) for i in range(n - 1)]
        graph = build_graph(trips, n, 1, add_inverse=True)
        query = Query(0, 0, n - 1, frozenset({n - 1}))
        score_query(graph, query, params, config)  # warm up allocations
        cases.append((graph, query))
    times = [math.inf] * len(cases)
    for _ in range(reps):
        for i, (graph, query) in enumerate(cases):
            t0 = time.perf_counter()
            score_query(graph, query, params, config)
            times[i] = min(times[i], time.perf_counter() - t0)
    return times


def linear_fit_r2(xs, ys) -> float:
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    total = y - y.mean()
    return float(1.0 - (resid @ resid) / (total @ total))


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgreason",
                                     description="Knowledge-graph reasoning transformer")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", default=None)
    p.add_argument("--set", action="append", metavar="section.key=value")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "valid", "test"], default="test")
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--per-query", action="store_true")
    p.add_argument("--raw", action="store_true", help="disable filtered ranking")
    p.add_argument("--noise-std", action="store_true",
                   help="also report the MRR spread over 3 noise seeds")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="print the default hyperparameter search grids")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("predict", help="top-k tails for a (head, relation) pair")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--relation", required=True, help="relation token; append ^-1 for the inverse")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--noise-seed", type=int, default=0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("diagnose", help="self-checks and inspection tools")
    d = p.add_subparsers(dest="subcommand", required=True)

    q = d.add_parser("kernel-error", help="kernel approximation error sweep")
    q.add_argument("--samples", type=int, default=100000)
    q.add_argument("--dim", type=int, default=16)
    q.add_argument("--seed", type=int, default=0)

    q = d.add_parser("gradcheck", help="finite-difference audit on a toy graph")
    q.add_argument("--seed", type=int, default=0)

    q = d.add_parser("wl", help="head-conditioned color classes of a dataset graph")
    q.add_argument("--data", required=True)
    q.add_argument("--head", required=True)
    q.add_argument("--rounds", type=int, default=None)

    q = d.add_parser("attention", help="top attended entities for a query (dense oracle)")
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--head", required=True)
    q.add_argument("--relation", required=True, help="relation token; append ^-1 for the inverse")
    q.add_argument("--top", type=int, default=10)
    q.add_argument("--noise-seed", type=int, default=0)

    q = d.add_parser("scaling", help="forward wall-clock vs entity count")
    q.add_argument("--sizes", default="1000,2000,4000,8000")
    q.add_argument("--dim", type=int, default=32)
    q.add_argument("--reps", type=int, default=3)
    q.add_argument("--seed", type=int, default=0)

    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UserError, ConfigError, CheckpointError, DatasetError, ParseError, VocabularyError) as exc:
        # bad configs, checkpoints, data files or tokens: all the operator's to fix
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BrokenPipeError, KeyboardInterrupt):
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
