"""Layer-by-layer tracing of kgreason, installed from outside the program.

The tracer swaps timing wrappers into the places where callers look
functions up (``kgreason.cli.train``, ``kgreason.training.forward``, ...)
and onto the ``Tape`` primitive methods of the class, so nothing under
``src/`` changes. Spans (name, start, end, parent span, operation id) are
kept in memory and written out at the end of the run. Primitive tape ops
are too many to keep one span each: their time and counts are summed onto
the span that is open when they run.

A span's self time is its duration minus its child spans and the
primitive ops run directly inside it. The self times of one operation's
spans partition its root span, so the per-layer rows sum to the root.
"""

from __future__ import annotations

import importlib
import json
import os
import time

LAYERS = ("cli", "data", "model", "autodiff", "training", "evaluation")

# (module[:class], attribute, span name). The span name's first component
# is the layer of the callee, whoever calls it.
SITES = (
    ("kgreason.cli", "cmd_train", "cli.cmd_train"),
    ("kgreason.cli", "cmd_eval", "cli.cmd_eval"),
    ("kgreason.cli", "cmd_predict", "cli.cmd_predict"),
    ("kgreason.cli", "load_dataset", "data.load_dataset"),
    ("kgreason.cli", "load_triplets", "data.load_triplets"),
    ("kgreason.data", "load_triplets", "data.load_triplets"),
    ("kgreason.cli", "build_graph", "data.build_graph"),
    ("kgreason.training", "build_graph", "data.build_graph"),
    ("kgreason.cli", "query_filters", "data.query_filters"),
    ("kgreason.training", "query_filters", "data.query_filters"),
    ("kgreason.cli", "make_queries", "data.make_queries"),
    ("kgreason.training", "make_queries", "data.make_queries"),
    ("kgreason.data:KnowledgeGraph", "excluded_edge_endpoints", "data.excluded_edge_endpoints"),
    ("kgreason.cli", "train", "training.train"),
    ("kgreason.cli", "load_checkpoint", "training.load_checkpoint"),
    ("kgreason.training", "save_checkpoint", "training.save_checkpoint"),
    ("kgreason.training", "sample_negatives", "training.sample_negatives"),
    ("kgreason.training", "negative_sampling_loss", "training.negative_sampling_loss"),
    ("kgreason.training", "adam_step", "training.adam_step"),
    ("kgreason.training", "forward", "model.forward"),
    ("kgreason.training", "make_noise", "model.make_noise"),
    ("kgreason.training", "evaluate", "evaluation.evaluate"),
    ("kgreason.cli", "evaluate", "evaluation.evaluate"),
    ("kgreason.evaluation", "score_query", "model.score_query"),
    ("kgreason.evaluation", "rank_answer", "evaluation.rank_answer"),
    ("kgreason.evaluation", "query_filter_mask", "evaluation.query_filter_mask"),
    ("kgreason.evaluation", "compute_metrics", "evaluation.compute_metrics"),
    ("kgreason.cli", "score_query", "model.score_query"),
    ("kgreason.model", "forward", "model.forward"),
    ("kgreason.model", "make_noise", "model.make_noise"),
    ("kgreason.model", "transformer_layer", "model.transformer_layer"),
    ("kgreason.model", "rmpnn_forward", "model.rmpnn_forward"),
    ("kgreason.model", "linear_attention", "model.linear_attention"),
    ("kgreason.model:Mlp", "apply", "model.mlp"),
    ("kgreason.autodiff:Tape", "backward", "autodiff.backward"),
)

PRIMITIVES = (
    "matmul", "add", "mul", "scale", "transpose", "reshape", "concat_columns", "relu",
    "sigmoid", "exp", "log", "reciprocal", "clip", "sum", "mean_rows", "layer_norm",
    "row_l2_normalize", "gather_rows", "scatter_add_rows",
)

# Ops that touch an |E|-row operand when called on the graph's edge lists.
EDGE_PRIMITIVES = ("gather_rows", "mul", "scatter_add_rows")


def _owner(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span recorder; ``install`` patches kgreason, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.prim_s: list[float] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.num_edges = -1
        self.ops: list[dict] = []     # per-operation counters, filled by begin_op
        self.counters: dict = {}      # the current operation's entry of ops
        self._saved: list[tuple] = []

    # --- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.prim_s.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self) -> None:
        """Start a new operation; every span until the next call shares its id."""
        self.op_id += 1
        self.counters = {"queries": 0, "prim_calls": 0, "edge_s": 0.0, "dense_s": 0.0,
                         "edge_bytes": 0, "tape_nodes": 0, "checkpoint_bytes": 0}
        self.ops.append(self.counters)

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # --- patching -----------------------------------------------------------

    def _hook(self, name: str, args):
        if name == "model.forward":
            self.num_edges = args[1].num_edges
        elif name == "autodiff.backward":
            self.counters["tape_nodes"] += len(args[0])
        elif name in ("training.save_checkpoint", "training.load_checkpoint"):
            return args[0]
        return None

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            path = tracer._hook(name, args)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if path is not None and os.path.exists(path):
                    tracer.counters["checkpoint_bytes"] += os.path.getsize(path)

        return traced

    def _wrap_primitive(self, op: str, fn):
        tracer = self
        perf_counter = time.perf_counter
        edge_op = op in EDGE_PRIMITIVES
        tensor_cls = _owner("kgreason.autodiff:Tensor")

        def traced(tape, *args, **kwargs):
            t0 = perf_counter()
            out = fn(tape, *args, **kwargs)
            dt = perf_counter() - t0
            stack = tracer.stack
            if stack:
                tracer.prim_s[stack[-1]] += dt
            counters = tracer.counters
            counters["prim_calls"] += 1
            if edge_op:
                operands = [a for a in args if isinstance(a, tensor_cls)]
                edges = tracer.num_edges
                if out.data.shape[0] == edges or any(a.data.shape[0] == edges for a in operands):
                    counters["edge_s"] += dt
                    counters["edge_bytes"] += sum(a.data.nbytes for a in operands) + out.data.nbytes
                    return out
            counters["dense_s"] += dt
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target, attr, name in SITES:
            owner = _owner(target)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        tape_cls = _owner("kgreason.autodiff:Tape")
        for op in PRIMITIVES:
            original = tape_cls.__dict__[op]
            self._saved.append((tape_cls, op, original))
            setattr(tape_cls, op, self._wrap_primitive(op, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # --- derivation -------------------------------------------------------

    def per_op(self) -> list[dict]:
        """Per-operation inclusive and self times, keyed by span name and layer."""
        n = len(self.names)
        child_s = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        results = [{"incl": {}, "self": dict.fromkeys(LAYERS, 0.0), "count": {},
                    "scorer_s": 0.0, "ffn_ln_s": 0.0, "eval_score_s": 0.0, **counters}
                   for counters in self.ops]
        nested = ("model.rmpnn_forward", "model.linear_attention")
        for i in range(n):
            res = results[self.op[i]]
            name = self.names[i]
            dur = self.end[i] - self.start[i]
            res["incl"][name] = res["incl"].get(name, 0.0) + dur
            res["count"][name] = res["count"].get(name, 0) + 1
            res["self"][name.split(".", 1)[0]] += dur - child_s[i] - self.prim_s[i]
            res["self"]["autodiff"] += self.prim_s[i]
            p = self.parent[i]
            parent_name = self.names[p] if p >= 0 else None
            if name == "model.mlp" and parent_name == "model.forward":
                res["scorer_s"] += dur
            if name == "model.transformer_layer":
                res["ffn_ln_s"] += dur
            elif name in nested and parent_name == "model.transformer_layer":
                res["ffn_ln_s"] -= dur
            if name == "model.score_query" and parent_name == "evaluation.evaluate":
                res["eval_score_s"] += dur
        return results

    def write(self, path: str) -> None:
        """Dump every span as [name, start_us, end_us, parent, op] rows."""
        names = sorted(set(self.names))
        code = {name: i for i, name in enumerate(names)}
        t0 = min(self.start) if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": names, "columns": ["name", "start_us", "end_us",
                                                             "parent", "op"]}) + "\n")
            for i in range(len(self.names)):
                fh.write(json.dumps([code[self.names[i]], round((self.start[i] - t0) * 1e6, 1),
                                     round((self.end[i] - t0) * 1e6, 1), self.parent[i],
                                     self.op[i]]) + "\n")


def _total(results, key):
    return sum(r[key] for r in results)


def _incl(results, *names):
    return sum(r["incl"].get(name, 0.0) for r in results for name in names)


def _calls(results, name):
    return sum(r["count"].get(name, 0) for r in results)


def layer_metrics(results: list[dict]):
    """(common, specific, table): per-layer metrics derived from per-op results.

    ``common`` holds the metrics every workload reaches. ``specific`` holds
    those of layers that only some workloads reach (backward, the optimizer,
    ranking, ...), which read zero elsewhere. ``table`` is self ms per
    operation by layer.
    """
    ops = len(results)
    queries = max(_total(results, "queries"), 1)

    def per_query_ms(seconds):
        return 1000.0 * seconds / queries

    def per_op_ms(seconds):
        return 1000.0 * seconds / ops

    self_by_layer = {layer: sum(r["self"][layer] for r in results) for layer in LAYERS}
    common = {
        "autodiff.edge_ms_per_query": per_query_ms(_total(results, "edge_s")),
        "autodiff.dense_ms_per_query": per_query_ms(_total(results, "dense_s")),
        "autodiff.ops_per_query": _total(results, "prim_calls") / queries,
        "autodiff.tape_nodes_per_query": _total(results, "tape_nodes") / queries,
        "autodiff.edge_bytes_per_query": _total(results, "edge_bytes") / queries,
        "model.forward_ms_per_query": per_query_ms(_incl(results, "model.forward")),
        "model.rmpnn_ms_per_query": per_query_ms(_incl(results, "model.rmpnn_forward")),
        "model.attention_ms_per_query": per_query_ms(_incl(results, "model.linear_attention")),
        "model.ffn_ln_ms_per_query": per_query_ms(_total(results, "ffn_ln_s")),
        "model.scorer_ms_per_query": per_query_ms(_total(results, "scorer_s")),
        "model.noise_ms_per_query": per_query_ms(_incl(results, "model.make_noise")),
        "training.checkpoint_io_ms": per_op_ms(
            _incl(results, "training.save_checkpoint", "training.load_checkpoint")),
        "training.checkpoint_bytes": _total(results, "checkpoint_bytes") / ops,
        "evaluation.forwards_per_query": _calls(results, "model.forward") / queries,
        "data.load_triplets_ms": per_op_ms(_incl(results, "data.load_triplets")),
        "data.build_graph_ms": per_op_ms(_incl(results, "data.build_graph")),
        "data.filters_queries_ms": per_op_ms(
            _incl(results, "data.query_filters", "data.make_queries")),
        "cli.glue_ms_per_request": per_op_ms(self_by_layer["cli"]),
        "data.self_ms_per_op": per_op_ms(self_by_layer["data"]),
        "model.self_ms_per_op": per_op_ms(self_by_layer["model"]),
        "autodiff.self_ms_per_op": per_op_ms(self_by_layer["autodiff"]),
        "training.self_ms_per_op": per_op_ms(self_by_layer["training"]),
    }
    steps = max(_calls(results, "training.adam_step"), 1)
    specific = {
        "autodiff.backward_ms_per_query": per_query_ms(_incl(results, "autodiff.backward")),
        "training.negatives_ms_per_query": per_query_ms(_incl(results, "training.sample_negatives")),
        "training.loss_ms_per_query": per_query_ms(_incl(results, "training.negative_sampling_loss")),
        "training.adam_ms_per_step": 1000.0 * _incl(results, "training.adam_step") / steps,
        "training.checkpoint_save_ms": per_op_ms(_incl(results, "training.save_checkpoint")),
        "training.checkpoint_load_ms": per_op_ms(_incl(results, "training.load_checkpoint")),
        "evaluation.score_ms_per_query": per_query_ms(_total(results, "eval_score_s")),
        "evaluation.rank_ms_per_query": per_query_ms(
            _incl(results, "evaluation.rank_answer", "evaluation.query_filter_mask")),
        "evaluation.self_ms_per_op": per_op_ms(self_by_layer["evaluation"]),
        "data.exclude_ms_per_query": per_query_ms(_incl(results, "data.excluded_edge_endpoints")),
    }
    table = {layer: per_op_ms(self_by_layer[layer]) for layer in LAYERS}
    return common, specific, table


EXACT_COUNTS = ("autodiff.ops_per_query", "autodiff.tape_nodes_per_query",
                "autodiff.edge_bytes_per_query", "evaluation.forwards_per_query",
                "training.checkpoint_bytes")
