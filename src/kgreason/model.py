"""The reasoning model: relational message passing, kernel attention, scoring.

A forward pass is conditioned on one query (head entity, query relation).
Each transformer layer runs two relational message-passing networks over
the full graph, one producing the attention's query/key inputs and one
(head-conditioned) producing its values, then mixes all entities with a
kernelized attention whose factored form costs O(|V| d^2 + |E| d).

The approximate kernel is ``1 + <q, k>`` on row-normalized projections,
the first-order surrogate for ``exp(<q, k>)``; the exponential kernel is
kept behind ``kernel_mode="full_exponential"`` and runs the quadratic
dense path (small graphs only).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import UserError
from .autodiff import Parameter, Tape, Tensor
from .data import KnowledgeGraph, Query

MLP_DEPTH = 3          # linear layers in each message-passing round's update network
FFN_DEPTH = 2          # linear layers in each transformer layer's feed-forward block
FFN_MULTIPLIER = 4     # feed-forward hidden width, in multiples of hidden_dim
LAYER_NORM_EPS = 1e-5
NORM_EPS = 1e-12       # guards the row normalization of attention queries and keys
DENSE_GUARD = 4096     # largest entity count the quadratic dense attention accepts

class ConfigError(UserError):
    """A model or training setting is out of range or inconsistent with the data."""


class DenseScopeError(UserError):
    """The dense quadratic attention path refused an oversized graph."""


@dataclass
class ModelConfig:
    hidden_dim: int = 32
    attention_layers: int = 2
    query_layers: int = 2
    value_layers: int = 2
    kernel_mode: str = "approximate"
    noise_mode: str = "per_forward"
    noise_seed: int = 0
    precision: str = "float64"

    def validate(self) -> None:
        for name in ("hidden_dim", "attention_layers", "query_layers", "value_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kernel_mode not in ("approximate", "full_exponential"):
            raise ConfigError(f"unknown kernel_mode {self.kernel_mode!r}")
        if self.noise_mode not in ("per_forward", "fixed_seed", "disabled"):
            raise ConfigError(f"unknown noise_mode {self.noise_mode!r}")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(f"unknown precision {self.precision!r}")
        if self.noise_seed < 0:
            raise ConfigError(f"noise_seed must be >= 0, got {self.noise_seed}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32


@dataclass
class Mlp:
    """Stack of linear layers with ReLU between them (last layer linear)."""

    weights: list
    biases: list

    def apply(self, tape: Tape, x: Tensor) -> Tensor:
        return tape.mlp(x, self.weights, self.biases)

    def parameters(self):
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b


@dataclass
class RmpnnRound:
    retain: Parameter          # per-dimension gate on the previous state, init 1
    update: Mlp                # layer-specific update network

    def parameters(self):
        yield self.retain
        yield from self.update.parameters()


@dataclass
class RmpnnParams:
    """One relational message-passing network (either query- or value-side).

    ``rel_w``/``rel_b`` hold the per-edge-relation projections of the query
    relation embedding, shared across this network's rounds: column block r
    of ``rel_w`` is the d x d matrix for edge relation r.
    """

    proj_w: Parameter          # input projection, (2d, d)
    proj_b: Parameter
    rel_w: Parameter           # (d, R*d)
    rel_b: Parameter           # (R, d)
    rounds: list

    def parameters(self):
        yield self.proj_w
        yield self.proj_b
        yield self.rel_w
        yield self.rel_b
        for r in self.rounds:
            yield from r.parameters()


@dataclass
class LayerParams:
    query_net: RmpnnParams     # the attention's query/key inputs
    value_net: RmpnnParams
    w1: Parameter              # query projection
    b1: Parameter
    w2: Parameter              # key projection
    b2: Parameter
    ln1_gain: Parameter
    ln1_bias: Parameter
    ln2_gain: Parameter
    ln2_bias: Parameter
    ffn: Mlp

    def parameters(self):
        yield from self.query_net.parameters()
        yield from self.value_net.parameters()
        yield from (self.w1, self.b1, self.w2, self.b2)
        yield from (self.ln1_gain, self.ln1_bias, self.ln2_gain, self.ln2_bias)
        yield from self.ffn.parameters()


class ModelParams:
    """All learnable state, addressable by stable name paths.

    Weights are drawn from ``rng`` in a fixed order; biases start at zero and
    gates at one. With ``source`` instead, every tensor is
    ``source(name, shape)``, used as it is (a restored checkpoint's arrays),
    and ``grads=False`` leaves the parameters without gradient buffers.
    """

    def __init__(self, config: ModelConfig, num_relations: int, rng: Optional[np.random.Generator] = None,
                 *, source: Optional[Callable[[str, tuple], np.ndarray]] = None, grads: bool = True):
        config.validate()
        d = config.hidden_dim
        dt = config.dtype
        std = 1.0 / np.sqrt(d)
        self.num_relations = num_relations
        self.config = config

        def tensor(name, rows, cols, fill):
            if source is not None:
                data = source(name, (rows, cols))
            elif fill is None:
                data = rng.normal(0.0, std, size=(rows, cols)).astype(dt)
            else:
                data = np.full((rows, cols), fill, dtype=dt)
            return Parameter(name, data, grad=grads)

        def weight(name, rows, cols):
            return tensor(name, rows, cols, None)

        def zeros(name, rows, cols):
            return tensor(name, rows, cols, 0.0)

        def ones(name, rows, cols):
            return tensor(name, rows, cols, 1.0)

        def mlp(prefix, dims):
            ws = [weight(f"{prefix}.w{i}", dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
            bs = [zeros(f"{prefix}.b{i}", 1, dims[i + 1]) for i in range(len(dims) - 1)]
            return Mlp(ws, bs)

        def rmpnn(prefix, num_rounds):
            rounds = [
                RmpnnRound(
                    ones(f"{prefix}.round{i}.retain", 1, d),
                    mlp(f"{prefix}.round{i}.update", [d] * (MLP_DEPTH + 1)),
                )
                for i in range(num_rounds)
            ]
            return RmpnnParams(
                proj_w=weight(f"{prefix}.proj_w", 2 * d, d),
                proj_b=zeros(f"{prefix}.proj_b", 1, d),
                rel_w=weight(f"{prefix}.rel_w", d, num_relations * d),
                rel_b=zeros(f"{prefix}.rel_b", num_relations, d),
                rounds=rounds,
            )

        self.relations = weight("relations", num_relations, d)
        self.layers = []
        for li in range(config.attention_layers):
            pre = f"layer{li}"
            hp = f"{pre}.head0"   # the name of the retired single head: checkpoints' tensor-table keys
            ffn_dims = [d] + [FFN_MULTIPLIER * d] * (FFN_DEPTH - 1) + [d]
            self.layers.append(LayerParams(
                query_net=rmpnn(f"{hp}.query", config.query_layers),
                value_net=rmpnn(f"{hp}.value", config.value_layers),
                w1=weight(f"{hp}.w1", d, d),
                b1=zeros(f"{hp}.b1", 1, d),
                w2=weight(f"{hp}.w2", d, d),
                b2=zeros(f"{hp}.b2", 1, d),
                ln1_gain=ones(f"{pre}.ln1.gain", 1, d),
                ln1_bias=zeros(f"{pre}.ln1.bias", 1, d),
                ln2_gain=ones(f"{pre}.ln2.gain", 1, d),
                ln2_bias=zeros(f"{pre}.ln2.bias", 1, d),
                ffn=mlp(f"{pre}.ffn", ffn_dims),
            ))
        self.scorer = mlp("scorer", [d, d, 1])

    def parameters(self) -> list[Parameter]:
        out = [self.relations]
        for layer in self.layers:
            out.extend(layer.parameters())
        out.extend(self.scorer.parameters())
        return out

    def count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


# --- message passing -------------------------------------------------------


def relation_transform(tape: Tape, relations: Parameter, rq: int, net: RmpnnParams) -> Tensor:
    """Per-relation message vectors r_hat[r] = R[rq] @ W_r + b_r, as an (R, d) block."""
    num_rel, d = net.rel_b.shape
    rq_row = tape.gather_rows(relations, [rq])
    return tape.add(tape.reshape(tape.matmul(rq_row, net.rel_w), (num_rel, d)), net.rel_b)


def rmpnn_forward(tape: Tape, graph: KnowledgeGraph, x: Tensor, rq: int,
                  relations: Parameter, net: RmpnnParams, init_extra: np.ndarray,
                  exclude=None) -> Tensor:
    """Run one relational MPNN: project [x, extra], then message/update rounds.

    The query-side network's ``init_extra`` is per-entity Gaussian noise;
    the value-side network's is the head indicator. Messages flow along
    stored facts r(v, u) from v into u; each round aggregates
    ``sum z[v] * r_hat[r]`` into u with ``Tape.relational_aggregate``.
    ``exclude`` is an optional (sources, relations, targets) triple of edge
    copies that every round leaves out of its aggregate (used to drop a
    training query's own edge without touching the full edge list).
    """
    z = tape.mlp(tape.concat_columns(x, tape.tensor(init_extra)), [net.proj_w], [net.proj_b])
    rhat = relation_transform(tape, relations, rq, net)
    for rnd in net.rounds:
        agg = tape.relational_aggregate(z, rhat, graph, exclude)
        z = rnd.update.apply(tape, tape.add(tape.mul(z, rnd.retain), agg))
    return z


# --- attention -------------------------------------------------------------


def _projected_qk(tape: Tape, ztilde: Tensor, layer: LayerParams):
    q = tape.row_l2_normalize(tape.mlp(ztilde, [layer.w1], [layer.b1]), NORM_EPS)
    k = tape.row_l2_normalize(tape.mlp(ztilde, [layer.w2], [layer.b2]), NORM_EPS)
    return q, k


def attention_keys(tape: Tape, ztilde: Tensor, layer: LayerParams):
    """The key side of ``linear_attention``: ``(q, k, denom)``, which depend on ``ztilde`` only.

    ``denom = Q (K^T 1) / |V| + 2`` is each row's normalizer.
    """
    n = ztilde.shape[0]
    dt = ztilde.data.dtype
    q, k = _projected_qk(tape, ztilde, layer)
    colsum_k = tape.scale(tape.mean_rows(k), n)                 # 1^T K, (1, d)
    qk1 = tape.matmul(q, tape.transpose(colsum_k))              # Q (K^T 1), (n, 1)
    denom = tape.add(tape.scale(qk1, 1.0 / n), tape.tensor(np.full((1, 1), 2.0, dtype=dt)))
    return q, k, denom


def linear_attention(tape: Tape, ztilde: Tensor, zhat: Tensor, layer: LayerParams,
                     keys=None) -> Tensor:
    """Kernelized all-pair mixing in factored O(|V| d^2) order.

    Equivalent to dense attention with effective score
    ``kernel(q_u, k_v) + |V| * [u == v]`` row-normalized: the value term
    outside the division carries the |V|-weighted self contribution.
    ``keys`` is ``attention_keys(tape, ztilde, layer)`` when the caller
    already holds it; otherwise it is computed here, and ``ztilde`` is read
    for nothing else.
    """
    n = zhat.shape[0]
    if n == 0:
        return zhat
    q, k, denom = attention_keys(tape, ztilde, layer) if keys is None else keys
    v = zhat
    ktv = tape.matmul(tape.transpose(k), v)                     # K^T V, (d, d)
    qktv = tape.matmul(q, ktv)                                  # (n, d)
    del q, k, keys
    colsum_v = tape.scale(tape.mean_rows(v), n)                 # 1^T V, (1, d)
    mixed = tape.add(v, tape.scale(tape.add(qktv, colsum_v), 1.0 / n))
    return tape.mul(mixed, tape.reciprocal(denom))


def dense_attention(tape: Tape, ztilde: Tensor, zhat: Tensor, layer: LayerParams) -> Tensor:
    """Explicit |V| x |V| exponential-kernel attention (differentiable); the full-exponential route."""
    n = ztilde.shape[0]
    if n > DENSE_GUARD:
        raise DenseScopeError(f"dense attention takes at most {DENSE_GUARD} entities; the graph has {n}")
    dt = ztilde.data.dtype
    q, k = _projected_qk(tape, ztilde, layer)
    scores = tape.exp(tape.matmul(q, tape.transpose(k)))
    scores = tape.add(scores, tape.tensor(n * np.eye(n, dtype=dt)))
    rowsum = tape.matmul(scores, tape.tensor(np.ones((n, 1), dtype=dt)))
    attn = tape.mul(scores, tape.reciprocal(rowsum))
    return tape.matmul(attn, zhat)


def _rownorm_np(a: np.ndarray) -> np.ndarray:
    return a / np.sqrt((a * a).sum(axis=1, keepdims=True) + NORM_EPS)


def dense_attention_oracle(ztilde: np.ndarray, zhat: np.ndarray, layer: LayerParams,
                           kernel_mode: str = "approximate"):
    """Independent dense reference: returns (mixed values, attention matrix).

    Pure numpy, no tape; attention rows are the normalized effective scores
    ``kernel + |V| * I`` and sum to one. Refuses graphs above ``DENSE_GUARD``.
    """
    n = ztilde.shape[0]
    if n > DENSE_GUARD:
        raise DenseScopeError(f"the dense attention oracle takes at most {DENSE_GUARD} entities; "
                              f"the graph has {n}")
    q = _rownorm_np(ztilde @ layer.w1.data + layer.b1.data)
    k = _rownorm_np(ztilde @ layer.w2.data + layer.b2.data)
    s = q @ k.T
    scores = np.exp(s) if kernel_mode == "full_exponential" else 1.0 + s
    scores = scores + n * np.eye(n, dtype=scores.dtype)
    attn = scores / scores.sum(axis=1, keepdims=True)
    return attn @ zhat, attn


# --- transformer stack -----------------------------------------------------


@dataclass
class ForwardState:
    """Intermediate matrices captured for diagnostics (numpy copies)."""

    query_reprs: list = field(default_factory=list)      # one per layer
    value_reprs: list = field(default_factory=list)


def make_noise(config: ModelConfig, num_entities: int,
               rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """One (|V|, d) noise draw per forward pass, per the configured mode.

    ``fixed_seed`` regenerates the same draw every call so evaluation is
    deterministic and rank-stable across queries.
    """
    shape = (num_entities, config.hidden_dim)
    if config.noise_mode == "disabled":
        return np.zeros(shape, dtype=config.dtype)
    if config.noise_mode == "fixed_seed":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.noise_seed)))
    elif rng is None:
        raise ConfigError("noise_mode=per_forward requires an rng stream")
    return rng.standard_normal(shape).astype(config.dtype)


def pin_noise(config: ModelConfig, noise_seed: int) -> ModelConfig:
    """The config with noise fixed to one seed, so inference outputs are reproducible."""
    if config.noise_mode == "disabled":
        return config
    return replace(config, noise_mode="fixed_seed", noise_seed=noise_seed)


def head_indicator(config: ModelConfig, num_entities: int, head: int) -> np.ndarray:
    """The value network's extra input: an all-ones row at the query head, zeros elsewhere."""
    indicator = np.zeros((num_entities, config.hidden_dim), dtype=config.dtype)
    indicator[head] = 1.0
    return indicator


def _check_query(graph: KnowledgeGraph, query: Query) -> None:
    if not 0 <= query.head < graph.num_entities:
        raise ConfigError(f"query head {query.head} out of range")
    if not 0 <= query.relation < graph.num_relations:
        raise ConfigError(f"query relation {query.relation} out of range")


@dataclass
class QuerySide:
    """Layer 0's query-side tensors for one query relation under one noise draw.

    Layer 0's input is all zeros, so its query network sees only the noise
    and the query relation, never the head: ``ztilde`` and the attention's
    key side (``attention_keys``; ``None`` under the exponential kernel,
    whose dense path projects its own) serve every head of that relation,
    provided no edge is excluded.
    """

    ztilde: Tensor
    keys: Optional[tuple]


def layer0_query_side(graph: KnowledgeGraph, query: Query, params: ModelParams,
                      config: ModelConfig, noise: np.ndarray) -> QuerySide:
    """Layer 0's query side for ``query``'s relation, exactly as ``forward`` computes it."""
    _check_query(graph, query)
    tape = Tape(grad=False)
    layer = params.layers[0]
    x = tape.tensor(np.zeros((graph.num_entities, config.hidden_dim), dtype=config.dtype))
    ztilde = rmpnn_forward(tape, graph, x, query.relation, params.relations, layer.query_net, noise)
    keys = attention_keys(tape, ztilde, layer) if config.kernel_mode == "approximate" else None
    return QuerySide(ztilde, keys)


def transformer_layer(tape: Tape, graph: KnowledgeGraph, x: Tensor, query: Query,
                      relations: Parameter, layer: LayerParams, config: ModelConfig,
                      noise: np.ndarray, indicator: np.ndarray, exclude=None,
                      state: Optional[ForwardState] = None, *,
                      query_side: Optional[QuerySide] = None) -> Tensor:
    """One attention block: Attn -> residual -> LN -> FFN -> residual -> LN.

    ``query_side``, given only for layer 0, stands in for its query network.
    Each (|V|, d) tensor is dropped once its last reader has run, so on a
    tape that does not record it is freed there; a recording tape keeps it.
    """
    if query_side is None:
        ztilde = rmpnn_forward(tape, graph, x, query.relation, relations, layer.query_net, noise, exclude)
        keys = None
    else:
        ztilde, keys = query_side.ztilde, query_side.keys
    zhat = rmpnn_forward(tape, graph, x, query.relation, relations, layer.value_net, indicator, exclude)
    if state is not None:
        state.query_reprs.append(ztilde.data.copy())
        state.value_reprs.append(zhat.data.copy())
    if config.kernel_mode == "approximate":
        zbar = linear_attention(tape, ztilde, zhat, layer, keys)
    else:
        zbar = dense_attention(tape, ztilde, zhat, layer)
    del ztilde, keys, zhat
    a = tape.layer_norm(tape.add(x, zbar), layer.ln1_gain, layer.ln1_bias, LAYER_NORM_EPS)
    del zbar
    return tape.layer_norm(tape.add(a, layer.ffn.apply(tape, a)),
                           layer.ln2_gain, layer.ln2_bias, LAYER_NORM_EPS)


def forward(tape: Tape, graph: KnowledgeGraph, query: Query, params: ModelParams,
            config: ModelConfig, noise: Optional[np.ndarray] = None,
            exclude_query_edge: bool = False, state: Optional[ForwardState] = None, *,
            query_side: Optional[QuerySide] = None) -> Tensor:
    """Score every entity as a tail for the query: sigmoid(MLP(X^(L))), shape (|V|, 1).

    ``query_side`` is ``layer0_query_side`` of this query's relation under
    this ``noise``, and needs ``exclude_query_edge=False``.
    """
    n = graph.num_entities
    _check_query(graph, query)
    if noise is None:
        noise = make_noise(config, n)
    exclude = None
    if exclude_query_edge:
        exclude = graph.excluded_edge_endpoints(query.head, query.relation, query.gold_tail)
    indicator = head_indicator(config, n, query.head)
    x = tape.tensor(np.zeros((n, config.hidden_dim), dtype=config.dtype))
    for layer in params.layers:
        x = transformer_layer(tape, graph, x, query, params.relations, layer, config, noise,
                              indicator, exclude, state, query_side=query_side)
        query_side = None
    return tape.sigmoid(params.scorer.apply(tape, x))


def score_query(graph: KnowledgeGraph, query: Query, params: ModelParams, config: ModelConfig,
                noise: Optional[np.ndarray] = None, *, query_side: Optional[QuerySide] = None) -> np.ndarray:
    """Inference-only forward over the whole graph; returns a flat (|V|,) probability vector."""
    tape = Tape(grad=False)
    scores = forward(tape, graph, query, params, config, noise, query_side=query_side)
    return scores.data[:, 0].copy()
