"""Dense 2-D tensor algebra with reverse-mode differentiation.

Every value is a row-major (rows, cols) float array; scalars are (1, 1).
A :class:`Tape` owns the primitive-op namespace: calling an op through a
tape computes the forward value and records an adjoint closure, and
``tape.backward(loss)`` replays the closures in reverse creation order.
Creation order is a valid topological order because an op can only
consume tensors that already exist.

Broadcasting is deliberately narrow: the second operand of ``add`` and
``mul`` may be a row vector (1, d), a column vector (n, 1), or a scalar
(1, 1). Everything else must match shapes exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np


class ShapeError(Exception):
    """Operand shapes incompatible with the requested op."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")


class ContractError(Exception):
    """An op was called outside its contract (e.g. non-scalar loss)."""


class DeterminismError(Exception):
    """A closure expected to be deterministic produced differing values."""


def _as_matrix(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError("tensor", arr.shape)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A 2-D value in the computation graph. ``grad`` is filled by backward."""

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        self.data = _as_matrix(data, dtype)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item: tensor has shape {self.data.shape}, expected (1, 1)")
        return float(self.data[0, 0])

    def _add_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        # `fresh` marks g as a newly allocated array the adjoint may donate;
        # views and passed-through buffers must be copied before ownership.
        if self.grad is None:
            self.grad = g if fresh else np.array(g)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """Learnable tensor with a persistent gradient accumulator.

    The accumulator survives across tapes: successive backward passes add
    into it, which is what per-query gradient accumulation within a batch
    relies on. The optimizer (or ``zero_grad``) resets it between steps.
    With ``grad=False`` there is no accumulator (``grad`` is ``None``), for
    parameters that are only read.

    While ``deferred`` is a list, backward passes append to it, in order,
    each operand they would add into ``grad`` (a copy of one they do not
    own) and leave ``grad`` alone; ``grad += c`` over the list later gives
    the bits the direct additions would have.
    """

    __slots__ = ("name", "deferred")

    def __init__(self, name: str, data, dtype=None, grad: bool = True):
        super().__init__(data, dtype)
        self.name = name
        self.grad = np.zeros_like(self.data) if grad else None
        self.deferred = None

    def _add_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        if self.deferred is None:
            super()._add_grad(g, fresh)
        else:
            self.deferred.append(g if fresh else np.array(g))

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


# Fixed cost of running one bucket of a ProductSumPlan (its NumPy calls and their
# temporaries), in padded rows. Two length classes share a bucket when the padding
# that adds costs less than this.
_BUCKET_COST_ROWS = 256

# A ProductSumPlan computes each distinct (ia, ib) product once, in a pair table,
# when its slots repeat each distinct pair at least this many times on average.
# The table is an extra pass, so it pays only with reuse. Measured at d = 32,
# float32, one BLAS thread on 2 vCPUs, with pairs drawn at random over the
# segments of UMLS and of a WN18RR-shaped graph: it breaks even at 2.5-3 slots
# per pair, saves 10-20% of a run at 4 and about 25% at 7-9. Real plans: UMLS's
# by_target and by_source (8.2) run in 0.72-0.76 of the time; plans at 1.9-2.3
# (UMLS by_relation, the WN18RR-shaped graph, a 3% UMLS share) would take
# 0.99-1.18 of it.
_PAIR_REUSE = 4

# Pairs are counted by marking the (num_a * (num_b + 1))-key space; a plan whose
# key space exceeds this many keys per slot builds no table and marks nothing.
_PAIR_KEYS_PER_SLOT = 8


class ProductSumPlan:
    """Segment plan for ``out[key[e]] += a[ia[e]] * b[ib[e]]`` over index triples ``e``.

    The entries that share a key form a segment. Segments are grouped into
    buckets; each bucket pads its m segments to one length k, with padded
    slots reading an appended zero row of ``b``, and stores its indices
    k-major. Summing a bucket then adds contiguous blocks of (m * d) rows,
    not a strided loop per segment and column: the top half of the k rows
    is folded onto the bottom half until one row is left, a pairwise sum
    whose rounding error grows with log2(k), not k. Buckets cover adjacent
    power-of-two length classes, merged by an exact dynamic program that
    weighs padded rows against ``_BUCKET_COST_ROWS`` per bucket. The order
    of every sum depends only on the plan, so runs are deterministic.
    Padded slots add ``a[row] * 0``, an exact zero for finite inputs.

    Where the slots repeat each distinct (ia, ib) pair ``_PAIR_REUSE`` times
    or more (pad slots being pairs with the zero row), ``pairs`` holds the
    distinct pairs ``(ua, ub)`` in key order and each bucket holds one index
    into them: ``run`` computes every distinct product once and gathers it.
    Each slot still holds the same rounded product of the same operands, so
    both ways give the same bits. Otherwise ``pairs`` is None.
    """

    __slots__ = ("num_keys", "num_a", "num_b", "buckets", "pairs")

    def __init__(self, keys, num_keys: int, ia, num_a: int, ib, num_b: int):
        self.num_keys, self.num_a, self.num_b = int(num_keys), int(num_a), int(num_b)
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        order = np.argsort(keys, kind="stable")
        ia = np.asarray(ia, dtype=np.int64).reshape(-1)[order]
        ib = np.asarray(ib, dtype=np.int64).reshape(-1)[order]
        lengths = np.bincount(keys, minlength=self.num_keys)
        starts = np.cumsum(lengths) - lengths
        live = np.flatnonzero(lengths)
        segs = live[np.argsort(lengths[live], kind="stable")]   # keys, shortest segment first
        seg_len = lengths[segs]
        length_class = np.frexp(seg_len - 1)[1]                  # ceil(log2(length))
        cuts = [0, *(np.flatnonzero(np.diff(length_class)) + 1).tolist(), len(segs)] if len(segs) else [0]
        # best[j]: cheapest cost of the first j classes; a bucket over classes i..j-1
        # pads every segment in them to the longest one.
        best, split = [0], [0]
        for j in range(1, len(cuts)):
            longest = int(seg_len[cuts[j] - 1])
            cost, i = min((best[i] + _BUCKET_COST_ROWS + longest * (cuts[j] - cuts[i]), i)
                          for i in range(j))
            best.append(cost)
            split.append(i)
        bounds, j = [], len(cuts) - 1
        while j > 0:
            bounds.append((cuts[split[j]], cuts[j]))
            j = split[j]
        self.buckets = []
        for lo, hi in reversed(bounds):
            k = int(seg_len[hi - 1])
            slot = np.arange(k)[:, None]
            valid = slot < seg_len[lo:hi]
            pos = starts[segs[lo:hi]] + np.minimum(slot, seg_len[lo:hi] - 1)
            pad_b = np.where(valid, ib[pos], self.num_b)
            self.buckets.append((segs[lo:hi], ia[pos].reshape(-1), pad_b.reshape(-1), k))
        del keys, order, ia, ib  # the sorted copies, freed before the pairs are counted
        self._share_products()

    def _share_products(self):
        """Set ``pairs``; where the table pays, replace each bucket's (ia, ib) with (ip, None).

        Counting marks each slot's key ``ia * (num_b + 1) + ib`` in a boolean
        array, so it needs no sort; ranks are built only once the table is chosen.
        """
        self.pairs = None
        width = self.num_b + 1
        slots = sum(len(ia) for _, ia, _, _ in self.buckets)
        if not slots or self.num_a * width > _PAIR_KEYS_PER_SLOT * slots:
            return
        seen = np.zeros(self.num_a * width, dtype=bool)
        for _, ia, ib, _ in self.buckets:
            seen[ia * width + ib] = True
        if slots < _PAIR_REUSE * np.count_nonzero(seen):
            return
        rank = np.cumsum(seen) - 1
        self.buckets = [(keys, rank[ia * width + ib], None, k) for keys, ia, ib, k in self.buckets]
        self.pairs = np.divmod(np.flatnonzero(seen), width)

    def _table(self, a: np.ndarray, b: np.ndarray):
        """The pair table ``a[ua] * b[ub]``, and room for the largest bucket's slots after it.

        Both share one allocation per run. Arrays made per bucket were handed
        back to the OS and faulted in again: a fresh process's first UMLS
        evaluation spent half its time in page faults.
        """
        ua, ub = self.pairs
        most = max(len(ip) for _, ip, _, _ in self.buckets)
        work = np.empty((len(ua) + most, a.shape[1]), dtype=a.dtype)
        # mode="clip" writes into ``work`` directly ("raise" buffers); the indices are the plan's own
        table = np.take(a, ua, axis=0, out=work[:len(ua)], mode="clip")
        table *= b.take(ub, axis=0)
        return table, work[len(ua):]

    def run(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The (num_keys, d) product-sum of ``a`` (num_a, d) and ``b`` (num_b, d)."""
        if a.shape[0] != self.num_a or b.shape[0] != self.num_b or a.shape[1] != b.shape[1]:
            raise ShapeError("ProductSumPlan.run", a.shape, b.shape)
        d = a.shape[1]
        out = np.zeros((self.num_keys, d), dtype=np.result_type(a, b))
        b = np.concatenate((b, np.zeros((1, d), dtype=b.dtype)))
        if self.pairs is not None:
            table, slots = self._table(a, b)
        for keys, ia, ib, k in self.buckets:
            if ib is None:
                prod = np.take(table, ia, axis=0, out=slots[:len(ia)], mode="clip")
            else:
                prod = a.take(ia, axis=0)
                prod *= b.take(ib, axis=0)
            prod = prod.reshape(k, -1)
            while k > 1:
                half = k // 2
                prod[:half] += prod[k - half:k]
                k -= half
            out[keys] = prod[0].reshape(-1, d)
        return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, with an outer product (contracted dimension 1) run as a broadcast multiply.

    Each entry of an outer product is one rounded product either way, so the
    bits match; BLAS takes many times longer for it.
    """
    return a * b if a.shape[1] == 1 else a @ b


def _add_broadcast_grad(b: Tensor, kind: str, g: np.ndarray, fresh: bool) -> None:
    """Add ``g`` to the gradient of ``b``, summed over the axes ``b`` was broadcast along.

    ``fresh`` is ``g``'s own flag; the sums are always fresh. A module
    function, not a ``Tape`` method: a backward closure that held the tape
    would make a reference cycle, and each dropped tape's arrays would wait
    for the cyclic collector.
    """
    if kind == "same":
        b._add_grad(g, fresh=fresh)
    elif kind == "row":
        b._add_grad(g.sum(axis=0, keepdims=True), fresh=True)
    elif kind == "col":
        b._add_grad(g.sum(axis=1, keepdims=True), fresh=True)
    else:
        b._add_grad(g.sum().reshape(1, 1), fresh=True)


def _as_index(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64).reshape(-1)


def _scatter_add(num_rows: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out[rows[i]] += values[i]`` into zeros, in index order."""
    out = np.zeros((num_rows, values.shape[1]), dtype=values.dtype)
    np.add.at(out, rows, values)
    return out


@dataclass
class GradCheckReport:
    """Per-parameter max relative errors from a finite-difference audit."""

    errors: dict = field(default_factory=dict)
    tolerance: float = 0.0

    @property
    def passed(self) -> bool:
        return all(e <= self.tolerance for e in self.errors.values())

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0


class Tape:
    """Ordered record of primitive ops: each node's op name, output and adjoint closure.

    ``grad=False`` records nothing, for inference-only passes: an op's
    output is then the only array it leaves alive, and it is freed as soon
    as the caller drops it.
    """

    def __init__(self, grad: bool = True):
        self.grad_enabled = grad
        self._record: list[tuple[str, Tensor, object]] = []

    def __len__(self):
        return len(self._record)

    def op_counts(self) -> dict[str, int]:
        """Recorded nodes per op name."""
        return dict(Counter(op for op, _, _ in self._record))

    def _emit(self, op: str, data: np.ndarray, bwd) -> Tensor:
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if self.grad_enabled:
            self._record.append((op, out, bwd))
        return out

    def backward(self, loss: Tensor) -> None:
        """Propagate d(loss)/d(node) to every recorded node and parameter.

        Calling twice on the same tape accumulates into parameter
        gradients a second time (callers that do not want that must zero
        the accumulators in between).
        """
        if not self.grad_enabled:
            raise ContractError("backward: tape was created with grad=False")
        if loss.data.size != 1:
            raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        loss._add_grad(np.ones_like(loss.data))
        for _, out, bwd in reversed(self._record):
            if out.grad is not None:
                bwd(out.grad)
            out.grad = None  # free intermediate buffers as we go

    # --- creation -------------------------------------------------------

    def tensor(self, data, dtype=None) -> Tensor:
        """Wrap a constant leaf (no gradient is retained for it)."""
        return Tensor(data, dtype)

    # --- primitives -----------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape[1] != b.shape[0]:
            raise ShapeError("matmul", a.shape, b.shape)
        ad, bd = a.data, b.data

        def bwd(g):
            a._add_grad(_product(g, bd.T), fresh=True)
            b._add_grad(_product(ad.T, g), fresh=True)

        return self._emit("matmul", ad @ bd, bwd)

    def mlp(self, x: Tensor, weights: list, biases: list) -> Tensor:
        """Linear layers with ReLU between them (the last stays linear), as one node.

        The value and every gradient are bit for bit those of the
        ``matmul``/``add``/``relu`` chain it replaces; one layer is ``x @ w + b``.
        """
        if not weights or len(weights) != len(biases):
            raise ShapeError("mlp", f"{len(weights)} weights", f"{len(biases)} biases")
        wds = [w.data for w in weights]
        bds = [b.data for b in biases]
        inputs = [x.data]          # each layer's input: x, then (for a backward pass) the ReLU outputs
        h = x.data
        for i, (wd, bd) in enumerate(zip(wds, bds)):
            if h.shape[1] != wd.shape[0] or bd.shape != (1, wd.shape[1]):
                raise ShapeError("mlp", h.shape, wd.shape, bd.shape)
            h = h @ wd
            h += bd
            if i < len(wds) - 1:
                h = np.maximum(h, 0.0, out=h)
                if self.grad_enabled:
                    inputs.append(h)

        def bwd(g):
            for i in reversed(range(len(wds))):
                biases[i]._add_grad(g.sum(axis=0, keepdims=True), fresh=True)
                weights[i]._add_grad(_product(inputs[i].T, g), fresh=True)
                g = _product(g, wds[i].T)
                if i:
                    g = g * (inputs[i] > 0)
            x._add_grad(g, fresh=True)

        return self._emit("mlp", h, bwd)

    @staticmethod
    def _broadcast_kind(op, sa, sb):
        if sa == sb:
            return "same"
        if sb == (1, 1):
            return "scalar"
        if sb == (1, sa[1]):
            return "row"
        if sb == (sa[0], 1):
            return "col"
        raise ShapeError(op, sa, sb)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        kind = self._broadcast_kind("add", a.shape, b.shape)

        def bwd(g):
            a._add_grad(g)
            _add_broadcast_grad(b, kind, g, fresh=False)

        return self._emit("add", a.data + b.data, bwd)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        kind = self._broadcast_kind("mul", a.shape, b.shape)
        ad, bd = a.data, b.data

        def bwd(g):
            a._add_grad(g * bd, fresh=True)
            _add_broadcast_grad(b, kind, g * ad, fresh=True)

        return self._emit("mul", ad * bd, bwd)

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)

        def bwd(g):
            a._add_grad(c * g, fresh=True)

        return self._emit("scale", c * a.data, bwd)

    def transpose(self, a: Tensor) -> Tensor:
        def bwd(g):
            a._add_grad(g.T)

        return self._emit("transpose", np.ascontiguousarray(a.data.T), bwd)

    def reshape(self, a: Tensor, shape: tuple) -> Tensor:
        rows, cols = shape
        if rows * cols != a.data.size:
            raise ShapeError("reshape", a.shape, shape)
        old = a.shape

        def bwd(g):
            a._add_grad(g.reshape(old))

        return self._emit("reshape", a.data.reshape(shape), bwd)

    def concat_columns(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape[0] != b.shape[0]:
            raise ShapeError("concat_columns", a.shape, b.shape)
        split = a.shape[1]

        def bwd(g):
            a._add_grad(g[:, :split])
            b._add_grad(g[:, split:])

        return self._emit("concat_columns", np.concatenate([a.data, b.data], axis=1), bwd)

    def relu(self, a: Tensor) -> Tensor:
        out_data = np.maximum(a.data, 0.0)

        def bwd(g):
            a._add_grad(g * (out_data > 0), fresh=True)

        return self._emit("relu", out_data, bwd)

    def sigmoid(self, a: Tensor) -> Tensor:
        out_data = 1.0 / (1.0 + np.exp(-a.data))

        def bwd(g):
            a._add_grad(g * out_data * (1.0 - out_data), fresh=True)

        return self._emit("sigmoid", out_data, bwd)

    def exp(self, a: Tensor) -> Tensor:
        out_data = np.exp(a.data)

        def bwd(g):
            a._add_grad(g * out_data, fresh=True)

        return self._emit("exp", out_data, bwd)

    def log(self, a: Tensor) -> Tensor:
        ad = a.data

        def bwd(g):
            a._add_grad(g / ad, fresh=True)

        return self._emit("log", np.log(ad), bwd)

    def reciprocal(self, a: Tensor) -> Tensor:
        out_data = 1.0 / a.data

        def bwd(g):
            a._add_grad(-g * out_data * out_data, fresh=True)

        return self._emit("reciprocal", out_data, bwd)

    def clip(self, a: Tensor, lo: float, hi: float) -> Tensor:
        """Clamp values into [lo, hi]; gradient is zero where saturated."""
        inside = (a.data > lo) & (a.data < hi)

        def bwd(g):
            a._add_grad(g * inside, fresh=True)

        return self._emit("clip", np.clip(a.data, lo, hi), bwd)

    def sum(self, a: Tensor) -> Tensor:
        shape = a.shape

        def bwd(g):
            a._add_grad(np.broadcast_to(g, shape))

        return self._emit("sum", a.data.sum().reshape(1, 1), bwd)

    def mean_rows(self, a: Tensor) -> Tensor:
        n = a.shape[0]
        if n == 0:
            raise ShapeError("mean_rows", a.shape)

        def bwd(g):
            a._add_grad(np.broadcast_to(g / n, a.shape))

        return self._emit("mean_rows", a.data.mean(axis=0, keepdims=True), bwd)

    def layer_norm(self, a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
        """Normalize each row over the feature dimension, then scale/shift."""
        d = a.shape[1]
        if gain.shape != (1, d) or bias.shape != (1, d):
            raise ShapeError("layer_norm", a.shape, gain.shape, bias.shape)
        xhat = a.data - a.data.mean(axis=1, keepdims=True)   # centred, then scaled in place
        inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=1, keepdims=True) + eps)  # np.var's bits
        xhat *= inv
        gd = gain.data
        out = xhat * gd
        out += bias.data

        def bwd(g):
            gain._add_grad((g * xhat).sum(axis=0, keepdims=True), fresh=True)
            bias._add_grad(g.sum(axis=0, keepdims=True), fresh=True)
            dxhat = g * gd
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            a._add_grad(inv * (dxhat - m1 - xhat * m2), fresh=True)

        return self._emit("layer_norm", out, bwd)

    def row_l2_normalize(self, a: Tensor, eps: float = 1e-12) -> Tensor:
        """Scale each row to unit L2 norm; eps guards all-zero rows."""
        norm = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True) + eps)
        out_data = a.data / norm
        ad = a.data

        def bwd(g):
            dot = (g * ad).sum(axis=1, keepdims=True)
            a._add_grad(g / norm - ad * (dot / norm**3), fresh=True)

        return self._emit("row_l2_normalize", out_data, bwd)

    def gather_rows(self, a: Tensor, rows) -> Tensor:
        rows = _as_index(rows)
        if len(rows) and (rows.min() < 0 or rows.max() >= a.shape[0]):
            raise ShapeError("gather_rows", a.shape, f"index max {rows.max()}")
        num_rows = a.shape[0]

        def bwd(g):
            a._add_grad(_scatter_add(num_rows, rows, g), fresh=True)

        return self._emit("gather_rows", a.data.take(rows, axis=0), bwd)

    def scatter_add_rows(self, num_rows: int, rows, a: Tensor) -> Tensor:
        rows = _as_index(rows)
        if len(rows) != a.shape[0]:
            raise ShapeError("scatter_add_rows", a.shape, f"{len(rows)} indices")
        if len(rows) and (rows.min() < 0 or rows.max() >= num_rows):
            raise ShapeError("scatter_add_rows", f"{num_rows} rows", f"index max {rows.max()}")

        def bwd(g):
            a._add_grad(g.take(rows, axis=0), fresh=True)

        return self._emit("scatter_add_rows", _scatter_add(num_rows, rows, a.data), bwd)

    def relational_aggregate(self, z: Tensor, rhat: Tensor, graph, exclude=None) -> Tensor:
        """Message aggregation ``agg[t] = sum over facts r(s, t) of z[s] * rhat[r]``.

        ``graph`` holds three ProductSumPlans over its facts: ``by_target``
        computes the value, ``by_source`` and ``by_relation`` the adjoints for
        ``z`` and ``rhat``. No (|E|, d) tensor is recorded.

        ``exclude`` is an optional (sources, relations, targets) triple of fact
        copies to leave out (a training query's own edge): their messages are
        summed per target and subtracted from the full aggregate.
        """
        plan = graph.by_target
        if z.shape[0] != plan.num_a or rhat.shape[0] != plan.num_b or z.shape[1] != rhat.shape[1]:
            raise ShapeError("relational_aggregate", z.shape, rhat.shape)
        zd, rd = z.data, rhat.data
        out = plan.run(zd, rd)
        if exclude is not None:
            src, rel, tgt = map(_as_index, exclude)
            if not len(src) == len(rel) == len(tgt):
                raise ShapeError("relational_aggregate exclude", len(src), len(rel), len(tgt))
            z_ex, r_ex = zd.take(src, axis=0), rd.take(rel, axis=0)
            out -= _scatter_add(plan.num_keys, tgt, z_ex * r_ex)

        def bwd(g):
            if exclude is not None:
                g_ex = -g.take(tgt, axis=0)
                z._add_grad(_scatter_add(plan.num_a, src, g_ex * r_ex), fresh=True)
                rhat._add_grad(_scatter_add(plan.num_b, rel, g_ex * z_ex), fresh=True)
            z._add_grad(graph.by_source.run(g, rd), fresh=True)
            rhat._add_grad(graph.by_relation.run(g, zd), fresh=True)

        return self._emit("relational_aggregate", out, bwd)


def grad_check(loss_fn, params, step: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Audit analytic gradients against central finite differences.

    ``loss_fn`` must be a zero-argument deterministic closure returning
    ``(tape, loss)`` for a fresh forward pass; any randomness inside it
    has to be reseeded per call. Per-element error is ``|a - n| /
    max(1, |a|, |n|)``: relative for large gradients, absolute below
    magnitude one, where the finite-difference oracle's own roundoff
    floor would otherwise dominate a pure ratio.
    """
    params = list(params)
    _, first = loss_fn()
    _, second = loss_fn()
    if first.data.tobytes() != second.data.tobytes():
        raise DeterminismError("grad_check: two forward passes disagree; closure is not deterministic")

    for p in params:
        p.zero_grad()
    tape, loss = loss_fn()
    tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    report = GradCheckReport(tolerance=tolerance)
    for p in params:
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            _, lp = loss_fn()
            flat[i] = orig - step
            _, lm = loss_fn()
            flat[i] = orig
            num_flat[i] = (lp.item() - lm.item()) / (2.0 * step)
        a = analytic[p.name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1.0)
        rel = np.abs(a - numeric) / denom
        report.errors[p.name] = float(rel.max()) if rel.size else 0.0
    return report
