"""Adjoint correctness and contract tests for the autodiff engine."""

import itertools
import os
import tracemalloc

import numpy as np
import pytest

from conftest import chain_graph, facts, random_graph
from kgreason import data
from kgreason.autodiff import (
    _BUCKET_COST_ROWS,
    _SMALL_PRODUCT_MACS,
    ContractError,
    DeterminismError,
    Parameter,
    ProductSumPlan,
    ShapeError,
    Tape,
    _mlp_pieces,
    grad_check,
)
from kgreason.data import Triplet, build_graph, load_dataset

UMLS_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "umls")


def central_diff(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Independent finite-difference oracle: df/dx for scalar-valued f."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * step)
    return g


def run_op_check(build, shapes, seed, step=1e-6, tol=1e-6):
    """Compare analytic gradients of sum(op(...)) against central differences.

    ``build(tape, *tensors)`` composes the op under test; every input is a
    Parameter so gradients are retained.
    """
    rng = np.random.default_rng(seed)
    params = [Parameter(f"p{i}", rng.standard_normal(s)) for i, s in enumerate(shapes)]

    def forward_value():
        t = Tape()
        return t.sum(build(t, *params)).item()

    for p in params:
        tape = Tape()
        out = tape.sum(build(tape, *params))
        for q in params:
            q.zero_grad()
        tape.backward(out)
        numeric = central_diff(forward_value, p.data, step)
        denom = np.maximum(np.maximum(np.abs(p.grad), np.abs(numeric)), 1.0)
        assert np.max(np.abs(p.grad - numeric) / denom) <= tol, f"op grad mismatch for {p.name}"


class TestPrimitiveAdjoints:
    """Each primitive's adjoint matches central finite differences."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matmul(self, seed):
        run_op_check(lambda t, a, b: t.matmul(a, b), [(3, 4), (4, 5)], seed)

    @pytest.mark.parametrize("rows, dims", [(5, [4, 5, 3, 1]), (5, [3, 6, 3]), (5, [4, 2]),
                                            (3, [4, 5]), (1, [4, 6]), (5, [3, 1])])
    @pytest.mark.parametrize("seed", range(3))
    def test_mlp(self, rows, dims, seed):
        # biases drawn by run_op_check put the ReLU inputs at generic points, off the kink;
        # the depth-1 stacks are ``x @ w + b``, down to a one-row input and a width-1 output
        shapes = [(rows, dims[0])]
        for i in range(len(dims) - 1):
            shapes += [(dims[i], dims[i + 1]), (1, dims[i + 1])]

        def build(t, x, *layers):
            return t.mlp(x, list(layers[0::2]), list(layers[1::2]))

        run_op_check(build, shapes, seed)

    @pytest.mark.parametrize("bshape", [(3, 4), (1, 4), (3, 1), (1, 1)])
    @pytest.mark.parametrize("seed", range(3))
    def test_add_broadcast(self, bshape, seed):
        run_op_check(lambda t, a, b: t.add(a, b), [(3, 4), bshape], seed)

    @pytest.mark.parametrize("bshape", [(3, 4), (1, 4), (3, 1), (1, 1)])
    @pytest.mark.parametrize("seed", range(3))
    def test_mul_broadcast(self, bshape, seed):
        run_op_check(lambda t, a, b: t.mul(a, b), [(3, 4), bshape], seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_unary_chain(self, seed):
        # sigmoid, exp, scale, transpose and reshape composed in one graph
        def build(t, a):
            x = t.sigmoid(a)
            x = t.exp(t.scale(x, 0.5))
            x = t.transpose(x)
            return t.reshape(x, (2, 6))

        run_op_check(build, [(3, 4)], seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_relu(self, seed):
        run_op_check(lambda t, a: t.relu(a), [(5, 3)], seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_log_reciprocal(self, seed):
        # shift inputs away from zero to keep log/reciprocal well-conditioned
        def build(t, a):
            x = t.add(t.sigmoid(a), t.tensor(np.full((1, 1), 0.5)))
            return t.add(t.log(x), t.reciprocal(x))

        run_op_check(build, [(4, 4)], seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_concat_columns(self, seed):
        run_op_check(lambda t, a, b: t.concat_columns(a, b), [(4, 2), (4, 3)], seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_mean_rows(self, seed):
        run_op_check(lambda t, a: t.mean_rows(a), [(6, 3)], seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_layer_norm(self, seed):
        run_op_check(
            lambda t, a, g, b: t.layer_norm(a, g, b, eps=1e-5),
            [(5, 8), (1, 8), (1, 8)],
            seed,
            step=1e-5,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_row_l2_normalize(self, seed):
        run_op_check(lambda t, a: t.row_l2_normalize(a), [(5, 6)], seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_gather_scatter(self, seed):
        rng = np.random.default_rng(100 + seed)
        idx = rng.integers(0, 6, size=11)

        def build(t, a):
            g = t.gather_rows(a, idx)
            return t.scatter_add_rows(6, idx, t.mul(g, g))

        run_op_check(build, [(6, 3)], seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_clip_interior(self, seed):
        run_op_check(lambda t, a: t.clip(t.sigmoid(a), 1e-7, 1 - 1e-7), [(4, 3)], seed)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_compositions(self, seed):
        """Random-shape sweep across the full primitive table."""
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 7))

        def build(t, a, b, w, gain, bias):
            x = t.matmul(a, w)
            x = t.add(x, b)
            x = t.layer_norm(x, gain, bias)
            x = t.relu(x)
            # offset keeps row norms well away from the eps guard, where the
            # finite-difference oracle is itself inaccurate
            x = t.add(x, t.tensor(np.full((1, 1), 0.5)))
            x = t.row_l2_normalize(x)
            return t.mul(x, x)

        run_op_check(
            build,
            [(n, d), (1, d), (d, d), (1, d), (1, d)],
            seed=2000 + seed,
            step=1e-5,
            tol=2e-6,
        )


class TestClosedFormValues:
    def test_row_l2_normalize_345(self):
        t = Tape()
        out = t.row_l2_normalize(t.tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-12)

    def test_row_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(0)
        t = Tape()
        out = t.row_l2_normalize(t.tensor(rng.standard_normal((20, 7))))
        norms = np.linalg.norm(out.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_scatter_add_sum_by_key(self):
        t = Tape()
        out = t.scatter_add_rows(2, [0, 0, 1], t.tensor([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_scatter_after_gather_identity_on_unique_rows(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3))
        idx = [2, 0, 4]  # each row index appears exactly once
        t = Tape()
        out = t.scatter_add_rows(5, idx, t.gather_rows(t.tensor(a), idx))
        np.testing.assert_allclose(out.data[[0, 2, 4]], a[[0, 2, 4]])
        np.testing.assert_allclose(out.data[[1, 3]], 0.0)

    def test_sum_gradient_is_ones(self):
        w = Parameter("w", np.random.default_rng(0).standard_normal((3, 4)))
        t = Tape()
        t.backward(t.sum(w))
        np.testing.assert_allclose(w.grad, 1.0)

    def test_sigmoid_gradient_at_zero(self):
        w = Parameter("w", np.zeros((2, 3)))
        t = Tape()
        t.backward(t.sum(t.sigmoid(w)))
        np.testing.assert_allclose(w.grad, 0.25, atol=1e-15)


class TestBackwardSemantics:
    def test_non_scalar_loss_rejected(self):
        t = Tape()
        x = t.tensor([[1.0, 2.0]])
        with pytest.raises(ContractError):
            t.backward(x)

    def test_second_backward_accumulates(self):
        w = Parameter("w", [[2.0]])
        t = Tape()
        loss = t.sum(t.mul(w, w))
        t.backward(loss)
        first = w.grad.copy()
        t.backward(loss)
        np.testing.assert_allclose(w.grad, 2 * first)

    def test_backward_is_linear(self):
        rng = np.random.default_rng(7)
        w = Parameter("w", rng.standard_normal((3, 3)))
        a, b = 2.5, -1.25

        def grads(coe1, coe2):
            w.zero_grad()
            t = Tape()
            l1 = t.sum(t.sigmoid(w))
            l2 = t.sum(t.mul(w, w))
            t.backward(t.add(t.scale(l1, coe1), t.scale(l2, coe2)))
            return w.grad.copy()

        g1 = grads(1.0, 0.0)
        g2 = grads(0.0, 1.0)
        combined = grads(a, b)
        np.testing.assert_allclose(combined, a * g1 + b * g2, atol=1e-12)

    def test_shape_error_names_op(self):
        t = Tape()
        with pytest.raises(ShapeError, match="matmul"):
            t.matmul(t.tensor(np.ones((2, 3))), t.tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            t.add(t.tensor(np.ones((2, 3))), t.tensor(np.ones((2, 2))))

    def test_grad_disabled_tape_records_nothing(self):
        t = Tape(grad=False)
        x = t.relu(t.tensor([[1.0]]))
        assert len(t) == 0 and t.op_counts() == {} and x.data[0, 0] == 1.0


class TestGradCheck:
    def test_reports_all_parameters(self):
        rng = np.random.default_rng(11)
        w = Parameter("w", rng.standard_normal((3, 2)))
        b = Parameter("b", rng.standard_normal((1, 2)))

        def loss_fn():
            t = Tape()
            x = t.tensor(rng_fixed)
            return t, t.sum(t.sigmoid(t.add(t.matmul(x, w), b)))

        rng_fixed = rng.standard_normal((4, 3))
        report = grad_check(loss_fn, [w, b], step=1e-5, tolerance=1e-6)
        assert set(report.errors) == {"w", "b"}
        assert report.passed, report.errors

    def test_detects_nondeterminism(self):
        w = Parameter("w", [[1.0]])
        state = {"n": 0.0}

        def loss_fn():
            state["n"] += 1.0
            t = Tape()
            return t, t.sum(t.scale(w, state["n"]))

        with pytest.raises(DeterminismError):
            grad_check(loss_fn, [w])


# --- the fused message aggregation --------------------------------------------


def umls_graph():
    ds = load_dataset(UMLS_DIR)
    return build_graph(ds.train, ds.num_entities, ds.num_relations)


def isolated_and_duplicate_graph():
    # entities 5 and 6 touch no fact; (0, r0, 1) is stored three times
    trips = [Triplet(0, 0, 1), Triplet(0, 0, 1), Triplet(0, 0, 1), Triplet(2, 1, 1),
             Triplet(1, 1, 3), Triplet(3, 0, 0), Triplet(4, 1, 4)]
    return build_graph(trips, 7, 2)


GRAPHS = {
    "umls": umls_graph,
    "scaling-chain": lambda: chain_graph(500),
    "isolated-duplicates": isolated_and_duplicate_graph,
    "no-edges": lambda: build_graph([], 4, 2),
}


def aggregate_composed(t, z, rhat, graph):
    """The gather -> multiply -> scatter composition the fused primitive replaces."""
    edges = t.mul(t.gather_rows(z, graph.in_src), t.gather_rows(rhat, graph.in_rel))
    return t.scatter_add_rows(graph.num_entities, graph.in_tgt, edges)


def aggregate_fused(t, z, rhat, graph):
    return t.relational_aggregate(z, rhat, graph)


class TestRelationalAggregate:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_composition(self, name):
        graph = GRAPHS[name]()
        rng = np.random.default_rng(7)
        d = 5
        z0 = rng.standard_normal((graph.num_entities, d))
        rhat0 = rng.standard_normal((graph.num_relations, d))
        upstream = rng.standard_normal((graph.num_entities, d))
        results = []
        for aggregate in (aggregate_composed, aggregate_fused):
            z, rhat = Parameter("z", z0.copy()), Parameter("rhat", rhat0.copy())
            t = Tape()
            out = aggregate(t, z, rhat, graph)
            t.backward(t.sum(t.mul(out, t.tensor(upstream))))
            results.append((out.data, z.grad, rhat.grad))
        for got, want in zip(results[1], results[0]):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences(self, seed):
        graph = isolated_and_duplicate_graph() if seed == 0 else random_graph(
            np.random.default_rng(seed), 6, 2, 9)
        weights = np.random.default_rng(50 + seed).standard_normal((graph.num_entities, 3))

        def build(t, z, rhat):
            return t.mul(t.relational_aggregate(z, rhat, graph), t.tensor(weights))

        run_op_check(build, [(graph.num_entities, 3), (graph.num_relations, 3)], seed)

    def test_plans_built_once_per_graph(self, monkeypatch):
        built = []

        class CountingPlan(data.ProductSumPlan):
            __slots__ = ()

            def __init__(self, keys, *args):
                built.append(keys)
                super().__init__(keys, *args)

        monkeypatch.setattr(data, "ProductSumPlan", CountingPlan)
        graph = random_graph(np.random.default_rng(3), 8, 2, 12)
        z = Parameter("z", np.ones((8, 4)))
        rhat = Parameter("rhat", np.ones((4, 4)))
        Tape(grad=False).relational_aggregate(z, rhat, graph)
        assert len(built) == 1  # inference builds only the forward plan
        for _ in range(3):
            t = Tape()
            t.backward(t.sum(t.relational_aggregate(z, rhat, graph)))
        assert len(built) == 3
        assert [id(k) for k in built] == [id(graph.in_tgt), id(graph.in_src), id(graph.in_rel)]

    def test_shape_mismatch_rejected(self):
        graph = chain_graph(4)
        t = Tape()
        with pytest.raises(ShapeError):
            t.relational_aggregate(t.tensor(np.ones((4, 3))), t.tensor(np.ones((3, 3))), graph)
        with pytest.raises(ShapeError):
            t.relational_aggregate(t.tensor(np.ones((4, 3))), t.tensor(np.ones((2, 2))), graph)


# --- fused nodes against the chains they replace --------------------------------


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def run_both(build_chain, build_fused, shapes, dtype, seed):
    """Value and every parameter gradient of ``sum(out * upstream)`` under both builds."""
    rng = np.random.default_rng(seed)
    inits = [rng.standard_normal(s).astype(dtype) for s in shapes]
    results = []
    for build in (build_chain, build_fused):
        params = [Parameter(f"p{i}", x.copy()) for i, x in enumerate(inits)]
        t = Tape()
        out = build(t, *params)
        upstream = np.random.default_rng(seed + 1).standard_normal(out.shape).astype(dtype)
        t.backward(t.sum(t.mul(out, t.tensor(upstream))))
        results.append([out.data] + [p.grad for p in params])
    return results


def assert_bit_equal(results):
    chain, fused = results
    for i, (want, got) in enumerate(zip(chain, fused)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert bits(got) == bits(want), f"{'value' if i == 0 else f'gradient of p{i - 1}'} differs"


def mlp_chain(t, x, weights, biases):
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = t.add(t.matmul(x, w), b)
        if i < len(weights) - 1:
            x = t.relu(x)
    return x


DTYPES = [np.float32, np.float64]


class TestFusedNodesBitEqual:
    """Each fused node gives the exact bits of the chain of primitives it replaces."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dims", [[32, 32, 32, 32], [32, 128, 32], [32, 32, 1], [32, 32]])
    def test_mlp(self, dtype, dims):
        shapes = [(97, dims[0])]
        for i in range(len(dims) - 1):
            shapes += [(dims[i], dims[i + 1]), (1, dims[i + 1])]

        def build(stack):
            def run(t, x, *layers):
                # x also feeds a second consumer, as a residual stream does. A one-layer
                # stack (x @ w + b, the model's projections) reads x through a relu, so its
                # input's gradient is accumulated, not donated.
                h = t.relu(x) if len(dims) == 2 else x
                h = stack(t, h, list(layers[0::2]), list(layers[1::2]))
                return t.add(h, t.scale(t.sum(x), 0.5))
            return run

        assert_bit_equal(run_both(build(mlp_chain), build(Tape.mlp), shapes, dtype, 4))

    @staticmethod
    def assert_mlp_keeps_the_chains_bits(dims, rows, dtype):
        """A non-recording mlp over ``rows`` rows against the recording node and the chain.

        Returns whether it streamed, read from its traced peak: a streamed stack never
        holds its widest hidden activation whole.
        """
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, dims[0])).astype(dtype)
        weights = [Parameter(f"w{i}", rng.standard_normal(dims[i:i + 2]).astype(dtype))
                   for i in range(len(dims) - 1)]
        biases = [Parameter(f"b{i}", rng.standard_normal((1, dims[i + 1])).astype(dtype))
                  for i in range(len(dims) - 1)]
        given = x.copy()
        loose = Tape(grad=False)
        tracemalloc.start()
        try:
            streamed = loose.mlp(loose.tensor(x), weights, biases).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values = [streamed] + [stack(t, t.tensor(x), weights, biases).data
                               for t, stack in ((Tape(), Tape.mlp), (Tape(), mlp_chain))]
        assert len(loose) == 0 and streamed.dtype == dtype
        assert bits(values[0]) == bits(values[1]) == bits(values[2]), (dims, rows)
        assert bits(x) == bits(given)
        out = rows * dims[-1] * x.itemsize
        return peak < out + rows * max(dims[1:-1], default=0) * x.itemsize

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_mlp_without_recording(self, dtype, layers):
        # A tape that does not record keeps no layer inputs; its value keeps the bits of
        # the recording node and of the chain, and its input is left as it was. Stacks
        # with a hidden layer 4x wider than the input (the FFN, and a 3-layer one)
        # stream their rows in 4 pieces once each piece's products are above BLAS's
        # small-matrix size: 4,001 and 6,630 rows, which 4 does not divide. At 5, 135
        # and 901 rows (where the whole 128 -> 32 product is above that size and a
        # quarter of it is not) they run whole.
        stacks = {1: [[32, 32]], 2: [[32, 128, 32]], 3: [[32, 32, 32, 32], [32, 128, 96, 32]]}[layers]
        for dims, rows in itertools.product(stacks, [5, 135, 901, 4001, 6630]):
            streams = max(dims[1:-1], default=0) > dims[0] and rows > 1000
            pieces = _mlp_pieces(rows, [np.zeros(dims[i:i + 2]) for i in range(len(dims) - 1)])
            assert len(pieces or [None]) == (4 if streams else 1), (dims, rows)
            assert self.assert_mlp_keeps_the_chains_bits(dims, rows, dtype) == streams, (dims, rows)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", [8, 16, 20, 64, 128])
    def test_streamed_ffn_keeps_the_bits_at_other_widths(self, dtype, d):
        # The FFN (d -> 4d -> d) streams from 4 * least rows, where a piece of ``least``
        # rows first multiplies more than 10^6 (OpenBLAS's small-matrix size) in each
        # layer. Below that count (half of it lies where the whole product is above that
        # size and each quarter below, where OpenBLAS gave pieces other last bits at
        # d = 8, 20 and 128) the block runs whole; from it on, counts 4 does and does
        # not divide keep the chain's bits.
        least = 10 ** 6 // (4 * d * d) + 1
        for rows in (2 * least, 4 * least - 1, 4 * least, 4 * least + 1, 4 * least + 3, 7 * least + 5):
            assert self.assert_mlp_keeps_the_chains_bits([d, 4 * d, d], rows, dtype) == (rows >= 4 * least)

    def test_mlp_pieces_follow_the_shapes(self):
        # four near-equal pieces for d -> 4d -> d, none of whose products is at or under
        # the small-matrix size; the narrowest layer sets the floor, and no piece holds
        # one row, even where one row's product would be above that size
        ffn = [np.zeros((32, 128)), np.zeros((128, 32))]
        assert _mlp_pieces(979, ffn) is None
        assert _mlp_pieces(981, ffn) == [(0, 245), (245, 490), (490, 735), (735, 981)]
        stack = [np.zeros((32, 128)), np.zeros((128, 96)), np.zeros((96, 32))]
        assert [len(_mlp_pieces(rows, stack) or [None]) for rows in (4 * 326 - 1, 4 * 326)] == [1, 4]
        assert _mlp_pieces(5000, [np.zeros((32, 32)), np.zeros((32, 32))]) is None
        wide = [np.zeros((1000, 4000), dtype=np.float32), np.zeros((4000, 1000), dtype=np.float32)]
        assert 4000 * 1000 > _SMALL_PRODUCT_MACS
        assert [_mlp_pieces(rows, wide) for rows in (7, 8)] == [None, [(0, 2), (2, 4), (4, 6), (6, 8)]]

    def test_mlp_rejects_mismatched_layers_whether_or_not_it_streams(self):
        for rows, grad in itertools.product([5, 4001], [True, False]):
            t = Tape(grad=grad)
            x = t.tensor(np.ones((rows, 32)))
            ws = [Parameter("w0", np.ones((32, 128))), Parameter("w1", np.ones((128, 32)))]
            bs = [Parameter("b0", np.ones((1, 128))), Parameter("b1", np.ones((1, 32)))]
            for bad_ws, bad_bs in [(ws, [bs[0], Parameter("b1", np.ones((1, 31)))]),
                                   ([ws[0], Parameter("w1", np.ones((127, 32)))], bs)]:
                with pytest.raises(ShapeError, match="mlp"):
                    t.mlp(x, bad_ws, bad_bs)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", [5, 32, 96])
    def test_layer_norm_variance_is_np_var(self, dtype, d):
        rng = np.random.default_rng(d)
        a = (rng.standard_normal((97, d)) * rng.uniform(0.01, 100.0, (97, 1))).astype(dtype)
        gain, bias = rng.standard_normal((2, 1, d)).astype(dtype)
        given = a.copy()
        inv = 1.0 / np.sqrt(a.var(axis=1, keepdims=True) + 1e-5)
        for t in (Tape(), Tape(grad=False)):   # both normalize in place, into a new array
            out = t.layer_norm(t.tensor(a), t.tensor(gain), t.tensor(bias), eps=1e-5)
            assert bits(out.data) == bits((a - a.mean(axis=1, keepdims=True)) * inv * gain + bias)
            assert bits(a) == bits(given)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["row-times-wide", "column-out"])
    def test_matmul_outer_product_adjoint(self, dtype, case):
        # a contracted dimension of 1 runs as a broadcast product; @ is the reference
        rng = np.random.default_rng(3)
        ashape, bshape = {"row-times-wide": ((1, 32), (32, 2944)),
                          "column-out": ((97, 32), (32, 1))}[case]
        a = Parameter("a", rng.standard_normal(ashape).astype(dtype))
        b = Parameter("b", rng.standard_normal(bshape).astype(dtype))
        g = rng.standard_normal((ashape[0], bshape[1])).astype(dtype)
        t = Tape()
        out = t.matmul(a, b)
        t.backward(t.sum(t.mul(out, t.tensor(g))))
        assert bits(a.grad) == bits(g @ b.data.T)
        assert bits(b.grad) == bits(a.data.T @ g)


def excluded_graph():
    """Facts with (0, r0, 1) stored twice and a self-loop (2, r1, 2); both are excluded."""
    trips = [Triplet(0, 0, 1), Triplet(0, 0, 1), Triplet(1, 1, 3), Triplet(2, 1, 2),
             Triplet(3, 0, 0), Triplet(2, 0, 1), Triplet(4, 1, 4), Triplet(1, 0, 2)]
    graph = build_graph(trips, 6, 2)
    ends = [graph.excluded_edge_endpoints(0, 0, 1), graph.excluded_edge_endpoints(2, 1, 2)]
    exclude = tuple(np.concatenate(cols) for cols in zip(*ends))
    assert len(exclude[0]) == 6  # two copies and their inverses; the loop and its inverse
    return graph, exclude


def excluded_chain(t, z, rhat, graph, exclude):
    """The gather -> gather -> mul -> scatter -> scale -> add chain that excluded an edge."""
    src, rel, tgt = exclude
    agg = t.relational_aggregate(z, rhat, graph)
    leak = t.mul(t.gather_rows(z, src), t.gather_rows(rhat, rel))
    return t.add(agg, t.scale(t.scatter_add_rows(graph.num_entities, tgt, leak), -1.0))


def excluded_rounds(aggregate, graph, exclude):
    """Two message rounds over one rhat, the state z also gated by a retain row (as in the model)."""
    def run(t, x, w, b, retain, rhat):
        z = t.mlp(x, [w], [b])
        for _ in range(2):
            z = t.add(t.mul(z, retain), aggregate(t, z, rhat, graph, exclude))
        return z
    return run


class TestExcludedAggregate:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_equal_to_chain(self, dtype, seed):
        graph, exclude = excluded_graph()
        d = 5
        shapes = [(graph.num_entities, d), (d, d), (1, d), (1, d), (graph.num_relations, d)]
        assert_bit_equal(run_both(excluded_rounds(excluded_chain, graph, exclude),
                                  excluded_rounds(Tape.relational_aggregate, graph, exclude),
                                  shapes, dtype, seed))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bit_equal_on_umls_queries(self, dtype):
        graph = umls_graph()
        rng = np.random.default_rng(11)
        edges = facts(graph)
        for e in rng.choice(len(edges), 4, replace=False):
            h, r, tail = edges[e]
            exclude = graph.excluded_edge_endpoints(h, r, tail)
            shapes = [(graph.num_entities, 8), (8, 8), (1, 8), (1, 8), (graph.num_relations, 8)]
            assert_bit_equal(run_both(excluded_rounds(excluded_chain, graph, exclude),
                                      excluded_rounds(Tape.relational_aggregate, graph, exclude),
                                      shapes, dtype, int(e)))

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences(self, seed):
        graph, exclude = excluded_graph()
        weights = np.random.default_rng(60 + seed).standard_normal((graph.num_entities, 3))

        def build(t, z, rhat):
            return t.mul(t.relational_aggregate(z, rhat, graph, exclude), t.tensor(weights))

        run_op_check(build, [(graph.num_entities, 3), (graph.num_relations, 3)], seed)

    def test_excluding_every_fact_leaves_zero(self):
        graph, _ = excluded_graph()
        everything = (graph.in_src, graph.in_rel, graph.in_tgt)
        rng = np.random.default_rng(0)
        t = Tape()
        out = t.relational_aggregate(t.tensor(rng.standard_normal((6, 4))),
                                     t.tensor(rng.standard_normal((4, 4))), graph, everything)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_exclude_lengths_must_match(self):
        graph, (src, rel, tgt) = excluded_graph()
        t = Tape()
        with pytest.raises(ShapeError):
            t.relational_aggregate(t.tensor(np.ones((6, 3))), t.tensor(np.ones((4, 3))), graph,
                                   (src, rel[:-1], tgt))


# --- pair tables against the direct plan ---------------------------------------


class DirectPlan:
    """A ProductSumPlan that multiplies every slot's operands: the oracle for the pair table.

    Same segments, buckets, padding and folds, built and run as the plan was
    before it shared products between slots.
    """

    def __init__(self, keys, num_keys, ia, num_a, ib, num_b):
        self.num_keys, self.num_a, self.num_b = int(num_keys), int(num_a), int(num_b)
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        order = np.argsort(keys, kind="stable")
        ia = np.asarray(ia, dtype=np.int64).reshape(-1)[order]
        ib = np.asarray(ib, dtype=np.int64).reshape(-1)[order]
        lengths = np.bincount(keys, minlength=self.num_keys)
        starts = np.cumsum(lengths) - lengths
        live = np.flatnonzero(lengths)
        segs = live[np.argsort(lengths[live], kind="stable")]
        seg_len = lengths[segs]
        length_class = np.frexp(seg_len - 1)[1]
        cuts = [0, *(np.flatnonzero(np.diff(length_class)) + 1).tolist(), len(segs)] if len(segs) else [0]
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

    def run(self, a, b):
        d = a.shape[1]
        out = np.zeros((self.num_keys, d), dtype=np.result_type(a, b))
        b = np.concatenate((b, np.zeros((1, d), dtype=b.dtype)))
        for keys, ia, ib, k in self.buckets:
            prod = a.take(ia, axis=0)
            prod *= b.take(ib, axis=0)
            prod = prod.reshape(k, -1)
            while k > 1:
                half = k // 2
                prod[:half] += prod[k - half:k]
                k -= half
            out[keys] = prod[0].reshape(-1, d)
        return out


PLAN_ARGS = {  # graph -> ProductSumPlan arguments, as KnowledgeGraph's plans pass them
    "by_target": lambda g: (g.in_tgt, g.num_entities, g.in_src, g.num_entities, g.in_rel, g.num_relations),
    "by_source": lambda g: (g.in_src, g.num_entities, g.in_tgt, g.num_entities, g.in_rel, g.num_relations),
    "by_relation": lambda g: (g.in_rel, g.num_relations, g.in_tgt, g.num_entities, g.in_src, g.num_entities),
}


def dense_graph():
    """8 entities, 2 relations, 600 facts: every (entity, relation) product fills many slots."""
    return random_graph(np.random.default_rng(21), 8, 2, 600)


def umls_share_graph(share=0.03, seed=0):
    """A seeded share of UMLS's training facts, the size one epoch of the smoke workload sees."""
    ds = load_dataset(UMLS_DIR)
    train = np.asarray(ds.train, dtype=np.int64)
    pick = np.sort(np.random.default_rng(seed).choice(len(train), size=round(len(train) * share),
                                                      replace=False))
    return build_graph(train[pick], ds.num_entities, ds.num_relations)


def sparse_shaped_graph(seed=1):
    """WN18RR-shaped: Zipf(0.8) endpoints over 8,000 entities, 16,800 facts over 11 skewed relations.

    About 6.6k entities are touched; with inverses, 33,600 facts over 22 relations.
    """
    rng = np.random.default_rng(seed)
    n, facts = 8000, 16800
    popularity = 1.0 / np.arange(1, n + 1) ** 0.8
    ids = rng.permutation(n)
    rel_p = 0.5 ** np.arange(11)
    heads = ids[rng.choice(n, size=facts, p=popularity / popularity.sum())]
    tails = ids[rng.choice(n, size=facts, p=popularity / popularity.sum())]
    rels = rng.choice(11, size=facts, p=rel_p / rel_p.sum())
    return build_graph(np.stack([heads, rels, tails], axis=1), n, 11)


PAIR_GRAPHS = {  # name -> (graph, plans that use the pair table)
    "umls": (umls_graph, {"by_target", "by_source"}),
    "dense": (dense_graph, {"by_target", "by_source", "by_relation"}),
    "umls-3%": (umls_share_graph, set()),
    "sparse-shaped": (sparse_shaped_graph, set()),
    "isolated-duplicates": (isolated_and_duplicate_graph, set()),
    "no-edges": (lambda: build_graph([], 4, 2), set()),
}


def special_values(rng, shape, dtype):
    """Normal draws with +0, -0, +-inf and NaN planted in a tenth of the entries each."""
    x = rng.standard_normal(shape)
    for value in (0.0, -0.0, np.inf, -np.inf, np.nan):
        x[rng.random(shape) < 0.1] = value
    return x.astype(dtype)


class TestPairTable:
    """The pair table's products and sums are the direct plan's, bit for bit."""

    @pytest.mark.parametrize("name", sorted(PAIR_GRAPHS))
    def test_table_chosen_by_reuse(self, name):
        build, paired = PAIR_GRAPHS[name]
        graph = build()
        assert {p for p in PLAN_ARGS if getattr(graph, p).pairs is not None} == paired

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float64, np.float64),
                                        (np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("specials", [False, True])
    @pytest.mark.parametrize("name", ["umls", "dense", "umls-3%", "isolated-duplicates"])
    def test_run_bit_equal_to_direct(self, name, specials, dtypes):
        graph = PAIR_GRAPHS[name][0]()
        rng = np.random.default_rng(5)
        draw = special_values if specials else lambda r, shape, dt: r.standard_normal(shape).astype(dt)
        for plan_name, args in PLAN_ARGS.items():
            plan = getattr(graph, plan_name)
            a = draw(rng, (plan.num_a, 7), dtypes[0])
            b = draw(rng, (plan.num_b, 7), dtypes[1])
            with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
                got, want = plan.run(a, b), DirectPlan(*args(graph)).run(a, b)
            assert got.dtype == want.dtype and bits(got) == bits(want), plan_name

    def test_sparse_shaped_run_bit_equal_to_direct(self):
        graph = sparse_shaped_graph()
        rng = np.random.default_rng(6)
        for plan_name in ("by_target", "by_source"):
            plan = getattr(graph, plan_name)
            a = special_values(rng, (plan.num_a, 4), np.float32)
            b = special_values(rng, (plan.num_b, 4), np.float32)
            with np.errstate(invalid="ignore"):
                got, want = plan.run(a, b), DirectPlan(*PLAN_ARGS[plan_name](graph)).run(a, b)
            assert bits(got) == bits(want), plan_name

    def test_run_rejects_operands_off_the_plan(self):
        # the table gathers without bounds checks, so run checks the operands' shapes
        plan = dense_graph().by_target
        assert plan.pairs is not None
        a, b = np.ones((plan.num_a, 3)), np.ones((plan.num_b, 3))
        for bad in [(a[:-1], b), (a, b[:-1]), (a, b[:, :2])]:
            with pytest.raises(ShapeError, match="ProductSumPlan.run"):
                plan.run(*bad)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_aggregate_and_adjoints_bit_equal_on_umls(self, dtype):
        graph = umls_graph()
        rng = np.random.default_rng(8)
        z = Parameter("z", rng.standard_normal((graph.num_entities, 32)).astype(dtype))
        rhat = Parameter("rhat", rng.standard_normal((graph.num_relations, 32)).astype(dtype))
        g = rng.standard_normal((graph.num_entities, 32)).astype(dtype)
        t = Tape()
        out = t.relational_aggregate(z, rhat, graph)
        t.backward(t.sum(t.mul(out, t.tensor(g))))
        direct = {name: DirectPlan(*args(graph)) for name, args in PLAN_ARGS.items()}
        assert bits(out.data) == bits(direct["by_target"].run(z.data, rhat.data))
        assert bits(z.grad) == bits(direct["by_source"].run(g, rhat.data))
        assert bits(rhat.grad) == bits(direct["by_relation"].run(g, z.data))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_direct_run_multiplies_in_pieces(self, dtype):
        # 40 keys of 65-128 slots each over 300 rows of a: one bucket of 40 x (longest) slots,
        # which the direct path multiplies by b in pieces of 300 + _BUCKET_COST_ROWS rows
        rng = np.random.default_rng(9)
        keys = np.repeat(np.arange(40), rng.integers(65, 129, size=40))
        args = (keys, 40, rng.integers(300, size=len(keys)), 300, rng.integers(40, size=len(keys)), 40)
        plan = ProductSumPlan(*args)
        assert plan.pairs is None and len(plan.buckets) == 1
        assert len(plan.buckets[0][1]) > 8 * (300 + _BUCKET_COST_ROWS)
        a = special_values(rng, (300, 7), dtype)
        b = special_values(rng, (40, 7), dtype)
        with np.errstate(invalid="ignore"):
            got, want = plan.run(a, b), DirectPlan(*args).run(a, b)
        assert got.dtype == want.dtype and bits(got) == bits(want)

    @pytest.mark.parametrize("name", ["sparse-shaped", "umls"])
    def test_build_memory(self, name):
        # counting pairs marks a boolean key space: no sort, and it runs after the
        # sorted copies are freed; a paired bucket holds one index per slot, not two
        build, paired = PAIR_GRAPHS[name]
        args = PLAN_ARGS["by_target"](build())
        peak, held = {}, {}
        for plan_type in (DirectPlan, ProductSumPlan):
            tracemalloc.start()
            try:
                plan = plan_type(*args)
                held[plan_type], peak[plan_type] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert (plan.pairs is not None) == ("by_target" in paired)
        assert peak[ProductSumPlan] <= 1.25 * peak[DirectPlan], peak
        if paired:
            assert held[ProductSumPlan] <= held[DirectPlan], held
