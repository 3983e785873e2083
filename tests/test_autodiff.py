"""Adjoint correctness and contract tests for the autodiff engine."""

import os

import numpy as np
import pytest

from conftest import chain_graph, random_graph
from kgreason import data
from kgreason.autodiff import (
    ContractError,
    DeterminismError,
    Parameter,
    RowIndex,
    ShapeError,
    Tape,
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
        idx = RowIndex(rng.integers(0, 6, size=11))

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
        out = t.scatter_add_rows(2, RowIndex([0, 0, 1]), t.tensor([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_scatter_after_gather_identity_on_unique_rows(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3))
        idx = RowIndex([2, 0, 4])  # each row index appears exactly once
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
        assert len(t) == 0 and x.data[0, 0] == 1.0


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
        assert report.passed, report.failures

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
        assert [id(k) for k in built] == [id(graph.in_tgt.idx), id(graph.in_src.idx),
                                          id(graph.in_rel.idx)]

    def test_shape_mismatch_rejected(self):
        graph = chain_graph(4)
        t = Tape()
        with pytest.raises(ShapeError):
            t.relational_aggregate(t.tensor(np.ones((4, 3))), t.tensor(np.ones((3, 3))), graph)
        with pytest.raises(ShapeError):
            t.relational_aggregate(t.tensor(np.ones((4, 3))), t.tensor(np.ones((2, 2))), graph)
