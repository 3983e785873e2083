"""Architecture tests: message passing, kernels, attention, full forward."""

import gc
import os
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import chain_graph, facts, make_config, make_model, random_graph
from kgreason.autodiff import Tape, grad_check
from kgreason.cli import load_run_config
from kgreason.data import Query, Triplet, build_graph
from kgreason.model import (
    DENSE_GUARD,
    LAYER_NORM_EPS,
    ConfigError,
    DenseScopeError,
    ModelParams,
    dense_attention,
    dense_attention_oracle,
    forward,
    head_indicator,
    layer0_query_side,
    linear_attention,
    make_noise,
    pin_noise,
    relation_transform,
    rmpnn_forward,
    score_query,
    transformer_layer,
    ForwardState,
)
from kgreason.training import negative_sampling_loss

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def traced_peak_site(fn):
    """Run ``fn`` under ``tracemalloc``; return the call stack that reached its peak traced bytes.

    A ``sys.setprofile`` hook reads the peak at every Python and C call and
    return, then resets it, so each rise is charged to the calls running when
    it was seen: a C function's own allocations to that function and its
    Python callers, innermost first.
    """
    peak, site = 0, None

    def watch(frame, event, arg):
        nonlocal peak, site
        now = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        if now > peak:
            stack = [arg.__name__] if event.startswith("c_") else []
            while frame is not None and len(stack) < 5:
                stack.append(f"{frame.f_code.co_name}:{frame.f_lineno}")
                frame = frame.f_back
            peak, site = now, " < ".join(stack)

    tracemalloc.start()
    sys.setprofile(watch)
    try:
        fn()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return site


# --- independent oracles -----------------------------------------------------


def mlp_np(x, mlp):
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        x = x @ w.data + b.data
        if i < last:
            x = np.maximum(x, 0.0)
    return x


def rmpnn_edge_loop_oracle(edges, num_entities, x, extra, relations, rq, net):
    """Reference message passing: explicit python loop over fact instances."""
    d = net.proj_b.data.shape[1]
    z = np.concatenate([x, extra], axis=1) @ net.proj_w.data + net.proj_b.data
    num_rel = net.rel_b.data.shape[0]
    rhat = np.stack([
        relations.data[rq] @ net.rel_w.data[:, r * d:(r + 1) * d] + net.rel_b.data[r]
        for r in range(num_rel)
    ])
    for rnd in net.rounds:
        agg = np.zeros_like(z)
        for h, r, t in edges:
            agg[t] += z[h] * rhat[r]
        z = mlp_np(rnd.retain.data * z + agg, rnd.update)
    return z


# --- relational messages -----------------------------------------------------


class TestRelationalMessage:
    def test_identity_of_elementwise_product(self):
        cfg, params = make_model(num_relations=2, seed=1)
        net = params.layers[0].query_net
        net.rel_w.data[...] = 0.0
        net.rel_b.data[...] = 1.0  # every r_hat row becomes the all-ones vector
        t = Tape()
        rhat = relation_transform(t, params.relations, 0, net)
        np.testing.assert_allclose(rhat.data, 1.0)

    def test_zero_state_absorbs(self):
        # all-zero initial states send zero messages along every edge, so each
        # row is the first round's update of zero, as on an edgeless graph
        cfg, params = make_model(num_relations=2, seed=2)
        net = params.layers[0].query_net
        g = chain_graph(4)
        t = Tape()
        zeros = np.zeros((4, cfg.hidden_dim))
        out = rmpnn_forward(t, g, t.tensor(zeros), 1, params.relations, net, zeros)
        expected = mlp_np(np.zeros((1, cfg.hidden_dim)), net.rounds[0].update)
        np.testing.assert_allclose(out.data, np.repeat(expected, 4, axis=0), atol=1e-12)

    def test_matches_scalar_loop_at_d4(self):
        cfg, params = make_model(num_relations=3, seed=3, hidden_dim=4)
        net = params.layers[0].query_net
        rq = 2
        t = Tape()
        rhat = relation_transform(t, params.relations, rq, net)
        expected = np.array([[
            sum(params.relations.data[rq, i] * net.rel_w.data[i, rel * 4 + j] for i in range(4))
            + net.rel_b.data[rel, j]
            for j in range(4)] for rel in range(3)
        ])
        np.testing.assert_allclose(rhat.data, expected, atol=1e-12)


# --- query-side message passing ----------------------------------------------


class TestQrmpnn:
    def test_empty_graph_is_pure_self_term(self):
        cfg, params = make_model(num_relations=2, seed=4)
        g = build_graph([], num_entities=3, num_base_relations=1)
        net = params.layers[0].query_net
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, cfg.hidden_dim))
        eps = rng.standard_normal((3, cfg.hidden_dim))
        t = Tape()
        out = rmpnn_forward(t, g, t.tensor(x), 0, params.relations, net, eps)
        z0 = np.concatenate([x, eps], 1) @ net.proj_w.data + net.proj_b.data
        expected = mlp_np(net.rounds[0].retain.data * z0, net.rounds[0].update)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_chain_row_receives_predecessor_message(self):
        # identity-like weights: projection keeps x, r_hat is all-ones, update
        # MLP is identity on nonnegative inputs, so row 1 = x1 + x0 after one round
        cfg, params = make_model(num_relations=1, seed=5, hidden_dim=2)
        g = chain_graph(3, add_inverse=False)
        net = params.layers[0].query_net
        d = 2
        net.proj_w.data[...] = np.vstack([np.eye(d), np.zeros((d, d))])
        net.proj_b.data[...] = 0.0
        net.rel_w.data[...] = 0.0
        net.rel_b.data[...] = 1.0
        rnd = net.rounds[0]
        rnd.retain.data[...] = 1.0
        for w, b in zip(rnd.update.weights, rnd.update.biases):
            w.data[...] = np.eye(d)
            b.data[...] = 0.0
        x = np.array([[1.0, 2.0], [0.25, 0.5], [0.0, 0.0]])
        t = Tape()
        out = rmpnn_forward(t, g, t.tensor(x), 0, params.relations, net,
                             np.zeros((3, d)))
        np.testing.assert_allclose(out.data[1], x[1] + x[0], atol=1e-12)
        np.testing.assert_allclose(out.data[2], x[2] + x[1], atol=1e-12)
        np.testing.assert_allclose(out.data[0], x[0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_edge_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        cfg, params = make_model(num_relations=4, seed=100 + seed, query_layers=2)
        g = random_graph(rng, num_entities=8, num_base_relations=2, num_edges=14)
        net = params.layers[0].query_net
        x = rng.standard_normal((8, cfg.hidden_dim))
        eps = rng.standard_normal((8, cfg.hidden_dim))
        t = Tape()
        out = rmpnn_forward(t, g, t.tensor(x), 1, params.relations, net, eps)
        expected = rmpnn_edge_loop_oracle(facts(g), 8, x, eps, params.relations, 1, net)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_identical_neighborhoods_identical_rows(self):
        # two leaves hanging off the same hub by the same relation
        trips = [Triplet(0, 0, 1), Triplet(0, 0, 2)]
        g = build_graph(trips, 3, 1, add_inverse=True)
        cfg, params = make_model(num_relations=2, seed=6, query_layers=2)
        net = params.layers[0].query_net
        t = Tape()
        x = t.tensor(np.zeros((3, cfg.hidden_dim)))
        out = rmpnn_forward(t, g, x, 0, params.relations, net, np.zeros((3, cfg.hidden_dim)))
        np.testing.assert_allclose(out.data[1], out.data[2], atol=1e-12)


class TestVrmpnn:
    def test_head_labeling_marks_one_row(self):
        cfg, params = make_model(num_relations=2, seed=7)
        g = build_graph([], num_entities=4, num_base_relations=1)
        net = params.layers[0].value_net
        t = Tape()
        x = t.tensor(np.zeros((4, cfg.hidden_dim)))
        out = rmpnn_forward(t, g, x, 0, params.relations, net, head_indicator(cfg, 4, 2))
        others = [0, 1, 3]
        for u in others[1:]:
            np.testing.assert_allclose(out.data[u], out.data[others[0]], atol=1e-12)
        assert np.abs(out.data[2] - out.data[0]).max() > 1e-6

    def test_zero_value_layers_rejected(self):
        with pytest.raises(ConfigError):
            make_config(value_layers=0)

    def test_unreachable_entities_share_rows(self):
        # head influence travels one hop per round; with 2 rounds entities
        # 4 and 5 on a 6-chain look identical from head 0 when X = 0
        g = chain_graph(6)
        cfg, params = make_model(num_relations=2, seed=8, value_layers=2)
        net = params.layers[0].value_net
        t = Tape()
        x = t.tensor(np.zeros((6, cfg.hidden_dim)))
        out = rmpnn_forward(t, g, x, 0, params.relations, net, head_indicator(cfg, 6, 0))
        np.testing.assert_allclose(out.data[4], out.data[5], atol=1e-12)
        assert np.abs(out.data[1] - out.data[4]).max() > 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_edge_loop_oracle(self, seed):
        rng = np.random.default_rng(50 + seed)
        cfg, params = make_model(num_relations=4, seed=200 + seed, value_layers=2)
        g = random_graph(rng, num_entities=7, num_base_relations=2, num_edges=10)
        net = params.layers[0].value_net
        x = rng.standard_normal((7, cfg.hidden_dim))
        head = 3
        indicator = np.zeros((7, cfg.hidden_dim))
        indicator[head] = 1.0
        t = Tape()
        out = rmpnn_forward(t, g, t.tensor(x), 0, params.relations, net, head_indicator(cfg, 7, head))
        expected = rmpnn_edge_loop_oracle(facts(g), 7, x, indicator, params.relations, 0, net)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)


# --- attention -----------------------------------------------------------------


def random_head(d, num_relations, seed):
    cfg, params = make_model(num_relations=num_relations, seed=seed, hidden_dim=d)
    return cfg, params, params.layers[0]


class TestLinearAttention:
    def test_single_entity_matches_oracle(self):
        cfg, params, head = random_head(4, 2, 11)
        rng = np.random.default_rng(0)
        zt = rng.standard_normal((1, 4))
        zh = rng.standard_normal((1, 4))
        t = Tape()
        out = linear_attention(t, t.tensor(zt), t.tensor(zh), head)
        expected, _ = dense_attention_oracle(zt, zh, head)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.choice([8, 16, 32]))
        n = int(rng.integers(2, 51))
        cfg, params, head = random_head(d, 2, 300 + seed)
        zt = rng.standard_normal((n, d))
        zh = rng.standard_normal((n, d))
        t = Tape()
        out = linear_attention(t, t.tensor(zt), t.tensor(zh), head)
        expected, attn = dense_attention_oracle(zt, zh, head)
        assert np.abs(out.data - expected).max() <= 1e-10
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)

    def test_identical_input_rows_give_identical_outputs(self):
        cfg, params, head = random_head(6, 2, 12)
        rng = np.random.default_rng(1)
        zt = np.tile(rng.standard_normal((1, 6)), (7, 1))
        zh = np.tile(rng.standard_normal((1, 6)), (7, 1))
        t = Tape()
        out = linear_attention(t, t.tensor(zt), t.tensor(zh), head)
        for u in range(1, 7):
            np.testing.assert_allclose(out.data[u], out.data[0], atol=1e-12)

    def test_empty_entity_set_gives_empty_result(self):
        cfg, params, head = random_head(4, 2, 18)
        t = Tape()
        out = linear_attention(t, t.tensor(np.zeros((0, 4))), t.tensor(np.zeros((0, 4))), head)
        assert out.shape == (0, 4)

    def test_permutation_symmetry(self):
        cfg, params, head = random_head(5, 2, 13)
        rng = np.random.default_rng(2)
        zt = rng.standard_normal((6, 5))
        zh = rng.standard_normal((6, 5))
        perm = rng.permutation(6)
        t = Tape()
        base = linear_attention(t, t.tensor(zt), t.tensor(zh), head)
        permuted = linear_attention(t, t.tensor(zt[perm]), t.tensor(zh[perm]), head)
        np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-12)


class TestDenseOracle:
    def test_rows_sum_to_one(self, rng):
        cfg, params, head = random_head(8, 2, 14)
        _, attn = dense_attention_oracle(rng.standard_normal((20, 8)), rng.standard_normal((20, 8)), head)
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)
        assert attn.min() >= 0.0

    def test_full_exponential_differs_but_stays_stochastic(self, rng):
        cfg, params, head = random_head(8, 2, 15)
        zt = rng.standard_normal((20, 8))
        zh = rng.standard_normal((20, 8))
        out_a, attn_a = dense_attention_oracle(zt, zh, head, "approximate")
        out_e, attn_e = dense_attention_oracle(zt, zh, head, "full_exponential")
        assert np.abs(out_a - out_e).max() > 1e-8
        np.testing.assert_allclose(attn_a.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(attn_e.sum(axis=1), 1.0, atol=1e-12)

    def test_size_guard(self, rng):
        cfg, params, head = random_head(4, 2, 16)
        z = rng.standard_normal((DENSE_GUARD + 1, 4))
        with pytest.raises(DenseScopeError):
            dense_attention_oracle(z, z, head)

    def test_tape_dense_path_matches_oracle(self, rng):
        # the tape's dense path serves the exponential kernel only; criterion 1
        # gates the approximate kernel's linear path against the same oracle
        cfg, params, head = random_head(8, 2, 17)
        zt = rng.standard_normal((15, 8))
        zh = rng.standard_normal((15, 8))
        t = Tape()
        out = dense_attention(t, t.tensor(zt), t.tensor(zh), head)
        expected, _ = dense_attention_oracle(zt, zh, head, "full_exponential")
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


# --- transformer layer and full forward ------------------------------------------


class TestTransformerLayer:
    def test_output_shape_preserved(self, rng):
        cfg, params = make_model(num_relations=4, seed=20)
        g = random_graph(rng, 7, 2, 12)
        t = Tape()
        x = t.tensor(rng.standard_normal((7, cfg.hidden_dim)))
        q = Query(0, 1, 2, frozenset({2}))
        out = transformer_layer(t, g, x, q, params.relations, params.layers[0], cfg,
                                np.zeros((7, cfg.hidden_dim)))
        assert out.shape == (7, cfg.hidden_dim)

    def test_zero_ffn_reduces_to_layernorm(self, rng):
        cfg, params = make_model(num_relations=4, seed=21)
        layer = params.layers[0]
        for w in layer.ffn.weights:
            w.data[...] = 0.0
        for b in layer.ffn.biases:
            b.data[...] = 0.0
        g = random_graph(rng, 6, 2, 9)
        q = Query(1, 0, 3, frozenset({3}))
        noise = np.zeros((6, cfg.hidden_dim))

        t = Tape()
        x = t.tensor(rng.standard_normal((6, cfg.hidden_dim)))
        indicator = head_indicator(cfg, 6, q.head)
        out = transformer_layer(t, g, x, q, params.relations, layer, cfg, noise)

        t2 = Tape()
        x2 = t2.tensor(x.data)
        from kgreason.model import linear_attention as _att  # recompute A by hand
        zt = rmpnn_forward(t2, g, x2, q.relation, params.relations, layer.query_net, noise)
        zh = rmpnn_forward(t2, g, x2, q.relation, params.relations, layer.value_net, indicator)
        zb = _att(t2, zt, zh, layer)
        a = t2.layer_norm(t2.add(x2, zb), layer.ln1_gain, layer.ln1_bias, LAYER_NORM_EPS)
        expected = t2.layer_norm(a, layer.ln2_gain, layer.ln2_bias, LAYER_NORM_EPS)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_layer_gradients_match_finite_differences(self, rng):
        cfg, params = make_model(num_relations=2, seed=22, hidden_dim=4)
        g = random_graph(rng, 5, 1, 6)
        q = Query(0, 0, 1, frozenset({1}))
        noise = np.random.default_rng(5).standard_normal((5, 4))
        x_in = np.random.default_rng(6).standard_normal((5, 4))

        def loss_fn():
            t = Tape()
            out = transformer_layer(t, g, t.tensor(x_in), q, params.relations,
                                    params.layers[0], cfg, noise)
            return t, t.sum(t.sigmoid(out))

        report = grad_check(loss_fn, params.parameters(), step=1e-5, tolerance=1e-4)
        assert report.passed, report.errors


class TestForward:
    def test_scores_in_unit_interval(self, rng):
        cfg, params = make_model(num_relations=4, seed=23, attention_layers=2,
                                 noise_mode="fixed_seed")
        g = random_graph(rng, 8, 2, 15)
        scores = score_query(g, Query(2, 1, 5, frozenset({5})), params, cfg)
        assert scores.shape == (8,)
        assert np.all(scores > 0) and np.all(scores < 1)

    def test_fixed_seed_forward_is_bit_identical(self, rng):
        cfg, params = make_model(num_relations=4, seed=24, noise_mode="fixed_seed")
        g = random_graph(rng, 8, 2, 15)
        q = Query(0, 0, 3, frozenset({3}))
        s1 = score_query(g, q, params, cfg)
        s2 = score_query(g, q, params, cfg)
        assert s1.tobytes() == s2.tobytes()

    def test_training_query_tape_size(self, rng):
        # two layers, two rounds per network, the query's own edge excluded: ~120 nodes
        cfg, params = make_model(num_relations=4, seed=26, attention_layers=2, query_layers=2,
                                 value_layers=2, noise_mode="per_forward")
        g = random_graph(rng, 12, 2, 20)
        h, r, t_ = facts(g)[0]
        tape = Tape()
        scores = forward(tape, g, Query(h, r, t_, frozenset({t_})), params, cfg,
                         noise=rng.standard_normal((12, cfg.hidden_dim)), exclude_query_edge=True)
        loss = negative_sampling_loss(tape, scores, t_, np.array([i for i in range(5) if i != t_]))
        tape.backward(tape.scale(loss, 0.25))
        assert len(tape) <= 130
        assert all(np.isfinite(p.grad).all() for p in params.parameters())

    def test_training_query_op_counts(self, rng):
        # the shipped UMLS architecture: a training query's 120 nodes, counted per op
        cfg = load_run_config(os.path.join(CONFIGS, "umls.cfg"))["model"]
        params = ModelParams(cfg, 4, np.random.default_rng(27))
        g = random_graph(rng, 12, 2, 20)
        h, r, t_ = facts(g)[0]
        tape = Tape()
        scores = forward(tape, g, Query(h, r, t_, frozenset({t_})), params, cfg,
                         noise=make_noise(cfg, 12, rng), exclude_query_edge=True)
        loss = negative_sampling_loss(tape, scores, t_, np.array([i for i in range(5) if i != t_]))
        tape.backward(tape.scale(loss, 1.0 / 16))
        counts = tape.op_counts()
        assert sum(counts.values()) == len(tape) == 120
        assert counts["relational_aggregate"] == 8  # 2 layers x (query, value) net x 2 rounds
        assert counts["layer_norm"] == 4 and counts["sigmoid"] == 1
        # one-layer projections are mlp nodes too: per layer, the two networks' input
        # projections and 4 update rounds, q, k and the FFN; then the scorer
        assert counts["mlp"] == 2 * (2 + 4 + 2 + 1) + 1 and "linear" not in counts
        # No backward closure holds its tape, so dropping the tape frees its arrays at
        # once; a cycle would leave every training query's tape to the cycle collector.
        freed = weakref.ref(tape)
        gc.disable()
        try:
            del tape
            assert freed() is None
        finally:
            gc.enable()

    def test_inference_forward_peak_memory(self):
        # The sparse config's architecture (3 layers, 2 + 3 rounds, d = 32) on a 4000-entity
        # graph whose endpoints follow Zipf(0.8), as WN18RR's roughly do, so no one edge
        # bucket outweighs the (|V|, d) tensors. An inference forward frees each (|V|, d)
        # intermediate once its last reader has run, streams the FFN's 4d-wide hidden
        # layer, builds the head indicator for the value network alone, and multiplies
        # message passing's edge products in bounded pieces. It peaks at 7.17 blocks of
        # |V| x d, in float32 and in float64, inside a value network's message passing.
        # Holding the 4d-wide hidden layer whole and the head indicator for the whole
        # forward peaked at 9.18; keeping each layer's intermediates until the layer
        # returns, at 12.1.
        base = load_run_config(os.path.join(CONFIGS, "wn18rr_v1_ind.cfg"))["model"]
        n, m = 4000, 10000
        rng = np.random.default_rng(31)
        popularity = 1.0 / np.arange(1, n + 1) ** 0.8
        heads, tails = rng.permutation(n)[rng.choice(n, (2, m), p=popularity / popularity.sum())]
        trips = [Triplet(int(h), int(r), int(t))
                 for h, r, t in zip(heads, rng.integers(11, size=m), tails) if h != t]
        g = build_graph(trips, n, 11, add_inverse=True)
        q = Query(7, 3, 0, frozenset({0}))
        for precision in ("float32", "float64"):
            cfg = pin_noise(replace(base, precision=precision), 3)
            params = ModelParams(cfg, g.num_relations, np.random.default_rng(32), grads=False)
            score_query(g, q, params, cfg)  # first use of the graph's plans
            tracemalloc.start()
            try:
                score_query(g, q, params, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            block = n * cfg.hidden_dim * np.dtype(cfg.dtype).itemsize
            if peak >= 7.2 * block:
                site = traced_peak_site(lambda: score_query(g, q, params, cfg))
                pytest.fail(f"{precision} inference forward peaked at {peak / block:.2f} blocks of "
                            f"|V| x d, at {site}")

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_inference_forward_keeps_the_recording_bits(self, precision):
        # a Zipf(0.8) graph whose by_target plan has no pair table, so message passing takes
        # the direct path that multiplies in pieces; a tape that does not record frees its
        # intermediates early, and the scores keep the bits of a recording forward
        rng = np.random.default_rng(41)
        n, m = 300, 900
        popularity = 1.0 / np.arange(1, n + 1) ** 0.8
        heads, tails = rng.permutation(n)[rng.choice(n, (2, m), p=popularity / popularity.sum())]
        trips = [Triplet(int(h), int(r), int(t))
                 for h, r, t in zip(heads, rng.integers(5, size=m), tails) if h != t]
        g = build_graph(trips, n, 5, add_inverse=True)
        assert g.by_target.pairs is None
        cfg, params = make_model(num_relations=g.num_relations, seed=42, attention_layers=2,
                                 noise_mode="fixed_seed", precision=precision)
        noise = make_noise(cfg, n)
        q = Query(3, 2, 0, frozenset({0}))
        want = forward(Tape(), g, q, params, cfg, noise).data
        got = forward(Tape(grad=False), g, q, params, cfg, noise).data
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel_mode", ["approximate", "full_exponential"])
    def test_query_side_holds_only_what_its_kernel_reads(self, rng, kernel_mode):
        # the approximate kernel reads the keys alone, so its query side drops ztilde; a
        # forward that collects state runs layer 0's query network itself, and every
        # output keeps the bits of a forward without the query side
        cfg, params = make_model(num_relations=4, seed=38, attention_layers=2, kernel_mode=kernel_mode,
                                 noise_mode="fixed_seed")
        g = random_graph(rng, 9, 2, 16)
        q = Query(2, 1, 5, frozenset({5}))
        noise = make_noise(cfg, 9)
        side = layer0_query_side(g, q, params, cfg, noise)
        assert (side.ztilde is None) == (kernel_mode == "approximate")
        assert (side.keys is None) == (kernel_mode == "full_exponential")
        plain, sided = ForwardState(), ForwardState()
        want = forward(Tape(grad=False), g, q, params, cfg, noise, state=plain).data
        got = forward(Tape(grad=False), g, q, params, cfg, noise, state=sided, query_side=side).data
        assert got.tobytes() == want.tobytes()
        assert len(sided.query_reprs) == len(plain.query_reprs) == 2
        for a, b in zip(sided.query_reprs + sided.value_reprs, plain.query_reprs + plain.value_reprs):
            assert a.tobytes() == b.tobytes()
        assert score_query(g, q, params, cfg, noise, query_side=side).tobytes() == want[:, 0].tobytes()

    def test_state_collection_shapes(self, rng):
        cfg, params = make_model(num_relations=4, seed=25, attention_layers=2)
        g = random_graph(rng, 6, 2, 10)
        state = ForwardState()
        t = Tape(grad=False)
        forward(t, g, Query(0, 1, 2, frozenset({2})), params, cfg, state=state)
        assert len(state.value_reprs) == 2 and state.value_reprs[0].shape == (6, cfg.hidden_dim)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(77)
        n, r = 7, 2
        trips = [Triplet(int(rng.integers(n)), int(rng.integers(r)), int(rng.integers(n)))
                 for _ in range(11)]
        cfg, params = make_model(num_relations=2 * r, seed=26, attention_layers=2)
        g = build_graph(trips, n, r, add_inverse=True)
        noise = rng.standard_normal((n, cfg.hidden_dim))
        q = Query(3, 1, 0, frozenset({0}))
        base = score_query(g, q, params, cfg, noise=noise)

        perm = rng.permutation(n)
        permuted_trips = [Triplet(int(perm[h]), rel, int(perm[t])) for h, rel, t in trips]
        g2 = build_graph(permuted_trips, n, r, add_inverse=True)
        noise2 = np.empty_like(noise)
        noise2[perm] = noise
        q2 = Query(int(perm[q.head]), q.relation, int(perm[q.gold_tail]), frozenset())
        permuted = score_query(g2, q2, params, cfg, noise=noise2)
        np.testing.assert_allclose(permuted[perm], base, atol=1e-10)

    def test_parameter_names_unique_and_counted(self):
        cfg, params = make_model(num_relations=4, seed=29, attention_layers=2)
        names = [p.name for p in params.parameters()]
        assert len(names) == len(set(names))
        assert params.count() == sum(p.data.size for p in params.parameters())
        assert "layer1.head0.value.rel_w" in names and "relations" in names
        assert not any(".head1." in name or "merge" in name for name in names)
        # checkpoints list their tensors in this order, under these names
        _, params = make_model(num_relations=2, seed=29, hidden_dim=4)
        rmpnn = [(f"layer0.head0.{side}.{name}", shape) for side in ("query", "value") for name, shape in [
            ("proj_w", (8, 4)), ("proj_b", (1, 4)), ("rel_w", (4, 8)), ("rel_b", (2, 4)),
            ("round0.retain", (1, 4)),
            ("round0.update.w0", (4, 4)), ("round0.update.b0", (1, 4)),
            ("round0.update.w1", (4, 4)), ("round0.update.b1", (1, 4)),
            ("round0.update.w2", (4, 4)), ("round0.update.b2", (1, 4))]]
        assert [(p.name, p.data.shape) for p in params.parameters()] == [
            ("relations", (2, 4)), *rmpnn,
            ("layer0.head0.w1", (4, 4)), ("layer0.head0.b1", (1, 4)),
            ("layer0.head0.w2", (4, 4)), ("layer0.head0.b2", (1, 4)),
            ("layer0.ln1.gain", (1, 4)), ("layer0.ln1.bias", (1, 4)),
            ("layer0.ln2.gain", (1, 4)), ("layer0.ln2.bias", (1, 4)),
            ("layer0.ffn.w0", (4, 16)), ("layer0.ffn.b0", (1, 16)),
            ("layer0.ffn.w1", (16, 4)), ("layer0.ffn.b1", (1, 4)),
            ("scorer.w0", (4, 4)), ("scorer.b0", (1, 4)), ("scorer.w1", (4, 1)), ("scorer.b1", (1, 1))]

    def test_full_exponential_mode_routes_dense(self, rng):
        cfg, params = make_model(num_relations=2, seed=28, kernel_mode="full_exponential")
        g = random_graph(rng, 5, 1, 6)
        scores = score_query(g, Query(0, 0, 1, frozenset({1})), params, cfg)
        assert np.all((scores > 0) & (scores < 1))
        with pytest.raises(DenseScopeError):
            score_query(chain_graph(DENSE_GUARD + 1), Query(0, 0, 1, frozenset({1})), params, cfg)
