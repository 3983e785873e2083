"""Ranking and metric tests against sort-based and closed-form oracles."""

import os

import numpy as np
import pytest

from conftest import make_model, random_graph
from kgreason import evaluation, model
from kgreason.data import Query, build_graph, load_dataset, make_queries, query_filters
from kgreason.evaluation import (
    MetricsError,
    RankingError,
    compute_metrics,
    evaluate,
    query_filter_mask,
    rank_answer,
)
from kgreason.model import pin_noise, rmpnn_forward, score_query

UMLS_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "umls")


def sort_rank_oracle(scores, gold, filter_mask=None):
    """Independent reference: mean position of the gold inside the sorted pool."""
    n = len(scores)
    keep = np.ones(n, dtype=bool) if filter_mask is None else ~np.asarray(filter_mask)
    keep[gold] = True
    pool = np.asarray(scores)[keep]
    order = np.sort(pool)[::-1]
    gold_score = scores[gold]
    first = int(np.searchsorted(-order, -gold_score, side="left"))
    last = int(np.searchsorted(-order, -gold_score, side="right"))
    return float(np.mean(np.arange(first + 1, last + 1)))


class TestRankAnswer:
    def test_strictly_best_is_rank_one(self):
        assert rank_answer(np.array([0.1, 0.9, 0.3]), 1) == 1.0

    def test_all_tied_mean_rank(self):
        assert rank_answer(np.ones(5), 2) == 3.0  # 1 + 0 + 4/2

    def test_filtered_competitors_removed(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        mask = np.zeros(4, dtype=bool)
        mask[0] = True  # a known true tail outranks gold but is filtered
        assert rank_answer(scores, 2, mask) == 2.0

    def test_gold_masked_is_contract_error(self):
        mask = np.array([True, False])
        with pytest.raises(RankingError):
            rank_answer(np.array([0.5, 0.5]), 0, mask)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 101))
        # coarse quantization forces ties into the pool
        scores = np.round(rng.random(n), 2)
        gold = int(rng.integers(n))
        mask = rng.random(n) < 0.2
        mask[gold] = False
        assert rank_answer(scores, gold, mask) == pytest.approx(sort_rank_oracle(scores, gold, mask))

    def test_filtering_monotonicity(self):
        rng = np.random.default_rng(9)
        scores = rng.random(50)
        gold = 7
        mask = np.zeros(50, dtype=bool)
        prev = rank_answer(scores, gold, mask)
        for extra in [3, 12, 30, 44]:
            mask[extra] = True
            cur = rank_answer(scores, gold, mask)
            assert cur <= prev
            prev = cur

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(10)
        scores = rng.random(40)
        gold = 5
        mask = rng.random(40) < 0.15
        mask[gold] = False
        base = rank_answer(scores, gold, mask)
        for f in (lambda s: 3 * s + 1, np.exp, lambda s: np.log(s + 1.0)):
            assert rank_answer(f(scores), gold, mask) == base


class TestComputeMetrics:
    def test_perfect_ranks(self):
        m = compute_metrics([1, 1, 1])
        assert m.mrr == 1.0 and m.hits1 == m.hits3 == m.hits10 == 1.0

    def test_closed_form_124(self):
        m = compute_metrics([1, 2, 4])
        assert m.mrr == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert m.hits1 == pytest.approx(1 / 3)
        assert m.hits3 == pytest.approx(2 / 3)
        assert m.hits10 == 1.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            compute_metrics([])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        ranks = rng.integers(1, 50, size=200).astype(float)
        m = compute_metrics(ranks)
        assert m.mrr == pytest.approx(np.mean([1.0 / r for r in ranks]))
        for n, got in [(1, m.hits1), (3, m.hits3), (10, m.hits10)]:
            assert got == pytest.approx(np.mean([1.0 if r <= n else 0.0 for r in ranks]))
        assert m.hits1 <= m.hits3 <= m.hits10
        assert m.mrr >= m.hits1

    def test_direction_pooling_mean(self):
        rng = np.random.default_rng(3)
        fwd = rng.integers(1, 30, size=100).astype(float)
        bwd = rng.integers(1, 30, size=100).astype(float)
        pooled = compute_metrics(np.concatenate([fwd, bwd]))
        assert pooled.mrr == pytest.approx(
            (compute_metrics(fwd).mrr + compute_metrics(bwd).mrr) / 2
        )


class TestPerfectMemorizer:
    def test_known_answers_rank_first(self):
        trips = [(0, 0, 1), (1, 0, 2), (2, 1, 0)]
        n = 3
        ranks = []
        for h, r, t in trips:
            scores = np.full(n, 0.01)
            scores[t] = 0.99  # a memorizer puts all mass on the stored tail
            ranks.append(rank_answer(scores, t))
        assert compute_metrics(ranks).mrr == 1.0


class TestEvaluate:
    def test_toy_graph_deterministic(self, rng):
        cfg, params = make_model(num_relations=4, seed=31, noise_mode="fixed_seed")
        g = random_graph(rng, 8, 2, 14)
        queries = [Query(0, 1, 2, frozenset({2, 3})), Query(4, 0, 5, frozenset({5}))]
        r1 = evaluate(g, queries, params, cfg, noise_seed=7)
        r2 = evaluate(g, queries, params, cfg, noise_seed=7)
        assert r1 == r2
        assert len(r1.ranks) == 2 and all(1 <= rank <= 8 for rank in r1.ranks)

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("noise_mode", ["per_forward", "disabled"])
    def test_scores_each_pair_once(self, rng, monkeypatch, raw, noise_mode):
        cfg, params = make_model(num_relations=4, seed=32, noise_mode=noise_mode)
        g = random_graph(rng, 9, 2, 16)
        pairs = [(0, 1), (3, 0), (0, 1), (5, 2), (3, 0), (0, 1), (8, 3)]
        queries = [Query(h, r, (h + 1 + i) % 9, frozenset({(h + 1 + i) % 9, (h + 2) % 9}))
                   for i, (h, r) in enumerate(pairs)]
        pinned = pin_noise(cfg, 7)
        reference = []
        for q in queries:  # the per-query loop: one forward per query
            scores = score_query(g, q, params, pinned)
            mask = None if raw else query_filter_mask(q, g.num_entities)
            reference.append(rank_answer(scores, q.gold_tail, mask))
        calls = []

        def counting(graph, query, *args, **kwargs):
            calls.append((query.head, query.relation))
            return score_query(graph, query, *args, **kwargs)

        monkeypatch.setattr(evaluation, "score_query", counting)
        report = evaluate(g, queries, params, cfg, noise_seed=7, raw=raw)
        assert calls == [(0, 1), (3, 0), (5, 2), (8, 3)]
        assert report.ranks == reference
        assert report == compute_metrics(reference)


    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("noise_mode", ["fixed_seed", "disabled"])
    @pytest.mark.parametrize("kernel_mode", ["approximate", "full_exponential"])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_relation_grouping_matches_per_pair_loop(self, rng, monkeypatch, precision, kernel_mode,
                                                     noise_mode, raw):
        # layer 0's query side is computed once per relation and shared; layer 1 runs as usual
        cfg, params = make_model(num_relations=4, seed=34, precision=precision, kernel_mode=kernel_mode,
                                 noise_mode=noise_mode, attention_layers=2)
        for p in params.parameters():  # off the zero-bias init, where layer 0 ignores the relation
            p.data += (0.2 * rng.standard_normal(p.data.shape)).astype(p.data.dtype)
        g = random_graph(rng, 9, 2, 16)
        pairs = [(0, 1), (3, 1), (0, 2), (5, 1), (3, 1), (7, 2), (0, 1), (2, 0), (8, 2)]
        queries = [Query(h, r, (h + 1 + i) % 9, frozenset({(h + 1 + i) % 9, (h + 2) % 9}))
                   for i, (h, r) in enumerate(pairs)]
        pinned = pin_noise(cfg, 5)
        reference, vectors = [], {}
        for q in queries:
            scores = vectors.setdefault((q.head, q.relation), score_query(g, q, params, pinned))
            mask = None if raw else query_filter_mask(q, g.num_entities)
            reference.append(rank_answer(scores, q.gold_tail, mask))
        scored = {}

        def keeping(graph, query, *args, **kwargs):
            scored[(query.head, query.relation)] = score_query(graph, query, *args, **kwargs)
            return scored[(query.head, query.relation)]

        monkeypatch.setattr(evaluation, "score_query", keeping)
        report = evaluate(g, queries, params, cfg, noise_seed=5, raw=raw)
        assert scored.keys() == vectors.keys()
        assert all(scored[pair].tobytes() == vectors[pair].tobytes() for pair in vectors)
        assert report.ranks == reference
        assert report == compute_metrics(reference)

    def test_layer0_query_net_runs_once_per_relation(self, rng, monkeypatch):
        cfg, params = make_model(num_relations=4, seed=35, noise_mode="per_forward", attention_layers=2)
        g = random_graph(rng, 9, 2, 16)
        pairs = [(0, 1), (3, 1), (0, 2), (5, 1), (3, 1), (7, 2), (0, 1), (2, 0)]
        queries = [Query(h, r, (h + 1) % 9, frozenset({(h + 1) % 9})) for h, r in pairs]
        nets = {id(layer.head.query_net): f"layer{i}.query" for i, layer in enumerate(params.layers)}
        nets.update({id(layer.head.value_net): f"layer{i}.value" for i, layer in enumerate(params.layers)})
        runs = {name: [] for name in nets.values()}

        def counting(tape, graph, x, rq, relations, net, *args, **kwargs):
            runs[nets[id(net)]].append(rq)
            return rmpnn_forward(tape, graph, x, rq, relations, net, *args, **kwargs)

        monkeypatch.setattr(model, "rmpnn_forward", counting)
        evaluate(g, queries, params, cfg, noise_seed=3)
        distinct_pairs = list(dict.fromkeys(pairs))
        assert runs.pop("layer0.query") == [1, 2, 0]
        for name, relations in runs.items():
            assert sorted(relations) == sorted(r for _, r in distinct_pairs), name


requires_umls = pytest.mark.skipif(
    not os.path.exists(os.path.join(UMLS_DIR, "train.txt")), reason="bundled UMLS files missing"
)


@requires_umls
class TestUntrainedBaseline:
    def test_untrained_mrr_near_random_expectation(self):
        ds = load_dataset(UMLS_DIR)
        cfg, params = make_model(
            num_relations=2 * ds.num_relations, seed=33,
            hidden_dim=16, attention_layers=1, query_layers=1, value_layers=1,
            noise_mode="fixed_seed", precision="float64",
        )
        g = build_graph(ds.train, ds.num_entities, ds.num_relations, add_inverse=True)
        filters = query_filters([ds.train, ds.valid, ds.test], ds.num_relations)
        queries = make_queries(ds.test, ds.num_relations, filters)[:400]
        report = evaluate(g, queries, params, cfg, noise_seed=3)
        # analytic random-ranking MRR for 135 entities is ~0.041
        assert 0.02 <= report.mrr <= 0.10, report
