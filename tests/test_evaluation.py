"""Ranking and metric tests against sort-based and closed-form oracles."""

import os

import numpy as np
import pytest

from conftest import make_model, random_graph
from kgreason.data import Query, build_graph, load_dataset, make_queries, query_filters
from kgreason.evaluation import (
    MetricsError,
    RankingError,
    compute_metrics,
    evaluate,
    rank_answer,
)

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
        report, records = evaluate(g, queries, params, cfg, noise_seed=7, per_query=True)
        assert len(records) == 2 and records[0]["head"] == 0 and "rank" in records[0]


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
