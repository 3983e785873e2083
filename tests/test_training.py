"""Sampling, loss, optimizer, loop-determinism, split-builder and checkpoint tests."""

import numpy as np
import pytest

from conftest import make_config, set_header_heads
from kgreason.autodiff import Parameter, Tape, grad_check
from kgreason.data import DatasetSplit, Triplet, Vocabulary
from kgreason.model import ModelConfig, ModelParams
from kgreason.training import (
    AdamState,
    CheckpointError,
    SamplingError,
    TrainConfig,
    adam_step,
    load_checkpoint,
    negative_sampling_loss,
    rng_stream,
    sample_negatives,
    save_checkpoint,
    split_graph,
    split_queries,
    train,
)


def toy_dataset(seed=0) -> DatasetSplit:
    """Six entities, two relations, a handful of facts split across files."""
    rng = np.random.default_rng(seed)
    facts = {(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6))) for _ in range(18)}
    facts = sorted(facts)
    train = [Triplet(*f) for f in facts[:12]]
    valid = [Triplet(*f) for f in facts[12:15]]
    test = [Triplet(*f) for f in facts[15:]]
    ev = Vocabulary([f"e{i}" for i in range(6)])
    rv = Vocabulary(["r0", "r1"])
    return DatasetSplit("toy", "transductive", train, valid, test, ev, rv)


def toy_train_config(**overrides) -> TrainConfig:
    base = dict(learning_rate=5e-3, num_negatives=3, epochs=3, batch_size=4, seed=7,
                eval_interval=10**6, log_timing=False)
    base.update(overrides)
    return TrainConfig(**base)


class TestSampleNegatives:
    def test_forced_complement(self):
        rng = np.random.default_rng(0)
        negs = sample_negatives(rng, num_entities=3, gold=1, k=2)
        assert sorted(negs.tolist()) == [0, 2]

    def test_k_zero_empty(self):
        assert sample_negatives(np.random.default_rng(0), 10, 3, 0).size == 0

    def test_k_too_large_rejected(self):
        with pytest.raises(SamplingError):
            sample_negatives(np.random.default_rng(0), 5, 0, 5)

    def test_gold_never_drawn_and_uniform_within_3_sigma(self):
        rng = np.random.default_rng(42)
        n, gold, draws = 20, 5, 100_000
        counts = np.zeros(n, dtype=np.int64)
        for _ in range(draws):
            counts[sample_negatives(rng, n, gold, 1)[0]] += 1
        assert counts[gold] == 0
        p = 1.0 / (n - 1)
        sigma = np.sqrt(draws * p * (1 - p))
        others = np.delete(counts, gold)
        assert np.all(np.abs(others - draws * p) <= 3 * sigma), others

    def test_no_replacement(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            negs = sample_negatives(rng, 12, 4, 8)
            assert len(set(negs.tolist())) == 8 and 4 not in negs


class TestLoss:
    def test_perfect_scores_near_zero(self):
        t = Tape()
        scores = t.tensor(np.array([[0.0], [1.0], [0.0]]))
        loss = negative_sampling_loss(t, scores, gold=1, negatives=np.array([0, 2]))
        assert 0.0 <= loss.item() <= 1e-6

    def test_coin_flip_closed_form(self):
        t = Tape()
        scores = t.tensor(np.array([[0.5], [0.5]]))
        loss = negative_sampling_loss(t, scores, gold=0, negatives=np.array([1]))
        assert loss.item() == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_no_negatives_positive_term_only(self):
        t = Tape()
        scores = t.tensor(np.array([[0.25], [0.5]]))
        loss = negative_sampling_loss(t, scores, gold=1, negatives=np.empty(0, dtype=np.int64))
        assert loss.item() == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_gradient_wrt_logits_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = Parameter("logits", rng.standard_normal((6, 1)))
        negs = np.array([0, 2, 5])

        def loss_fn():
            t = Tape()
            return t, negative_sampling_loss(t, t.sigmoid(logits), 3, negs)

        report = grad_check(loss_fn, [logits], step=1e-6, tolerance=1e-6)
        assert report.passed, report.failures


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Parameter("p", np.array([[1.0, -2.0]]))
        state = AdamState([p])
        adam_step([p], state, TrainConfig(weight_decay=0.0))
        np.testing.assert_allclose(p.data, [[1.0, -2.0]])

    def test_weight_decay_shrinks_unused_parameter(self):
        p = Parameter("p", np.array([[4.0]]))
        state = AdamState([p])
        before = abs(p.data[0, 0])
        adam_step([p], state, TrainConfig(weight_decay=1e-2, learning_rate=1e-2))
        assert abs(p.data[0, 0]) < before

    def test_single_step_closed_form(self):
        # from zero moments one step moves by -lr * g / (|g| + eps)
        for g in (0.37, -2.0, 1e-3):
            p = Parameter("p", np.array([[1.0]]))
            p.grad[...] = g
            cfg = TrainConfig(learning_rate=1e-3)
            state = AdamState([p])
            adam_step([p], state, cfg)
            expected = 1.0 - cfg.learning_rate * g / (abs(g) + cfg.adam_eps)
            assert p.data[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_accumulated_gradients_average_like(self):
        # two tape backwards before one step behave as summed gradients
        p = Parameter("p", np.array([[0.5]]))
        t1 = Tape()
        t1.backward(t1.scale(t1.mul(p, p), 0.5))
        t2 = Tape()
        t2.backward(t2.scale(t2.mul(p, p), 0.5))
        # each backward contributes d(0.5 p^2)/dp = p
        np.testing.assert_allclose(p.grad, 2 * p.data[0, 0])


class TestRngStreams:
    def test_streams_are_independent_and_stable(self):
        a1 = rng_stream(9, "noise").standard_normal(4)
        a2 = rng_stream(9, "noise").standard_normal(4)
        b = rng_stream(9, "negatives").standard_normal(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.allclose(a1, b)


class TestTrainLoop:
    def test_toy_loss_decreases(self):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        tcfg = toy_train_config(epochs=20)
        result = train(ds, mcfg, tcfg, log=lambda *a, **k: None)
        losses = [r["loss"] for r in result.history if r["split"] == "train"]
        assert len(losses) == 20
        assert losses[-1] < losses[0]

    def test_bit_identical_reruns(self, tmp_path):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            train(ds, mcfg, toy_train_config(), out_dir=str(out), log=lambda *a, **k: None)
            outs.append((out / "checkpoint.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_metrics_log_schema(self, tmp_path):
        import json

        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        out = tmp_path / "run"
        out.mkdir()
        train(ds, mcfg, toy_train_config(epochs=2, eval_interval=1), out_dir=str(out),
              log=lambda *a, **k: None)
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4  # train + valid per epoch
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"epoch", "split", "loss", "mrr", "hits1", "hits3", "hits10", "wall_ms"}
        valid_recs = [json.loads(l) for l in lines if json.loads(l)["split"] == "valid"]
        assert valid_recs and all(r["mrr"] is not None for r in valid_recs)

    def test_resume_reproduces_straight_run(self, tmp_path):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")

        full_dir = tmp_path / "full"
        full_dir.mkdir()
        train(ds, mcfg, toy_train_config(epochs=4), out_dir=str(full_dir), log=lambda *a, **k: None)

        half_dir = tmp_path / "half"
        half_dir.mkdir()
        train(ds, mcfg, toy_train_config(epochs=2), out_dir=str(half_dir), log=lambda *a, **k: None)
        resumed_dir = tmp_path / "resumed"
        resumed_dir.mkdir()
        train(ds, mcfg, toy_train_config(epochs=4), out_dir=str(resumed_dir),
              resume_from=str(half_dir / "checkpoint.bin"), log=lambda *a, **k: None)

        full = (full_dir / "checkpoint.bin").read_bytes()
        resumed = (resumed_dir / "checkpoint.bin").read_bytes()
        assert full == resumed

    def test_trained_fact_scores_above_mean_negative(self):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        result = train(ds, mcfg, toy_train_config(epochs=25), log=lambda *a, **k: None)
        from kgreason.data import Query, build_graph
        from kgreason.model import score_query

        g = build_graph(ds.train, 6, 2, add_inverse=True)
        margins = []
        for h, r, t in ds.train:
            scores = score_query(g, Query(h, r, t, frozenset({t})), result.params, mcfg,
                                 noise=np.zeros((6, mcfg.hidden_dim)))
            negatives = np.delete(scores, t)
            margins.append(scores[t] - negatives.mean())
        assert np.mean(margins) > 0
        assert sum(m > 0 for m in margins) >= 0.75 * len(margins)

    def test_target_mrr_stops_early(self):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        tcfg = toy_train_config(epochs=50, eval_interval=1, target_valid_mrr=0.0)
        result = train(ds, mcfg, tcfg, log=lambda *a, **k: None)
        epochs_run = max(r["epoch"] for r in result.history)
        assert epochs_run == 1  # any MRR satisfies target 0.0

    def test_inductive_train_then_inference_graph_eval(self):
        # end-to-end inductive flow: train on one entity set, rank test
        # queries against a disjoint inference fact graph (shared relations)
        from kgreason.evaluation import evaluate

        ds = toy_inductive_dataset()
        mcfg = make_config(noise_mode="per_forward")
        result = train(ds, mcfg, toy_train_config(epochs=2, eval_interval=1),
                       log=lambda *a, **k: None)
        assert [r["split"] for r in result.history] == ["train", "valid"] * 2

        graph, _ = split_graph(ds, "test")
        [queries] = split_queries(ds, "test")
        report = evaluate(graph, queries, result.params, mcfg, noise_seed=1)
        assert report.count == 2
        assert 0.0 < report.mrr <= 1.0


def toy_inductive_dataset() -> DatasetSplit:
    """Four training entities; test facts live on a three-entity inference graph."""
    return DatasetSplit(
        "toy-ind", "inductive",
        train=[Triplet(0, 0, 1), Triplet(1, 0, 2), Triplet(2, 1, 0), Triplet(1, 1, 3)],
        valid=[Triplet(0, 1, 2)],
        test=[Triplet(0, 0, 2)],
        entity_vocab=Vocabulary([f"e{i}" for i in range(4)]),
        relation_vocab=Vocabulary(["r0", "r1"]),
        inference=[Triplet(0, 0, 1), Triplet(1, 1, 2)],
        inference_entity_vocab=Vocabulary(["x0", "x1", "x2"]),
    )


class TestSplitBuilder:
    def test_transductive_splits_share_graph_and_filters(self):
        ds = toy_dataset()
        for split in ("train", "valid", "test"):
            graph, vocab = split_graph(ds, split)
            assert vocab is ds.entity_vocab and graph.num_entities == 6
            assert graph.num_edges == 2 * len(ds.train)
        known = {}
        for h, r, t in ds.train + ds.valid + ds.test:
            known.setdefault((h, r), set()).add(t)
            known.setdefault((t, r + 2), set()).add(h)
        for split, queries in zip(("train", "valid", "test"), split_queries(ds, "train", "valid", "test")):
            assert len(queries) == 2 * len(getattr(ds, split))
            for q in queries:
                assert q.filter_set == known[(q.head, q.relation)]

    def test_inductive_test_runs_on_inference_graph(self):
        ds = toy_inductive_dataset()
        graph, vocab = split_graph(ds, "test")
        assert vocab is ds.inference_entity_vocab
        assert graph.num_entities == 3 and graph.num_edges == 2 * len(ds.inference)
        for split in ("train", "valid"):
            graph, vocab = split_graph(ds, split)
            assert vocab is ds.entity_vocab and graph.num_edges == 2 * len(ds.train)

    def test_inductive_filters_stay_in_their_id_space(self):
        ds = toy_inductive_dataset()
        [valid] = split_queries(ds, "valid")
        assert valid[0].filter_set == {2} and valid[1].filter_set == {0}
        train_q, valid_q = split_queries(ds, "train", "valid")
        assert valid_q == valid
        # test fact (x0, r0, x2) has ids (0, 0, 2) in the inference vocabulary;
        # it must not filter the training-graph query (e0, r0)
        assert train_q[0].filter_set == {1}
        [test] = split_queries(ds, "test")
        assert test[0].filter_set == {1, 2}  # inference (x0, r0, x1) plus the test fact


class TestCheckpointContainer:
    def test_save_load_save_byte_identical(self, tmp_path):
        mcfg = ModelConfig(hidden_dim=16, attention_layers=1, query_layers=1, value_layers=1)
        params = ModelParams(mcfg, 4, np.random.default_rng(3))
        adam = AdamState(params.parameters())
        adam.step = 5
        rngs = {"shuffle": rng_stream(1, "shuffle").bit_generator.state,
                "negatives": rng_stream(1, "negatives").bit_generator.state,
                "noise": rng_stream(1, "noise").bit_generator.state}
        tstate = {"epoch": 2, "best": {"mrr": 0.5, "epoch": 1}, "evals_since_best": 1}
        p1 = tmp_path / "a.bin"
        save_checkpoint(str(p1), params, adam, mcfg, TrainConfig(), ["e0"], ["r0"], rngs, tstate)
        ck = load_checkpoint(str(p1))
        p2 = tmp_path / "b.bin"
        save_checkpoint(str(p2), ck.params, ck.adam, ck.model_config, ck.train_config,
                        ck.entity_tokens, ck.relation_tokens, ck.rng_states, ck.training_state)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_with_different_architecture_rejected(self, tmp_path):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        out = tmp_path / "base"
        out.mkdir()
        train(ds, mcfg, toy_train_config(epochs=1), out_dir=str(out), log=lambda *a, **k: None)
        other = make_config(noise_mode="per_forward", hidden_dim=12)
        with pytest.raises(CheckpointError, match="architecture"):
            train(ds, other, toy_train_config(epochs=2),
                  resume_from=str(out / "checkpoint.bin"), log=lambda *a, **k: None)

    def test_header_head_count(self, tmp_path):
        # headers written before the head count was dropped carry "heads": 1
        mcfg = ModelConfig(hidden_dim=8, attention_layers=1, query_layers=1, value_layers=1)
        params = ModelParams(mcfg, 4, np.random.default_rng(8))
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), params, AdamState(params.parameters()), mcfg, TrainConfig(),
                        ["e"], ["r"], {}, {})
        set_header_heads(path, 1)
        ck = load_checkpoint(str(path))
        for p in params.parameters():
            np.testing.assert_array_equal(ck.params.by_name()[p.name].data, p.data)
        set_header_heads(path, 2)
        with pytest.raises(CheckpointError, match="2 attention heads"):
            load_checkpoint(str(path))

    def test_loaded_values_match(self, tmp_path):
        mcfg = ModelConfig(hidden_dim=16, attention_layers=1, query_layers=1, value_layers=1)
        params = ModelParams(mcfg, 4, np.random.default_rng(8))
        adam = AdamState(params.parameters())
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), params, adam, mcfg, TrainConfig(), ["e"], ["r"],
                        {}, {"epoch": 0, "best": {"mrr": -1, "epoch": 0}, "evals_since_best": 0})
        ck = load_checkpoint(str(path))
        for p in params.parameters():
            np.testing.assert_array_equal(ck.params.by_name()[p.name].data, p.data)
        assert ck.entity_tokens == ["e"] and ck.model_config.hidden_dim == 16
