"""Manually gated long-running checks (run with ``pytest -m extended``)."""

import os

import pytest

from kgreason.data import build_graph, load_dataset
from kgreason.model import ModelConfig
from kgreason.training import TrainConfig, split_graph, train

UMLS_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "umls")
FB15K237_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "fb15k237")

requires_umls = pytest.mark.skipif(
    not os.path.exists(os.path.join(UMLS_DIR, "train.txt")), reason="bundled UMLS files missing")


@pytest.mark.extended
@pytest.mark.slow
@requires_umls
class TestLearningRateGrid:
    def test_loss_decreases_for_most_grid_learning_rates(self):
        """At least 3 of the 4 grid learning rates shrink the loss over 5 epochs."""
        dataset = load_dataset(UMLS_DIR)
        improved = 0
        for lr in (1e-4, 5e-4, 1e-3, 5e-3):
            model_config = ModelConfig(hidden_dim=32, attention_layers=2, query_layers=2,
                                       value_layers=2, precision="float32",
                                       noise_mode="per_forward")
            train_config = TrainConfig(learning_rate=lr, num_negatives=64, epochs=5,
                                       batch_size=16, seed=5, eval_interval=10**6)
            result = train(dataset, model_config, train_config, log=lambda *a, **k: None)
            losses = [r["loss"] for r in result.history if r["split"] == "train"]
            if losses[-1] < losses[0]:
                improved += 1
            print(f"lr={lr}: first {losses[0]:.3f} last {losses[-1]:.3f}")
        assert improved >= 3


@pytest.mark.extended
@pytest.mark.slow
@requires_umls
class TestConvergedPredictSweep:
    def test_gold_tail_in_filtered_top3_for_most_training_facts(self):
        """A trained model puts a stored fact's tail in the filtered top 3.

        Two details make the sweep meaningful on this dense benchmark: other
        known answers are masked (a training (head, relation) pair has 13
        true tails on average), and the fact's own edge is dropped from
        message passing, exactly as during training. With the edge present
        the query is out of distribution: training only ever scores a
        positive with its edge removed, so a direct connection by the query
        relation reads as negative evidence.
        """
        import numpy as np

        from kgreason.data import Query, build_filter_sets
        from kgreason.model import pin_noise, score_query

        dataset = load_dataset(UMLS_DIR)
        model_config = ModelConfig(hidden_dim=32, attention_layers=2, query_layers=2,
                                   value_layers=2, precision="float32",
                                   noise_mode="per_forward")
        train_config = TrainConfig(learning_rate=5e-4, num_negatives=64, epochs=2,
                                   batch_size=16, seed=7, eval_interval=2, patience=99)
        result = train(dataset, model_config, train_config, log=print)
        graph, _ = split_graph(dataset, "train")
        filters = build_filter_sets(dataset.train, dataset.valid, dataset.test)
        infer_config = pin_noise(model_config, 7)
        rng = np.random.default_rng(11)
        sample = rng.choice(len(dataset.train), size=150, replace=False)
        hits = 0
        for i in sample:
            h, r, t = dataset.train[i]
            scores = score_query(graph, Query(h, r, t, frozenset({t})), result.params,
                                 infer_config, exclude_query_edge=True)
            others = np.fromiter(filters[(h, r)] - {t}, dtype=np.int64)
            if others.size:
                scores[others] = -np.inf
            if t in np.argsort(-scores, kind="stable")[:3]:
                hits += 1
        frac = hits / len(sample)
        print(f"filtered top-3 recall on training facts: {frac:.0%}")
        assert frac >= 0.80


@pytest.mark.extended
@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists(os.path.join(FB15K237_DIR, "train.txt")),
                    reason="FB15k-237 files not present (place under data/fb15k237/)")
class TestFB15k237Statistics:
    def test_loader_counts(self):
        dataset = load_dataset(FB15K237_DIR)
        assert len(dataset.train) == 272_115
        assert dataset.num_entities == 14_541
        assert dataset.num_relations == 237
        graph = build_graph(dataset.train, dataset.num_entities, dataset.num_relations,
                            add_inverse=True)
        assert graph.num_edges == 544_230
        assert graph.num_relations == 474
