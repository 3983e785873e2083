"""Color-refinement tests against a hash-based oracle, plus model probes."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import facts, incoming, make_model, random_graph
from kgreason.autodiff import Tape
from kgreason.data import Query, Triplet, build_graph
from kgreason.model import forward
from kgreason.wl import (
    Coloring,
    _refine,
    rawl2_refine,
    value_representations,
)


def wl_refine(graph, rounds=None) -> Coloring:
    """Classic 1-WL on the simple undirected view (relations ignored), the yardstick rawl2 beats."""
    n = graph.num_entities
    adjacency = [set() for _ in range(n)]
    for h, t in zip(graph.in_src.tolist(), graph.in_tgt.tolist()):
        if h != t:
            adjacency[h].add(t)
            adjacency[t].add(h)
    neighborhoods = [[(w, 0) for w in sorted(adj)] for adj in adjacency]
    colors, rounds_run, stable = _refine([0] * n, neighborhoods, rounds or n)
    return Coloring(colors, rounds_run, stable)


@dataclass
class ProbeReport:
    coloring: Coloring
    class_score_spread: dict          # color -> max |score difference| inside the class
    violations: list                  # same-color pairs with differing scores (should be empty)
    warnings: list                    # distinguished pairs with equal scores (statistical only)

    @property
    def passed(self) -> bool:
        return not self.violations


def expressivity_probe(graph, head, rq, params, config, tolerance=1e-9) -> ProbeReport:
    """Pair refinement classes against model score classes under zero noise.

    Entities that the stable refinement cannot distinguish must receive
    equal scores for any parameter values; the converse (distinguished
    pairs get distinct scores) holds only for generic parameters, so those
    collisions are reported as warnings, not failures.
    """
    probe_config = replace(config, noise_mode="disabled")
    coloring = rawl2_refine(graph, head)
    query = Query(head, rq, 0, frozenset({0}))
    scores = forward(Tape(grad=False), graph, query, params, probe_config).data[:, 0]

    spread = {}
    violations = []
    for color, members in coloring.classes().items():
        vals = scores[members]
        spread[color] = float(vals.max() - vals.min())
        if spread[color] > tolerance:
            worst = members[int(np.argmax(vals))], members[int(np.argmin(vals))]
            violations.append({"color": color, "pair": worst, "spread": spread[color]})

    warnings = []
    reps = [(members[0], color) for color, members in coloring.classes().items()]
    for i, (u, cu) in enumerate(reps):
        for v, cv in reps[i + 1:]:
            if abs(scores[u] - scores[v]) <= tolerance:
                warnings.append({"pair": (u, v), "colors": (cu, cv)})
    return ProbeReport(coloring, spread, violations, warnings)


def partition_of(colors):
    groups = {}
    for u, c in enumerate(colors):
        groups.setdefault(c, []).append(u)
    return sorted(tuple(g) for g in groups.values())


def hash_refinement_oracle(neighbor_fn, n, init, rounds):
    """Reference refinement keeping raw signature tuples as colors."""
    colors = list(init)
    for _ in range(rounds):
        colors = [
            (colors[u], tuple(sorted((colors[w], tag) for w, tag in neighbor_fn(u))))
            for u in range(n)
        ]
    return colors


def cycle_graph(n, relation_pattern):
    trips = [Triplet(i, relation_pattern[i % len(relation_pattern)], (i + 1) % n) for i in range(n)]
    return build_graph(trips, n, max(relation_pattern) + 1, add_inverse=True)


class TestWlRefine:
    def test_regular_graph_single_color(self):
        g = cycle_graph(6, [0])
        c = wl_refine(g)
        assert len(set(c.colors)) == 1 and c.stable

    def test_path_endpoints_vs_middle(self):
        g = build_graph([Triplet(0, 0, 1), Triplet(1, 0, 2)], 3, 1, add_inverse=True)
        c = wl_refine(g, rounds=1)
        assert c.colors[0] == c.colors[2] != c.colors[1]

    @pytest.mark.parametrize("seed", range(50))
    def test_agrees_with_hash_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, int(rng.integers(1, 3)), int(rng.integers(1, 25)))
        rounds = int(rng.integers(1, 5))
        mine = wl_refine(g, rounds=rounds)

        adjacency = [set() for _ in range(n)]
        for h, _, t in facts(g):
            if h != t:
                adjacency[h].add(t)
                adjacency[t].add(h)
        oracle = hash_refinement_oracle(
            lambda u: [(w, 0) for w in sorted(adjacency[u])], n, [0] * n, mine.rounds)
        assert partition_of(mine.colors) == partition_of(oracle)

    def test_stability_within_num_entities_rounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, 2, int(rng.integers(1, 20)))
            assert wl_refine(g).stable


class TestRawl2:
    def test_star_center_head_leaves_one_class(self):
        trips = [Triplet(0, 0, i) for i in range(1, 6)]
        g = build_graph(trips, 6, 1, add_inverse=True)
        c = rawl2_refine(g, head=0)
        leaf_colors = {c.colors[i] for i in range(1, 6)}
        assert len(leaf_colors) == 1 and c.colors[0] not in leaf_colors

    def test_three_path_from_leaf_fully_distinguished(self):
        g = build_graph([Triplet(0, 0, 1), Triplet(1, 0, 2)], 3, 1, add_inverse=True)
        c = rawl2_refine(g, head=0, rounds=2)
        assert len(set(c.colors)) == 3

    def test_relational_counterexample_beats_plain_wl(self):
        # 6-cycle with relation pattern r0 r0 r1: 2-regular, so plain 1-WL
        # sees one class; relation multisets split it immediately
        g = cycle_graph(6, [0, 0, 1])
        plain = wl_refine(g)
        assert len(set(plain.colors)) == 1
        relational = rawl2_refine(g, head=0)
        assert len(set(relational.colors)) > 1

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_hash_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 20)))
        head = int(rng.integers(n))
        mine = rawl2_refine(g, head)

        neighbors = [incoming(g, u) for u in range(n)]
        oracle = hash_refinement_oracle(
            lambda u: neighbors[u], n, [1 if u == head else 0 for u in range(n)], mine.rounds)
        assert partition_of(mine.colors) == partition_of(oracle)

    @pytest.mark.parametrize("seed", range(15))
    def test_monotone_refinement_classes_only_split(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 10))
        g = random_graph(rng, n, 2, int(rng.integers(2, 18)))
        head = int(rng.integers(n))
        prev = rawl2_refine(g, head, rounds=1)
        for rounds in range(2, n + 1):
            cur = rawl2_refine(g, head, rounds=rounds)
            # every current class must sit inside one previous class
            prev_of = {}
            for u in range(n):
                key = cur.colors[u]
                if key in prev_of:
                    assert prev_of[key] == prev.colors[u]
                else:
                    prev_of[key] = prev.colors[u]
            prev = cur

    def test_head_out_of_range(self):
        g = cycle_graph(4, [0])
        with pytest.raises(ValueError):
            rawl2_refine(g, head=9)


class TestExpressivityProbe:
    def test_symmetric_twins_get_equal_scores(self):
        # entities 1 and 2 are automorphic twins relative to head 0
        trips = [Triplet(0, 0, 1), Triplet(0, 0, 2), Triplet(1, 1, 3), Triplet(2, 1, 3)]
        g = build_graph(trips, 4, 2, add_inverse=True)
        cfg, params = make_model(num_relations=4, seed=40, attention_layers=2)
        report = expressivity_probe(g, head=0, rq=0, params=params, config=cfg)
        assert report.passed, report.violations
        assert report.coloring.colors[1] == report.coloring.colors[2]

    def test_single_entity_trivial(self):
        g = build_graph([], 1, 1, add_inverse=True)
        cfg, params = make_model(num_relations=2, seed=41)
        report = expressivity_probe(g, head=0, rq=0, params=params, config=cfg)
        assert report.passed and len(report.coloring.classes()) == 1

    def test_distinguished_pair_separates_for_generic_params(self):
        # head marking makes entity 1 (adjacent to head) differ from entity 3
        trips = [Triplet(0, 0, 1), Triplet(2, 0, 3)]
        g = build_graph(trips, 4, 1, add_inverse=True)
        coloring = rawl2_refine(g, head=0)
        assert coloring.colors[1] != coloring.colors[3]
        separated = 0
        for seed in range(10):
            cfg, params = make_model(num_relations=2, seed=500 + seed)
            reprs = value_representations(g, head=0, rq=0, params=params, config=cfg)
            if np.abs(reprs[1] - reprs[3]).max() > 1e-9:
                separated += 1
        assert separated >= 9
