"""Color refinement tests: plain 1-WL, relational, and head-conditioned.

These are the executable yardsticks for what the model can distinguish.
``rawl2_refine`` runs the pair refinement with the first argument fixed to
one head entity, matching how the model conditions on a query: colors are
per-entity, the head starts distinguished, and updates aggregate over
incoming facts r(w, u), the same direction message passing uses.

Colors are canonicalized each round by first appearance scanning entities
in id order, so ids are dense and identical run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .autodiff import Tape
from .data import KnowledgeGraph
from .data import Query
from .model import ForwardState, ModelConfig, ModelParams, forward


@dataclass(frozen=True)
class Coloring:
    colors: tuple
    rounds: int
    stable: bool

    def classes(self) -> dict:
        out: dict[int, list] = {}
        for u, c in enumerate(self.colors):
            out.setdefault(c, []).append(u)
        return out


@dataclass(frozen=True)
class PairColoring(Coloring):
    head: int = 0


def _refine(init_colors, neighborhoods, max_rounds: int):
    """Shared refinement loop: split classes until stable or the round cap.

    Each round a node's signature is (own color, sorted multiset of
    (neighbor color, tag)); signatures are interned to dense ids in first-
    appearance order. Including the own color means classes only ever
    split, so the partition is stable exactly when the class count stops
    growing.
    """
    colors = list(init_colors)
    rounds_run = 0
    stable = False
    for _ in range(max_rounds):
        table: dict = {}
        new_colors = []
        for u, neigh in enumerate(neighborhoods):
            sig = (colors[u], tuple(sorted((colors[w], tag) for w, tag in neigh)))
            if sig not in table:
                table[sig] = len(table)
            new_colors.append(table[sig])
        rounds_run += 1
        if len(table) == len(set(colors)):
            colors = new_colors
            stable = True
            break
        colors = new_colors
    return tuple(colors), rounds_run, stable


def wl_refine(graph: KnowledgeGraph, rounds: Optional[int] = None) -> Coloring:
    """Classic 1-WL on the simple undirected view (relations ignored)."""
    n = graph.num_entities
    adjacency = [set() for _ in range(n)]
    for h, _, t in zip(graph.heads, graph.relations, graph.tails):
        if h != t:
            adjacency[h].add(int(t))
            adjacency[t].add(int(h))
    neighborhoods = [[(w, 0) for w in sorted(adj)] for adj in adjacency]
    colors, rounds_run, stable = _refine([0] * n, neighborhoods, rounds or n)
    return Coloring(colors, rounds_run, stable)


def rawl2_refine(graph: KnowledgeGraph, head: int, rounds: Optional[int] = None) -> PairColoring:
    """Head-conditioned relational refinement over incoming facts."""
    n = graph.num_entities
    if not 0 <= head < n:
        raise ValueError(f"head {head} out of range for {n} entities")
    neighborhoods = [[] for _ in range(n)]
    src, rel, tgt = graph.in_src.idx, graph.in_rel.idx, graph.in_tgt.idx
    for i in range(len(src)):
        neighborhoods[tgt[i]].append((int(src[i]), int(rel[i])))
    init = [1 if u == head else 0 for u in range(n)]
    colors, rounds_run, stable = _refine(init, neighborhoods, rounds or n)
    return PairColoring(colors, rounds_run, stable, head=head)


@dataclass
class ProbeReport:
    coloring: PairColoring
    class_score_spread: dict          # color -> max |score difference| inside the class
    violations: list                  # same-color pairs with differing scores (should be empty)
    warnings: list                    # distinguished pairs with equal scores (statistical only)

    @property
    def passed(self) -> bool:
        return not self.violations


def expressivity_probe(graph: KnowledgeGraph, head: int, rq: int,
                       params: ModelParams, config: ModelConfig,
                       tolerance: float = 1e-9) -> ProbeReport:
    """Pair refinement classes against model score classes under zero noise.

    Entities that the stable refinement cannot distinguish must receive
    equal scores for any parameter values; the converse (distinguished
    pairs get distinct scores) holds only for generic parameters, so those
    collisions are reported as warnings, not failures.
    """
    probe_config = replace(config, noise_mode="disabled")
    coloring = rawl2_refine(graph, head)
    tape = Tape(grad=False)
    query = Query(head, rq, 0, frozenset({0}))
    scores = forward(tape, graph, query, params, probe_config).data[:, 0]

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


def value_representations(graph: KnowledgeGraph, head: int, rq: int,
                          params: ModelParams, config: ModelConfig) -> np.ndarray:
    """First-layer value-network output under zero noise (for pair-separation checks)."""
    probe_config = replace(config, noise_mode="disabled")
    state = ForwardState()
    tape = Tape(grad=False)
    forward(tape, graph, Query(head, rq, 0, frozenset({0})), params, probe_config, state=state)
    return state.value_reprs[0]
