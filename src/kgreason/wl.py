"""Color refinement: relational and head-conditioned.

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


def rawl2_refine(graph: KnowledgeGraph, head: int, rounds: Optional[int] = None) -> Coloring:
    """Head-conditioned relational refinement over incoming facts."""
    n = graph.num_entities
    if not 0 <= head < n:
        raise ValueError(f"head {head} out of range for {n} entities")
    neighborhoods = [[] for _ in range(n)]
    for s, r, t in zip(graph.in_src.tolist(), graph.in_rel.tolist(), graph.in_tgt.tolist()):
        neighborhoods[t].append((s, r))
    init = [1 if u == head else 0 for u in range(n)]
    return Coloring(*_refine(init, neighborhoods, rounds or n))


def value_representations(graph: KnowledgeGraph, head: int, rq: int,
                          params: ModelParams, config: ModelConfig) -> np.ndarray:
    """First-layer value-network output under zero noise (for pair-separation checks)."""
    probe_config = replace(config, noise_mode="disabled")
    state = ForwardState()
    tape = Tape(grad=False)
    forward(tape, graph, Query(head, rq, 0, frozenset({0})), params, probe_config, state=state)
    return state.value_reprs[0]
