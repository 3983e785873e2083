"""Filtered ranking and MRR / Hits@n metrics.

Ranking is filtered by default: every known true tail for the query other
than the gold answer is removed from the candidate pool before counting.
Ties are resolved by mean rank, which keeps the untrained-model baseline
at its analytic random-ranking expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import KnowledgeGraph, Query
from .model import ModelConfig, ModelParams, layer0_query_side, make_noise, pin_noise, score_query


class RankingError(Exception):
    pass


class MetricsError(Exception):
    pass


@dataclass
class MetricsReport:
    """Aggregate metrics, and the ranks they were computed from in query order."""

    mrr: float
    hits1: float
    hits3: float
    hits10: float
    count: int
    ranks: list[float] = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits1": self.hits1,
            "hits3": self.hits3,
            "hits10": self.hits10,
            "count": self.count,
        }

    def __str__(self):
        return (f"MRR {self.mrr:.4f} | Hits@1 {self.hits1:.4f} | Hits@3 {self.hits3:.4f} "
                f"| Hits@10 {self.hits10:.4f} | queries {self.count}")


def rank_answer(scores: np.ndarray, gold: int, filter_mask: Optional[np.ndarray] = None) -> float:
    """Rank of the gold entity among unfiltered candidates.

    ``filter_mask`` marks entities excluded from competition (known true
    tails other than the gold). Ties share their mean rank:
    rank = 1 + #strictly_better + 0.5 * #ties.
    """
    scores = np.asarray(scores).reshape(-1)
    n = scores.shape[0]
    if not 0 <= gold < n:
        raise RankingError(f"gold entity {gold} out of range for {n} candidates")
    if filter_mask is None:
        filter_mask = np.zeros(n, dtype=bool)
    if filter_mask[gold]:
        raise RankingError("gold entity is masked out by the filter set")
    competing = ~filter_mask
    competing[gold] = False
    gold_score = scores[gold]
    greater = int(np.count_nonzero(competing & (scores > gold_score)))
    ties = int(np.count_nonzero(competing & (scores == gold_score)))
    return 1.0 + greater + 0.5 * ties


def compute_metrics(ranks: Sequence[float]) -> MetricsReport:
    if len(ranks) == 0:
        raise MetricsError("cannot compute metrics over an empty rank list")
    arr = np.asarray(ranks, dtype=np.float64)
    return MetricsReport(
        mrr=float((1.0 / arr).mean()),
        hits1=float((arr <= 1).mean()),
        hits3=float((arr <= 3).mean()),
        hits10=float((arr <= 10).mean()),
        count=int(arr.shape[0]),
        ranks=arr.tolist(),
    )


def query_filter_mask(query: Query, num_entities: int) -> np.ndarray:
    """Boolean exclusion mask: the query's known true tails minus the gold."""
    mask = np.zeros(num_entities, dtype=bool)
    if query.filter_set:
        mask[np.fromiter(query.filter_set, dtype=np.int64)] = True
    mask[query.gold_tail] = False
    return mask


def evaluate(
    graph: KnowledgeGraph,
    queries: Sequence[Query],
    params: ModelParams,
    config: ModelConfig,
    noise_seed: int = 0,
    raw: bool = False,
) -> MetricsReport:
    """Rank every query, in order, and aggregate metrics (``ranks`` follows ``queries``).

    Noise is pinned to ``noise_seed`` (unless the model runs with noise
    disabled) and drawn once, so reported numbers are reproducible. With
    noise pinned and no edge excluded, a query's scores depend only on its
    (head, relation), so each distinct pair is scored once and every gold of
    that pair is ranked against the one vector. Pairs run grouped by
    relation, because layer 0's query side depends on the relation alone:
    it is computed once per relation and shared by that relation's pairs.
    Only one relation's query side and one score vector are held at a time.
    """
    eval_config = pin_noise(config, noise_seed)
    noise = make_noise(eval_config, graph.num_entities)
    groups: dict[int, dict[int, list[int]]] = {}     # relation -> head -> query indices
    for i, query in enumerate(queries):
        groups.setdefault(query.relation, {}).setdefault(query.head, []).append(i)
    ranks = [0.0] * len(queries)
    for by_head in groups.values():
        pairs = [queries[members[0]] for members in by_head.values()]
        side = layer0_query_side(graph, pairs[0], params, eval_config, noise)
        for pair, members in zip(pairs, by_head.values()):
            scores = score_query(graph, pair, params, eval_config, noise, query_side=side)
            for i in members:
                query = queries[i]
                mask = None if raw else query_filter_mask(query, graph.num_entities)
                ranks[i] = rank_answer(scores, query.gold_tail, mask)
            del scores
        del side
    return compute_metrics(ranks)
