"""Triplet datasets and immutable indexed knowledge graphs.

File conventions: UTF-8 tab-separated ``head relation tail`` lines,
``#``-prefixed lines ignored. A dataset directory holds ``train.txt``,
``valid.txt``, ``test.txt``; inductive datasets add ``inference.txt``
(the fact graph that test-time queries are answered against).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .autodiff import RowIndex


class ParseError(Exception):
    """A triplet line did not have exactly three tab-separated fields."""


class VocabularyError(Exception):
    """A token was not present in a fixed vocabulary."""


class GraphError(Exception):
    """Graph construction was handed out-of-range or inconsistent ids."""


class Triplet(NamedTuple):
    head: int
    relation: int
    tail: int


class Query(NamedTuple):
    """A tail-reasoning instance: rank all entities as answers to (head, relation, ?).

    ``filter_set`` holds every known true tail for this (head, relation)
    across splits, so ranking can mask known positives other than the gold.
    """

    head: int
    relation: int
    gold_tail: int
    filter_set: frozenset


class Vocabulary:
    """Token <-> dense-id mapping in first-seen order."""

    def __init__(self, tokens: Sequence[str] = (), frozen: bool = False):
        self._tokens: list[str] = []
        self._index: dict[str, int] = {}
        for tok in tokens:
            self.add(tok)
        self.frozen = frozen

    def __len__(self):
        return len(self._tokens)

    def __contains__(self, token: str):
        return token in self._index

    def __getitem__(self, idx: int) -> str:
        return self._tokens[idx]

    @property
    def tokens(self) -> tuple:
        return tuple(self._tokens)

    def add(self, token: str) -> int:
        if token in self._index:
            return self._index[token]
        if getattr(self, "frozen", False):
            raise VocabularyError(f"unknown token {token!r} under fixed vocabulary")
        idx = len(self._tokens)
        self._tokens.append(token)
        self._index[token] = idx
        return idx

    def id(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise VocabularyError(f"unknown token {token!r}") from None


def load_triplets(
    path: str,
    entity_vocab: Optional[Vocabulary] = None,
    relation_vocab: Optional[Vocabulary] = None,
):
    """Parse a triplet file into dense-id triplets.

    Vocabularies are built in first-seen order when not supplied; supplied
    ones are used verbatim and unseen tokens raise ``VocabularyError``.
    """
    entity_vocab = Vocabulary() if entity_vocab is None else entity_vocab
    relation_vocab = Vocabulary() if relation_vocab is None else relation_vocab
    triplets: list[Triplet] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
            try:
                h = entity_vocab.add(fields[0])
                r = relation_vocab.add(fields[1])
                t = entity_vocab.add(fields[2])
            except VocabularyError as exc:
                raise VocabularyError(f"{path}:{lineno}: {exc}") from None
            triplets.append(Triplet(h, r, t))
    return triplets, entity_vocab, relation_vocab


def inverse_relation(relation: int, num_base_relations: int) -> int:
    if relation < num_base_relations:
        return relation + num_base_relations
    return relation - num_base_relations


def inverse_triplets(triplets: Sequence[Triplet], num_base_relations: int) -> list[Triplet]:
    return [Triplet(t, r + num_base_relations, h) for h, r, t in triplets]


class KnowledgeGraph:
    """Immutable multi-relational multigraph with a CSR incoming-edge index.

    Duplicate triplets are preserved: message aggregation sums over fact
    instances, so deduplication would change the sums. The incoming index
    is sorted by (target, relation, source) which makes iteration order,
    and therefore every floating-point reduction, deterministic.
    """

    def __init__(self, heads, relations, tails, num_entities, num_base_relations, num_relations):
        self.num_entities = int(num_entities)
        self.num_base_relations = int(num_base_relations)
        self.num_relations = int(num_relations)
        self.heads = heads
        self.relations = relations
        self.tails = tails
        order = np.lexsort((heads, relations, tails))
        self._csr_order = order
        self.in_src = RowIndex(heads[order])
        self.in_rel = RowIndex(relations[order])
        self.in_tgt = RowIndex(tails[order])
        self.row_ptr = np.searchsorted(self.in_tgt.idx, np.arange(self.num_entities + 1), side="left")
        for arr in (self.heads, self.relations, self.tails, self._csr_order, self.row_ptr):
            arr.flags.writeable = False
        self._edge_positions = None

    @property
    def num_edges(self) -> int:
        return int(self.heads.shape[0])

    @property
    def edges(self) -> list[Triplet]:
        return [Triplet(int(h), int(r), int(t)) for h, r, t in zip(self.heads, self.relations, self.tails)]

    def incoming(self, entity: int) -> list[tuple[int, int]]:
        """(source, relation) pairs of facts relation(source, entity), sorted by (relation, source)."""
        lo, hi = self.row_ptr[entity], self.row_ptr[entity + 1]
        return list(zip(self.in_src.idx[lo:hi].tolist(), self.in_rel.idx[lo:hi].tolist()))

    def _positions(self) -> dict:
        if self._edge_positions is None:
            positions: dict[tuple, list] = {}
            src, rel, tgt = self.in_src.idx, self.in_rel.idx, self.in_tgt.idx
            for pos in range(src.shape[0]):
                positions.setdefault((int(src[pos]), int(rel[pos]), int(tgt[pos])), []).append(pos)
            self._edge_positions = positions
        return self._edge_positions

    def excluded_edge_endpoints(self, head: int, relation: int, tail: int):
        """(sources, relations, targets) of every copy of a fact and its inverse.

        Used to drop a training query's own edge from message passing, which
        subtracts just these few contributions after aggregating everything.
        Returns None when neither direction is present in the graph.
        """
        positions = list(self._positions().get((head, relation, tail), ()))
        inv = inverse_relation(relation, self.num_base_relations)
        positions += self._positions().get((tail, inv, head), ())
        if not positions:
            return None
        pos = np.asarray(positions, dtype=np.int64)
        return self.in_src.idx[pos], self.in_rel.idx[pos], self.in_tgt.idx[pos]


def build_graph(
    triplets: Sequence[Triplet],
    num_entities: int,
    num_base_relations: int,
    add_inverse: bool = True,
) -> KnowledgeGraph:
    """Construct an indexed graph, optionally appending inverse edges.

    With ``add_inverse`` the input must contain only base relations (ids
    below ``num_base_relations``); feeding an already-augmented edge list
    back through augmentation is rejected.
    """
    arr = np.asarray([(h, r, t) for h, r, t in triplets], dtype=np.int64).reshape(-1, 3)
    heads, rels, tails = arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy()
    if arr.size:
        if heads.min() < 0 or heads.max() >= num_entities or tails.min() < 0 or tails.max() >= num_entities:
            raise GraphError(f"entity id out of range [0, {num_entities})")
        if rels.min() < 0:
            raise GraphError("negative relation id")
        if add_inverse and rels.max() >= num_base_relations:
            raise GraphError(
                f"relation id {int(rels.max())} >= {num_base_relations}: "
                "input already contains augmented relations; inverse augmentation is construction-time only"
            )
        if not add_inverse and rels.max() >= num_base_relations:
            raise GraphError(f"relation id out of range [0, {num_base_relations})")
    if add_inverse:
        heads, tails, rels = (
            np.concatenate([heads, tails]),
            np.concatenate([tails, heads]),
            np.concatenate([rels, rels + num_base_relations]),
        )
        num_relations = 2 * num_base_relations
    else:
        num_relations = num_base_relations
    return KnowledgeGraph(heads, rels, tails, num_entities, num_base_relations, num_relations)


def build_filter_sets(*triplet_lists: Sequence[Triplet]) -> dict:
    """Union of true tails per (head, relation) across the given splits."""
    filters: dict[tuple[int, int], set] = {}
    for triplets in triplet_lists:
        for h, r, t in triplets:
            filters.setdefault((h, r), set()).add(t)
    return filters


def make_queries(
    triplets: Sequence[Triplet],
    num_base_relations: int,
    filters: dict,
) -> list[Query]:
    """Tail queries for each fact in both directions.

    Head prediction (?, r, t) is evaluated as the tail query (t, r2, ?)
    under the inverse relation, so every fact yields two queries. The
    ``filters`` mapping must already cover inverse-relation keys.
    """
    queries = []
    for h, r, t in triplets:
        queries.append(Query(h, r, t, frozenset(filters[(h, r)])))
        inv = r + num_base_relations
        queries.append(Query(t, inv, h, frozenset(filters[(t, inv)])))
    return queries


def query_filters(triplet_lists: Sequence[Sequence[Triplet]], num_base_relations: int) -> dict:
    """Filter sets over the inverse-augmented query space of the given splits."""
    augmented = []
    for triplets in triplet_lists:
        augmented.append(triplets)
        augmented.append(inverse_triplets(triplets, num_base_relations))
    return build_filter_sets(*augmented)


@dataclass
class DatasetSplit:
    """A loaded benchmark: triplet splits plus their vocabularies.

    In inductive mode the test-time fact graph (``inference``) and the test
    queries live in their own entity vocabulary (entity sets are disjoint
    from training); relations are shared with the training relations and
    must be a subset of them.
    """

    name: str
    mode: str
    train: list
    valid: list
    test: list
    entity_vocab: Vocabulary
    relation_vocab: Vocabulary
    inference: Optional[list] = None
    inference_entity_vocab: Optional[Vocabulary] = None

    @property
    def num_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def num_relations(self) -> int:
        return len(self.relation_vocab)

    @property
    def num_inference_entities(self) -> int:
        return 0 if self.inference_entity_vocab is None else len(self.inference_entity_vocab)


def load_dataset(path: str, mode: str = "auto", entity_vocab: Optional[Vocabulary] = None,
                 relation_vocab: Optional[Vocabulary] = None) -> DatasetSplit:
    """Load ``train/valid/test(.txt)`` from a directory, plus ``inference.txt`` if inductive.

    Vocabularies are built in first-seen order unless fixed ones are given
    (a checkpoint's, so ids match the trained model). The inductive
    inference vocabulary is always built from ``inference.txt`` and
    ``test.txt``.
    """
    def fname(split):
        return os.path.join(path, f"{split}.txt")

    for split in ("train", "valid", "test"):
        if not os.path.exists(fname(split)):
            raise FileNotFoundError(f"dataset file not found: {fname(split)}")
    has_inference = os.path.exists(fname("inference"))
    if mode == "auto":
        mode = "inductive" if has_inference else "transductive"
    if mode == "inductive" and not has_inference:
        raise FileNotFoundError(f"inductive mode requires {fname('inference')}")

    train, entity_vocab, relation_vocab = load_triplets(fname("train"), entity_vocab, relation_vocab)
    relation_vocab.frozen = True
    if mode == "transductive":
        valid, _, _ = load_triplets(fname("valid"), entity_vocab, relation_vocab)
        test, _, _ = load_triplets(fname("test"), entity_vocab, relation_vocab)
        return DatasetSplit(os.path.basename(os.path.normpath(path)), mode, train, valid, test,
                            entity_vocab, relation_vocab)
    valid, _, _ = load_triplets(fname("valid"), entity_vocab, relation_vocab)
    inference_vocab = Vocabulary()
    inference, _, _ = load_triplets(fname("inference"), inference_vocab, relation_vocab)
    test, _, _ = load_triplets(fname("test"), inference_vocab, relation_vocab)
    return DatasetSplit(os.path.basename(os.path.normpath(path)), mode, train, valid, test,
                        entity_vocab, relation_vocab, inference, inference_vocab)
