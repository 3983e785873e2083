"""Triplet datasets and immutable indexed knowledge graphs.

File conventions: UTF-8 tab-separated ``head relation tail`` lines,
``#``-prefixed lines ignored. A dataset directory holds ``train.txt``,
``valid.txt``, ``test.txt``; inductive datasets add ``inference.txt``
(the fact graph that test-time queries are answered against).
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from . import UserError
from .autodiff import ProductSumPlan


class ParseError(UserError):
    """A triplet file is not UTF-8, or a line did not have exactly three tab-separated fields."""


class VocabularyError(UserError):
    """A token was not present in a fixed vocabulary."""


class GraphError(Exception):
    """Graph or query construction was handed out-of-range or inconsistent ids."""


class DatasetError(UserError):
    """A dataset file cannot be opened or read, or a dataset was asked for in a mode that does not exist."""


DATASET_MODES = ("auto", "transductive", "inductive")


class Triplet(NamedTuple):
    """One hand-written fact; loaded splits are ``(n, 3)`` int64 arrays instead."""

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
        self._tokens: list[str] = list(dict.fromkeys(tokens))
        self._index: dict[str, int] = dict(zip(self._tokens, range(len(self._tokens))))
        self.frozen = frozen

    def __len__(self):
        return len(self._tokens)

    def __getitem__(self, idx: int) -> str:
        return self._tokens[idx]

    @property
    def tokens(self) -> tuple:
        return tuple(self._tokens)

    def add(self, token: str) -> int:
        if token in self._index:
            return self._index[token]
        if self.frozen:
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

    def unseen(self, tokens: Sequence[str]) -> list[str]:
        """The distinct ``tokens`` not in the vocabulary, in first-seen order."""
        return [tok for tok in dict.fromkeys(tokens) if tok not in self._index]

    def extend(self, tokens: Sequence[str]) -> None:
        """Append distinct tokens not yet present, in order; unlike ``add`` this ignores ``frozen``."""
        self._index.update(zip(tokens, range(len(self._tokens), len(self._tokens) + len(tokens))))
        self._tokens.extend(tokens)

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        """int64 ids of known tokens."""
        return np.fromiter(map(self._index.__getitem__, tokens), dtype=np.int64, count=len(tokens))


def _skipped(line: str) -> bool:
    return not line.strip() or line.lstrip().startswith("#")


# First bytes that make a line neither skipped nor blank-led: printable ASCII but "#".
_PLAIN_START = np.zeros(256, dtype=bool)
_PLAIN_START[0x21:0x7F] = True
_PLAIN_START[ord("#")] = False


def _plain(text: str) -> bool:
    """Whether every line (an empty last one aside) has two tabs and a ``_PLAIN_START`` byte first.

    Then no line is skipped or malformed; a False only sends the text
    through the line-by-line filter.
    """
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    starts = np.concatenate([[0], np.flatnonzero(raw == ord("\n")) + 1])
    starts = starts[starts < raw.size]
    tabs = np.searchsorted(np.flatnonzero(raw == ord("\t")), np.append(starts, raw.size))
    return bool(_PLAIN_START[raw[starts]].all() and (np.diff(tabs) == 2).all())


def _first_line_error(path: str, lines: Sequence[str], entity_vocab: Vocabulary,
                      relation_vocab: Vocabulary) -> Exception:
    """The error of a file's first bad line, read line by line as ``add`` would take its tokens.

    Runs only once a file has failed, so vocabularies end up as they would
    after reading up to that line.
    """
    for lineno, line in enumerate(lines, start=1):
        if _skipped(line):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            return ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        try:
            entity_vocab.add(fields[0])
            relation_vocab.add(fields[1])
            entity_vocab.add(fields[2])
        except VocabularyError as exc:
            return VocabularyError(f"{path}:{lineno}: {exc}")


def load_triplets(
    path: str,
    entity_vocab: Optional[Vocabulary] = None,
    relation_vocab: Optional[Vocabulary] = None,
):
    """Parse a triplet file into an ``(n, 3)`` int64 array of dense ``(head, relation, tail)`` ids.

    Vocabularies are built in first-seen order (per line: head, relation,
    tail) when not supplied; supplied ones are used verbatim and unseen
    tokens of a frozen one raise ``VocabularyError``. A leading UTF-8
    byte-order mark is not part of the first token. Blank lines and lines
    whose first non-blank character is ``#`` are skipped; line numbers in
    errors count every line. A file that cannot be opened or read raises
    ``DatasetError`` naming it.
    """
    entity_vocab = Vocabulary() if entity_vocab is None else entity_vocab
    relation_vocab = Vocabulary() if relation_vocab is None else relation_vocab
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:  # decoded in one piece: exc.object is the file past any BOM
        read = exc.object[:exc.start]  # line ends as text mode reads them: \n, \r\n or \r
        lineno = read.count(b"\n") + read.count(b"\r") - read.count(b"\r\n") + 1
        raise ParseError(f"{path}:{lineno}: not valid UTF-8") from None
    except FileNotFoundError:
        raise DatasetError(f"dataset file not found: {path}") from None
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read dataset file: {exc.strerror}") from None
    lines = text.split("\n")
    if _plain(text):
        kept = lines if lines[-1] else lines[:-1]
    else:
        kept = [line for line in lines if not _skipped(line)]
        if set(map(str.count, kept, repeat("\t"))) - {2}:
            raise _first_line_error(path, lines, entity_vocab, relation_vocab)
    fields = "\t".join(kept).split("\t") if kept else []
    entities = fields.copy()
    del entities[1::3]  # head, tail, head, tail, ...: first-seen order within each line
    relations = fields[1::3]
    try:  # every token known, as under a checkpoint's vocabularies
        entity_ids, relation_ids = entity_vocab.ids(entities), relation_vocab.ids(relations)
    except KeyError:
        new_entities, new_relations = entity_vocab.unseen(entities), relation_vocab.unseen(relations)
        if (new_entities and entity_vocab.frozen) or (new_relations and relation_vocab.frozen):
            raise _first_line_error(path, lines, entity_vocab, relation_vocab) from None
        entity_vocab.extend(new_entities)
        relation_vocab.extend(new_relations)
        entity_ids, relation_ids = entity_vocab.ids(entities), relation_vocab.ids(relations)
    triplets = np.empty((len(kept), 3), dtype=np.int64)
    triplets[:, 0::2] = entity_ids.reshape(-1, 2)
    triplets[:, 1] = relation_ids
    return triplets, entity_vocab, relation_vocab


def inverse_relation(relation: int, num_base_relations: int) -> int:
    if relation < num_base_relations:
        return relation + num_base_relations
    return relation - num_base_relations


class KnowledgeGraph:
    """Immutable multi-relational multigraph stored as one sorted edge index.

    Duplicate triplets are preserved: message aggregation sums over fact
    instances, so deduplication would change the sums. ``in_src``,
    ``in_rel`` and ``in_tgt`` are read-only int64 columns sorted by
    (target, relation, source), ties in input order, which makes iteration
    order, and therefore every floating-point reduction, deterministic.
    """

    def __init__(self, heads, relations, tails, num_entities, num_base_relations, num_relations):
        self.num_entities = int(num_entities)
        self.num_base_relations = int(num_base_relations)
        self.num_relations = int(num_relations)
        # One stable sort of the packed key: the (tail, relation, head) lexicographic order, ties kept.
        key = self._pack(heads, relations, tails)
        order = np.argsort(key, kind="stable")
        self._key = key[order]
        self.in_src = heads[order]
        self.in_rel = relations[order]
        self.in_tgt = tails[order]
        for arr in (self._key, self.in_src, self.in_rel, self.in_tgt):
            arr.flags.writeable = False

    # Product-sum plans over the facts, built on first use: message aggregation
    # runs ``by_target``; its adjoints run ``by_source`` and ``by_relation``.

    @cached_property
    def by_target(self) -> ProductSumPlan:
        """``out[t] += a[s] * b[r]`` over facts r(s, t)."""
        return ProductSumPlan(self.in_tgt, self.num_entities, self.in_src, self.num_entities,
                              self.in_rel, self.num_relations)

    @cached_property
    def by_source(self) -> ProductSumPlan:
        """``out[s] += a[t] * b[r]`` over facts r(s, t)."""
        return ProductSumPlan(self.in_src, self.num_entities, self.in_tgt, self.num_entities,
                              self.in_rel, self.num_relations)

    @cached_property
    def by_relation(self) -> ProductSumPlan:
        """``out[r] += a[t] * b[s]`` over facts r(s, t)."""
        return ProductSumPlan(self.in_rel, self.num_relations, self.in_tgt, self.num_entities,
                              self.in_src, self.num_entities)

    @property
    def num_edges(self) -> int:
        return int(self.in_src.shape[0])

    def _pack(self, heads, relations, tails):
        """The sort key of facts relation(head, tail): (tail, relation, head) packed into one integer."""
        return (tails * self.num_relations + relations) * self.num_entities + heads

    def _key_of(self, head: int, relation: int, tail: int) -> int:
        """``_pack`` of one fact; -1, below every key, for out-of-range ids.

        Packed, out-of-range ids could alias another fact's key.
        """
        n = self.num_entities
        if 0 <= head < n and 0 <= tail < n and 0 <= relation < self.num_relations:
            return self._pack(head, relation, tail)
        return -1

    def excluded_edge_endpoints(self, head: int, relation: int, tail: int):
        """(sources, relations, targets) of every copy of a fact and its inverse.

        Used to drop a training query's own edge from message passing, which
        subtracts just these few contributions after aggregating everything.
        The fact's copies come first, then its inverse's, each in index
        order. Returns None when neither direction is present in the graph.
        """
        key = self._key_of(head, relation, tail)
        inv = self._key_of(tail, inverse_relation(relation, self.num_base_relations), head)
        # integer keys: the copies of key k end where key k + 1 would start
        lo, hi, inv_lo, inv_hi = np.searchsorted(self._key, [key, key + 1, inv, inv + 1]).tolist()
        if lo == hi and inv_lo == inv_hi:
            return None
        pos = np.array([*range(lo, hi), *range(inv_lo, inv_hi)], dtype=np.int64)
        return self.in_src[pos], self.in_rel[pos], self.in_tgt[pos]


def _rows(triplets) -> np.ndarray:
    """An ``(n, 3)`` int64 view of a triplet array or a list of ``Triplet``s."""
    return np.asarray(triplets, dtype=np.int64).reshape(-1, 3)


def build_graph(
    triplets,
    num_entities: int,
    num_base_relations: int,
    add_inverse: bool = True,
) -> KnowledgeGraph:
    """Construct an indexed graph from ``(n, 3)`` id triplets, optionally appending inverse edges.

    With ``add_inverse`` the input must contain only base relations (ids
    below ``num_base_relations``); feeding an already-augmented edge list
    back through augmentation is rejected.
    """
    arr = _rows(triplets)
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


def _query_rows(triplets, num_base_relations: int) -> np.ndarray:
    """Each fact (h, r, t) as two query rows, (h, r, t) then its inverse (t, r + R, h).

    Query keys pack ``head * 2R + relation``, unique only while every id is
    non-negative and every base relation is below R, so other ids are refused.
    """
    rows = _rows(triplets)
    if rows.size and rows.min() < 0:
        raise GraphError("negative id in query facts")
    if rows.size and rows[:, 1].max() >= num_base_relations:
        raise GraphError(f"relation id {int(rows[:, 1].max())} out of range [0, {num_base_relations}) "
                         "in query facts: ids at or above it would alias inverse-relation keys")
    both = np.empty((2 * len(rows), 3), dtype=np.int64)
    both[0::2] = rows
    both[1::2] = rows[:, ::-1] + (0, num_base_relations, 0)
    return both


class QueryFilters:
    """Known true tails per query (head, relation), read-only, as CSR arrays.

    ``packed`` holds the sorted distinct keys ``head * 2R + relation``;
    key ``i``'s distinct tails are ``tails[ptr[i]:ptr[i + 1]]``, ascending.
    ``slots`` finds keys; ``tails_at`` builds a key's ``frozenset`` on first
    lookup and shares it with every later one, so no query holds its own copy.
    """

    def __init__(self, packed, ptr, tails, num_base_relations: int):
        self.packed, self.ptr, self.tails = packed, ptr, tails
        for arr in (packed, ptr, tails):
            arr.flags.writeable = False
        self.num_base_relations = num_base_relations
        self._sets: list[Optional[frozenset]] = [None] * len(packed)

    def slots(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """Positions in ``packed`` of each (head, relation); KeyError names the first one absent."""
        packed = heads * (2 * self.num_base_relations) + relations
        pos = np.searchsorted(self.packed, packed)
        found = pos < len(self.packed)
        found[found] = self.packed[pos[found]] == packed[found]
        if not found.all():
            i = int(np.argmin(found))
            raise KeyError((int(heads[i]), int(relations[i])))
        return pos

    def tails_at(self, slot: int) -> frozenset:
        """The shared filter of ``packed[slot]``."""
        tails = self._sets[slot]
        if tails is None:
            tails = self._sets[slot] = frozenset(self.tails[self.ptr[slot]:self.ptr[slot + 1]].tolist())
        return tails


class Queries(Sequence):
    """Read-only queries as arrays; a ``Query`` is made on access, its filter shared from ``filters``."""

    def __init__(self, rows: np.ndarray, slots: np.ndarray, filters: QueryFilters):
        self._rows, self._slots, self._filters = rows, slots, filters

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Queries(self._rows[index], self._slots[index], self._filters)
        head, relation, gold = self._rows[index].tolist()
        return Query(head, relation, gold, self._filters.tails_at(int(self._slots[index])))

    def __iter__(self):
        return map(Query, *self._rows.T.tolist(), map(self._filters.tails_at, self._slots.tolist()))


def make_queries(triplets, num_base_relations: int, filters: QueryFilters) -> Queries:
    """Tail queries for each fact in both directions.

    Head prediction (?, r, t) is evaluated as the tail query (t, r2, ?)
    under the inverse relation, so every fact yields two queries. The
    ``filters`` must come from ``query_filters`` over splits that include
    these facts, under the same ``num_base_relations``.
    """
    if filters.num_base_relations != num_base_relations:
        raise GraphError(f"filters packed for {filters.num_base_relations} base relations, "
                         f"queries for {num_base_relations}")
    rows = _query_rows(triplets, num_base_relations)
    return Queries(rows, filters.slots(rows[:, 0], rows[:, 1]), filters)


def query_filters(triplet_lists, num_base_relations: int) -> QueryFilters:
    """Known tails of every (head, relation) over the inverse-augmented query space of the splits.

    One lexsort by (packed key, tail) over all query rows, repeats dropped,
    cut where the key changes.
    """
    rows = np.concatenate([_query_rows(t, num_base_relations) for t in triplet_lists]
                          or [np.empty((0, 3), dtype=np.int64)])
    keys = rows[:, 0] * (2 * num_base_relations) + rows[:, 1]
    order = np.lexsort((rows[:, 2], keys))
    keys, tails = keys[order], rows[order, 2]
    new_key = np.ones(len(keys), dtype=bool)
    new_key[1:] = keys[1:] != keys[:-1]
    keep = new_key.copy()
    keep[1:] |= tails[1:] != tails[:-1]
    keys, tails, new_key = keys[keep], tails[keep], new_key[keep]
    starts = np.flatnonzero(new_key)
    return QueryFilters(keys[starts], np.append(starts, len(keys)), tails, num_base_relations)


@dataclass
class DatasetSplit:
    """A loaded benchmark: ``(n, 3)`` int64 id splits plus their vocabularies.

    In inductive mode the test-time fact graph (``inference``) and the test
    queries live in their own entity vocabulary (entity sets are disjoint
    from training); relations are shared with the training relations and
    must be a subset of them.
    """

    mode: str
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    entity_vocab: Vocabulary
    relation_vocab: Vocabulary
    inference: Optional[np.ndarray] = None
    inference_entity_vocab: Optional[Vocabulary] = None

    @property
    def num_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def num_relations(self) -> int:
        return len(self.relation_vocab)


def load_dataset(path: str, mode: str = "auto", entity_vocab: Optional[Vocabulary] = None,
                 relation_vocab: Optional[Vocabulary] = None) -> DatasetSplit:
    """Load ``train/valid/test(.txt)`` from a directory, plus ``inference.txt`` if inductive.

    Vocabularies are built in first-seen order unless fixed ones are given
    (a checkpoint's, so ids match the trained model). The inductive
    inference vocabulary is always built from ``inference.txt`` and
    ``test.txt``.
    """
    if mode not in DATASET_MODES:
        raise DatasetError(f"unknown dataset mode {mode!r}; expected one of {', '.join(DATASET_MODES)}")

    def fname(split):
        return os.path.join(path, f"{split}.txt")

    has_inference = os.path.exists(fname("inference"))
    if mode == "auto":
        mode = "inductive" if has_inference else "transductive"
    if mode == "inductive" and not has_inference:
        raise DatasetError(f"inductive mode requires {fname('inference')}")

    train, entity_vocab, relation_vocab = load_triplets(fname("train"), entity_vocab, relation_vocab)
    relation_vocab.frozen = True
    valid, _, _ = load_triplets(fname("valid"), entity_vocab, relation_vocab)
    inference = inference_vocab = None
    if mode == "inductive":
        inference_vocab = Vocabulary()
        inference, _, _ = load_triplets(fname("inference"), inference_vocab, relation_vocab)
    test, _, _ = load_triplets(fname("test"), entity_vocab if inference_vocab is None else inference_vocab,
                               relation_vocab)
    return DatasetSplit(mode, train, valid, test, entity_vocab, relation_vocab, inference, inference_vocab)
