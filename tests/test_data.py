"""Loader, vocabulary, graph-index and filter-set tests."""

import os
import tracemalloc

import numpy as np
import pytest

from conftest import build_filter_sets, incoming, oracle_queries
from kgreason.data import (
    GraphError,
    ParseError,
    Triplet,
    Vocabulary,
    VocabularyError,
    build_graph,
    load_dataset,
    load_triplets,
    make_queries,
    query_filters,
)

UMLS_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "umls")


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def tuple_parser(path, entity_vocab=None, relation_vocab=None):
    """Reference reader: one ``Vocabulary.add`` per token, line by line, into ``Triplet``s."""
    entity_vocab = Vocabulary() if entity_vocab is None else entity_vocab
    relation_vocab = Vocabulary() if relation_vocab is None else relation_vocab
    triplets = []
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


# Comments (indented too), blank and whitespace-only lines (tabs and a no-break space
# among them), CRLF and lone-CR endings, tokens with inner, leading and trailing spaces,
# non-ASCII tokens, a "#" inside a token, and no final newline.
AWKWARD = ("# header\r\n a b\tr 1\tc \r\n\r\n   \t \n\t\t\n\t# indented\tcomment\tline\n"
           "x\tr 1\t a b\r  \n\u00a0\n\u00e9t\u00e9\tr#2\tx\n\n# a\tb\nd\tr2\te#f\n  \t\t \n"
           "c \tr2\t\u00e9t\u00e9")


def wn18rr_lines(seed, count=3000, entities=2000):
    """WN18RR-shaped facts: zero-padded numeric entities, skewed endpoints and relations."""
    rng = np.random.default_rng(seed)
    relations = ["_hypernym", "_derivationally_related_form", "_member_meronym", "_has_part",
                 "_also_see", "_similar_to"]
    heads, tails = (entities * rng.random((2, count)) ** 2).astype(int)
    rels = rng.choice(len(relations), size=count, p=[0.4, 0.3, 0.12, 0.1, 0.06, 0.02])
    return [f"{h:08d}\t{relations[r]}\t{t:08d}" for h, r, t in zip(heads, rels, tails)]


@pytest.fixture(params=["umls-train", "umls-valid", "wn18rr", "awkward"])
def triplet_file(request, tmp_path):
    if request.param.startswith("umls"):
        path = os.path.join(UMLS_DIR, request.param[5:] + ".txt")
        if not os.path.exists(path):
            pytest.skip("bundled UMLS files missing")
        return path
    f = tmp_path / "t.txt"
    if request.param == "wn18rr":
        write_lines(f, wn18rr_lines(5))
    else:
        f.write_bytes(AWKWARD.encode("utf-8"))
    return str(f)


def assert_same_parse(got, want):
    """``load_triplets`` output against the reference reader's: ids, array form, vocabularies."""
    (arr, ev, rv), (trips, ev_ref, rv_ref) = got, want
    assert arr.dtype == np.int64 and arr.shape == (len(trips), 3)
    assert arr.tolist() == [list(t) for t in trips]
    assert ev.tokens == ev_ref.tokens and rv.tokens == rv_ref.tokens


class TestLoadTriplets:
    def test_basic_first_seen_ids(self, tmp_path):
        f = tmp_path / "t.txt"
        write_lines(f, ["a\tr1\tb", "b\tr2\tc", "# comment line", "a\tr1\tc"])
        trips, ev, rv = load_triplets(str(f))
        assert trips.tolist() == [[0, 0, 1], [1, 1, 2], [0, 0, 2]]
        assert ev.tokens == ("a", "b", "c") and rv.tokens == ("r1", "r2")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("")
        trips, ev, rv = load_triplets(str(f))
        assert trips.shape == (0, 3) and len(ev) == 0 and len(rv) == 0

    def test_malformed_line_reports_lineno(self, tmp_path):
        f = tmp_path / "t.txt"
        write_lines(f, ["a\tr\tb", "broken line"])
        with pytest.raises(ParseError, match=":2:"):
            load_triplets(str(f))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_invalid_utf8_reports_lineno(self, tmp_path, end):
        f = tmp_path / "t.txt"
        f.write_bytes(f"a\tr\tb{end}# note{end}".encode() + b"c\tr\t\xffd" + end.encode())
        with pytest.raises(ParseError) as exc:
            load_triplets(str(f))
        assert str(exc.value) == f"{f}:3: not valid UTF-8"

    def test_fixed_vocab_rejects_unknown(self, tmp_path):
        f = tmp_path / "t.txt"
        write_lines(f, ["a\tr\tz"])
        ev = Vocabulary(["a", "b"], frozen=True)
        with pytest.raises(VocabularyError, match="'z'"):
            load_triplets(str(f), entity_vocab=ev)

    def test_first_seen_matches_tuple_parser(self, triplet_file):
        assert_same_parse(load_triplets(triplet_file), tuple_parser(triplet_file))

    def test_fixed_vocabularies_match_tuple_parser(self, triplet_file):
        _, ev, rv = tuple_parser(triplet_file)
        # ids that differ from first-seen positions: the vocabulary decides, not the file
        ent, rel = list(reversed(ev.tokens)), list(reversed(rv.tokens))
        got = load_triplets(triplet_file, Vocabulary(ent, frozen=True), Vocabulary(rel, frozen=True))
        want = tuple_parser(triplet_file, Vocabulary(ent, frozen=True), Vocabulary(rel, frozen=True))
        assert_same_parse(got, want)

    @pytest.mark.parametrize("odd", ["#00000001\t_hypernym\t00000002", "\t\t", " \t\t ", "\u00a0\t\t",
                                     " 00000001\t_hypernym\t00000002", "\u00e9\t_hypernym\t00000002"])
    def test_one_odd_line_among_plain_ones(self, tmp_path, odd):
        # skipped or space-led lines with two tabs, where every other line is plain
        f = tmp_path / "t.txt"
        lines = wn18rr_lines(6, count=50)
        write_lines(f, lines[:20] + [odd] + lines[20:])
        assert_same_parse(load_triplets(str(f)), tuple_parser(str(f)))

    def test_growing_vocabulary_matches_tuple_parser(self, triplet_file):
        # a later split: entities seen before keep their ids, new ones append in order
        _, ev, rv = tuple_parser(triplet_file)
        seen = list(ev.tokens[::3])
        got = load_triplets(triplet_file, Vocabulary(seen), Vocabulary(rv.tokens, frozen=True))
        want = tuple_parser(triplet_file, Vocabulary(seen), Vocabulary(rv.tokens, frozen=True))
        assert_same_parse(got, want)

    @pytest.mark.parametrize("text, fixed", [
        ("a\tr\tb\n# c\n\nbroken line\n", ()),
        ("a\tr\tb\nc\tr\td\te\n", ()),
        ("a\tr\nb\tr\tc\td\n", ()),                       # 2 then 4 fields: no realignment
        ("a\tr\tb\r\n\r\nb\tr\r\n", ()),
        ("# z\tq\tz\na\tr\tb\nb\tr\tz\n", ("entity",)),   # skipped lines hold no tokens
        ("a\tr\tb\nb\tq\tnew\n", ("relation",)),            # entities before it still add
        ("z\tr\ta\n", ("entity", "relation")),
        ("a\tr\tb\na\tq\tb\nbroken\n", ("relation",)),     # the first bad line wins
        ("a\tr\tb\nbroken\na\tq\tb\n", ("relation",)),
        ("a\tr\tb\na\tq\tb", ("relation",)),
    ])
    def test_errors_match_tuple_parser(self, tmp_path, text, fixed):
        f = tmp_path / "t.txt"
        f.write_bytes(text.encode("utf-8"))

        def vocabularies():
            return (Vocabulary(["a", "b"], frozen="entity" in fixed),
                    Vocabulary(["r"], frozen="relation" in fixed))

        ev, rv = vocabularies()
        with pytest.raises((ParseError, VocabularyError)) as got:
            load_triplets(str(f), ev, rv)
        ev_ref, rv_ref = vocabularies()
        with pytest.raises((ParseError, VocabularyError)) as want:
            tuple_parser(str(f), ev_ref, rv_ref)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{f}:")
        assert ev.tokens == ev_ref.tokens and rv.tokens == rv_ref.tokens

    def test_vocabulary_keeps_add_dedupe(self):
        vocab = Vocabulary(["b", "a", "b", "c", "a"])
        assert vocab.tokens == ("b", "a", "c") and [vocab.id(t) for t in "bac"] == [0, 1, 2]
        assert Vocabulary(["x", "x"], frozen=True).tokens == ("x",)

    def test_vocab_roundtrip_identical_ids(self, tmp_path):
        # checkpoints store the token list and rebuild a fixed vocabulary from it
        f = tmp_path / "t.txt"
        write_lines(f, ["a\tr1\tb", "c\tr2\ta"])
        _, ev, _ = load_triplets(str(f))
        reloaded = Vocabulary(list(ev.tokens), frozen=True)
        assert reloaded.tokens == ev.tokens
        assert all(reloaded.id(tok) == ev.id(tok) for tok in ev.tokens)


class TestBuildGraph:
    def test_single_edge_inverse(self):
        g = build_graph([Triplet(0, 0, 1)], num_entities=2, num_base_relations=1, add_inverse=True)
        assert g.num_edges == 2 and g.num_relations == 2
        assert sorted(g.edges) == [Triplet(0, 0, 1), Triplet(1, 1, 0)]
        assert incoming(g, 1) == [(0, 0)]
        assert incoming(g, 0) == [(1, 1)]

    def test_duplicates_preserved(self):
        trips = [Triplet(0, 0, 1), Triplet(0, 0, 1)]
        g = build_graph(trips, 2, 1, add_inverse=True)
        assert g.num_edges == 4
        assert incoming(g, 1) == [(0, 0), (0, 0)]

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            build_graph([Triplet(0, 0, 5)], num_entities=2, num_base_relations=1)
        with pytest.raises(GraphError):
            build_graph([Triplet(0, 3, 1)], num_entities=2, num_base_relations=1, add_inverse=False)

    def test_double_augmentation_rejected(self):
        g = build_graph([Triplet(0, 0, 1)], 2, 1, add_inverse=True)
        with pytest.raises(GraphError, match="augmented"):
            build_graph(g.edges, 2, 1, add_inverse=True)

    @pytest.mark.parametrize("seed", range(8))
    def test_incoming_index_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n, r = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        m = int(rng.integers(0, 200))
        trips = [Triplet(int(rng.integers(n)), int(rng.integers(r)), int(rng.integers(n))) for _ in range(m)]
        g = build_graph(trips, n, r, add_inverse=True)
        all_edges = trips + [Triplet(t, rel + r, h) for h, rel, t in trips]
        for u in range(n):
            expected = sorted((h, rel) for h, rel, t in all_edges if t == u)
            got = sorted(incoming(g, u))
            assert got == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_index_equals_lexsort_order(self, seed):
        # many duplicates and ties; the array and the Triplet list build the same bytes
        rng = np.random.default_rng(seed)
        n, r = int(rng.integers(2, 40)), int(rng.integers(1, 6))
        arr = np.stack([rng.integers(n, size=500), rng.integers(r, size=500), rng.integers(n, size=500)], 1)
        heads = np.concatenate([arr[:, 0], arr[:, 2]])
        rels = np.concatenate([arr[:, 1], arr[:, 1] + r])
        tails = np.concatenate([arr[:, 2], arr[:, 0]])
        order = np.lexsort((heads, rels, tails))
        want = (heads[order], rels[order], tails[order])
        for triplets in (arr, [Triplet(*row) for row in arr.tolist()]):
            g = build_graph(triplets, n, r, add_inverse=True)
            got = (g.in_src, g.in_rel, g.in_tgt)
            assert [a.tobytes() for a in got] == [w.tobytes() for w in want]

    def test_edges_index_roundtrip_lossless(self):
        rng = np.random.default_rng(42)
        trips = [Triplet(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6))) for _ in range(40)]
        g = build_graph(trips, 6, 2, add_inverse=True)
        from_index = []
        for u in range(6):
            from_index.extend(Triplet(h, rel, u) for h, rel in incoming(g, u))
        assert sorted(from_index) == sorted(g.edges)

    def test_immutable_arrays(self):
        g = build_graph([Triplet(0, 0, 1)], 2, 1)
        for arr in (g.in_src, g.in_rel, g.in_tgt):
            with pytest.raises(ValueError):
                arr[0] = 5

    def test_excluded_edge_endpoints(self):
        trips = [Triplet(0, 0, 1), Triplet(1, 0, 2), Triplet(0, 0, 1)]
        g = build_graph(trips, 3, 1, add_inverse=True)
        src, rel, tgt = g.excluded_edge_endpoints(0, 0, 1)
        # both duplicate copies plus both inverse copies are excluded
        assert sorted(zip(src.tolist(), rel.tolist(), tgt.tolist())) == [
            (0, 0, 1), (0, 0, 1), (1, 1, 0), (1, 1, 0)]
        assert g.excluded_edge_endpoints(2, 0, 0) is None
        # without inverses, (1, r0, 0)'s inverse relation id 2 is out of range; packed into the
        # sort key it would alias the stored fact (0, r0, 2)
        g = build_graph([Triplet(0, 0, 2)], 3, 2, add_inverse=False)
        assert g.excluded_edge_endpoints(1, 0, 0) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_excluded_edge_endpoints_match_index_scan(self, seed):
        # duplicates and self-loops; queries in both directions, present or not
        rng = np.random.default_rng(seed)
        n, r = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        trips = [Triplet(int(rng.integers(n)), int(rng.integers(r)), int(rng.integers(n)))
                 for _ in range(int(rng.integers(0, 30)))]
        trips += [Triplet(h, rel, h) for h in range(0, n, 2) for rel in range(r)]  # self-loops
        g = build_graph(trips + trips[:5], n, r, add_inverse=True)   # duplicate copies
        src, rel, tgt = g.in_src, g.in_rel, g.in_tgt
        for h in range(n):
            for q in range(2 * r):
                for t in range(n):
                    inv = q + r if q < r else q - r
                    pos = np.concatenate([np.flatnonzero((src == h) & (rel == q) & (tgt == t)),
                                          np.flatnonzero((src == t) & (rel == inv) & (tgt == h))])
                    got = g.excluded_edge_endpoints(h, q, t)
                    if not len(pos):
                        assert got is None
                        continue
                    want = (src[pos], rel[pos], tgt[pos])
                    assert [a.dtype for a in got] == [np.int64] * 3
                    assert [a.tobytes() for a in got] == [w.tobytes() for w in want]


class TestFilterSets:
    def test_union_by_definition(self):
        train = [Triplet(0, 0, 1), Triplet(0, 0, 2)]
        test = [Triplet(0, 0, 3)]
        filters = build_filter_sets(train, test)
        assert filters[(0, 0)] == {1, 2, 3}

    def test_disjoint_keys_singletons(self):
        filters = build_filter_sets([Triplet(0, 0, 1), Triplet(1, 1, 0)])
        assert filters == {(0, 0): {1}, (1, 1): {0}}

    def test_query_filters_cover_inverse_direction(self):
        filters = query_filters([[Triplet(0, 0, 1)]], num_base_relations=1)
        assert filters[(0, 0)] == {1} and filters[(1, 1)] == {0}

    def test_make_queries_both_directions_gold_in_filter(self):
        trips = [Triplet(0, 0, 1), Triplet(2, 0, 1)]
        filters = query_filters([trips], num_base_relations=1)
        queries = make_queries(trips, 1, filters)
        assert len(queries) == 4
        for q in queries:
            assert q.gold_tail in q.filter_set
        assert queries[1].head == 1 and queries[1].relation == 1 and queries[1].gold_tail == 0
        assert queries[1].filter_set == {0, 2}

    def test_arrays_give_python_ints(self):
        arr = np.array([[0, 0, 1], [2, 0, 1]], dtype=np.int64)
        filters = query_filters([arr], num_base_relations=1)
        assert filters == query_filters([[Triplet(0, 0, 1), Triplet(2, 0, 1)]], num_base_relations=1)
        queries = make_queries(arr, 1, filters)
        assert queries == make_queries([Triplet(0, 0, 1), Triplet(2, 0, 1)], 1, filters)
        for q in queries:
            assert all(type(v) is int for v in (q.head, q.relation, q.gold_tail, *q.filter_set))
        assert all(type(v) is int for key, tails in filters.items() for v in (*key, *tails))

    @staticmethod
    def _facts(rng, num_entities, num_base_relations, n):
        """Seeded facts with repeats and self-loops mixed in."""
        facts = np.stack([rng.integers(num_entities, size=n), rng.integers(num_base_relations, size=n),
                          rng.integers(num_entities, size=n)], axis=1)
        facts[: n // 4] = facts[rng.integers(n // 4, n, size=n // 4)]  # repeated facts
        facts[n // 4: n // 3, 2] = facts[n // 4: n // 3, 0]  # self-loops
        return facts[rng.permutation(n)]

    @staticmethod
    def _assert_same_queries(got, want):
        got = list(got)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w
            assert all(type(v) is int for v in (g.head, g.relation, g.gold_tail, *g.filter_set))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_queries_match_fact_by_fact_oracle(self, seed):
        rng = np.random.default_rng(seed)
        num_entities, num_base_relations = 30, 4
        splits = [self._facts(rng, num_entities, num_base_relations, 200),
                  self._facts(rng, num_entities, num_base_relations, 40),
                  np.empty((0, 3), dtype=np.int64)]
        filters = query_filters(splits, num_base_relations)
        augmented = [part for s in splits for part in (s, s[:, ::-1] + (0, num_base_relations, 0))]
        want = build_filter_sets(*augmented)
        assert dict(filters) == want
        assert list(filters) == sorted(want, key=lambda k: k[0] * 2 * num_base_relations + k[1])
        # the CSR arrays are canonical: each key's tails once, ascending
        assert [filters.tails[lo:hi].tolist() for lo, hi in zip(filters.ptr[:-1], filters.ptr[1:])] == \
            [sorted(want[key]) for key in filters]
        for split in splits:
            queries = make_queries(split, num_base_relations, filters)
            self._assert_same_queries(queries, oracle_queries(split, num_base_relations, splits))
            self._assert_same_queries(queries[3:17:2], oracle_queries(split, num_base_relations, splits)[3:17:2])
            if len(split):
                assert queries[-1] == queries[len(queries) - 1] == queries[np.int64(len(queries) - 1)]

    def test_inductive_pairing_matches_oracle(self):
        rng = np.random.default_rng(3)
        train = self._facts(rng, 40, 3, 150)
        inference, test = self._facts(rng, 12, 3, 60), self._facts(rng, 12, 3, 20)
        filters = query_filters([inference, test], 3)
        self._assert_same_queries(make_queries(test, 3, filters), oracle_queries(test, 3, [inference, test]))
        train_filters = query_filters([train], 3)
        self._assert_same_queries(make_queries(train, 3, train_filters), oracle_queries(train, 3, [train]))

    def test_queries_share_their_key_filter(self):
        trips = np.array([[0, 0, t] for t in range(1, 1001)], dtype=np.int64)
        filters = query_filters([trips], num_base_relations=1)
        tracemalloc.start()
        try:
            held = list(make_queries(trips, 1, filters))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"{peak / 2**20:.1f} MB held for {trips.nbytes} bytes of facts"
        assert len({id(q.filter_set) for q in held[0::2]}) == 1 and len(held[0].filter_set) == 1000

    @pytest.mark.parametrize("bad", [[0, 2, 1], [0, 3, 1], [-1, 0, 1], [0, -1, 1], [0, 0, -1]])
    def test_ids_that_could_alias_packed_keys_are_refused(self, bad):
        good = np.array([[0, 0, 1], [1, 1, 2]], dtype=np.int64)
        bad_rows = np.array([bad], dtype=np.int64)
        with pytest.raises(GraphError, match="relation id|negative id"):
            query_filters([good, bad_rows], num_base_relations=2)
        filters = query_filters([good], num_base_relations=2)
        with pytest.raises(GraphError, match="relation id|negative id"):
            make_queries(bad_rows, 2, filters)
        with pytest.raises(GraphError, match="base relations"):
            make_queries(good, 3, filters)
        # packed as head * 4 + relation these would hit the keys of (1, 1) and (2, 3)
        for key in ((0, 5), (-1, 9), (3, -1), (5, 0)):
            assert key not in filters

    def test_make_queries_refuses_facts_the_filters_do_not_cover(self):
        filters = query_filters([[Triplet(0, 0, 1)]], num_base_relations=1)
        with pytest.raises(KeyError, match=r"\(2, 0\)"):
            make_queries([Triplet(0, 0, 1), Triplet(2, 0, 1)], 1, filters)


requires_umls = pytest.mark.skipif(
    not os.path.exists(os.path.join(UMLS_DIR, "train.txt")), reason="bundled UMLS files missing"
)


@requires_umls
class TestUMLS:
    def test_vocabulary_sizes(self):
        ds = load_dataset(UMLS_DIR)
        assert ds.mode == "transductive"
        assert ds.num_entities == 135
        assert ds.num_relations == 46
        assert len(ds.train) == 5216 and len(ds.valid) == 652 and len(ds.test) == 661

    def test_filter_sets_account_for_every_distinct_triplet(self):
        ds = load_dataset(UMLS_DIR)
        filters = build_filter_sets(ds.train, ds.valid, ds.test)
        distinct = {tuple(row) for split in (ds.train, ds.valid, ds.test) for row in split.tolist()}
        assert sum(len(s) for s in filters.values()) == len(distinct)

    def test_augmented_graph_counts(self):
        ds = load_dataset(UMLS_DIR)
        g = build_graph(ds.train, ds.num_entities, ds.num_relations, add_inverse=True)
        assert g.num_edges == 2 * 5216 and g.num_relations == 92


class TestInductiveLayout:
    def test_inference_split_separate_entities_shared_relations(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        write_lines(d / "train.txt", ["a\tr\tb", "b\tr\tc"])
        write_lines(d / "valid.txt", ["a\tr\tc"])
        write_lines(d / "inference.txt", ["x\tr\ty"])
        write_lines(d / "test.txt", ["y\tr\tx"])
        ds = load_dataset(str(d))
        assert ds.mode == "inductive"
        assert ds.num_entities == 3 and ds.num_inference_entities == 2
        assert ds.inference.tolist() == [[0, 0, 1]] and ds.test.tolist() == [[1, 0, 0]]

    def test_splits_match_tuple_parser(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        inference = wn18rr_lines(8, count=200, entities=50)
        relations = list(dict.fromkeys(line.split("\t")[1] for line in inference))
        train = AWKWARD + "".join(f"\n{h}\t{r}\t{h}" for h, r in zip("abcdef", relations))
        (d / "train.txt").write_bytes(train.encode("utf-8"))
        write_lines(d / "valid.txt", ["# valid", "x\tr2\tnew entity", "", "c \tr 1\td"])
        write_lines(d / "inference.txt", inference)
        test = f"00000003\t{relations[0]}\t00000007\r\n\r\n00000001\tr2\t00000002"
        (d / "test.txt").write_bytes(test.encode("utf-8"))
        ds = load_dataset(str(d))
        ev, rv = Vocabulary(), Vocabulary()
        train, _, _ = tuple_parser(str(d / "train.txt"), ev, rv)
        rv.frozen = True
        valid, _, _ = tuple_parser(str(d / "valid.txt"), ev, rv)
        iv = Vocabulary()
        inference, _, _ = tuple_parser(str(d / "inference.txt"), iv, rv)
        test, _, _ = tuple_parser(str(d / "test.txt"), iv, rv)
        assert ds.mode == "inductive"
        for got, want in ((ds.train, train), (ds.valid, valid), (ds.inference, inference), (ds.test, test)):
            assert got.dtype == np.int64 and got.tolist() == [list(t) for t in want]
        assert ds.entity_vocab.tokens == ev.tokens and ds.relation_vocab.tokens == rv.tokens
        assert ds.inference_entity_vocab.tokens == iv.tokens

    def test_inference_new_relation_rejected(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        write_lines(d / "train.txt", ["a\tr\tb"])
        write_lines(d / "valid.txt", ["a\tr\tb"])
        write_lines(d / "inference.txt", ["x\tnew_rel\ty"])
        write_lines(d / "test.txt", ["x\tr\ty"])
        with pytest.raises(VocabularyError):
            load_dataset(str(d))

    def test_missing_split_reported(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(str(tmp_path))
