"""Loader, vocabulary, graph-index and filter-set tests."""

import os

import numpy as np
import pytest

from kgreason.data import (
    GraphError,
    ParseError,
    Triplet,
    Vocabulary,
    VocabularyError,
    build_filter_sets,
    build_graph,
    inverse_triplets,
    load_dataset,
    load_triplets,
    make_queries,
    query_filters,
)

UMLS_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "umls")


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadTriplets:
    def test_basic_first_seen_ids(self, tmp_path):
        f = tmp_path / "t.txt"
        write_lines(f, ["a\tr1\tb", "b\tr2\tc", "# comment line", "a\tr1\tc"])
        trips, ev, rv = load_triplets(str(f))
        assert trips == [Triplet(0, 0, 1), Triplet(1, 1, 2), Triplet(0, 0, 2)]
        assert ev.tokens == ("a", "b", "c") and rv.tokens == ("r1", "r2")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("")
        trips, ev, rv = load_triplets(str(f))
        assert trips == [] and len(ev) == 0 and len(rv) == 0

    def test_malformed_line_reports_lineno(self, tmp_path):
        f = tmp_path / "t.txt"
        write_lines(f, ["a\tr\tb", "broken line"])
        with pytest.raises(ParseError, match=":2:"):
            load_triplets(str(f))

    def test_fixed_vocab_rejects_unknown(self, tmp_path):
        f = tmp_path / "t.txt"
        write_lines(f, ["a\tr\tz"])
        ev = Vocabulary(["a", "b"], frozen=True)
        with pytest.raises(VocabularyError, match="'z'"):
            load_triplets(str(f), entity_vocab=ev)

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
        assert g.incoming(1) == [(0, 0)]
        assert g.incoming(0) == [(1, 1)]

    def test_duplicates_preserved(self):
        trips = [Triplet(0, 0, 1), Triplet(0, 0, 1)]
        g = build_graph(trips, 2, 1, add_inverse=True)
        assert g.num_edges == 4
        assert g.incoming(1) == [(0, 0), (0, 0)]

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
        all_edges = trips + inverse_triplets(trips, r)
        for u in range(n):
            expected = sorted((h, rel) for h, rel, t in all_edges if t == u)
            got = sorted(g.incoming(u))
            assert got == expected

    def test_edges_index_roundtrip_lossless(self):
        rng = np.random.default_rng(42)
        trips = [Triplet(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6))) for _ in range(40)]
        g = build_graph(trips, 6, 2, add_inverse=True)
        from_index = []
        for u in range(6):
            from_index.extend(Triplet(h, rel, u) for h, rel in g.incoming(u))
        assert sorted(from_index) == sorted(g.edges)

    def test_immutable_arrays(self):
        g = build_graph([Triplet(0, 0, 1)], 2, 1)
        with pytest.raises(ValueError):
            g.heads[0] = 5

    def test_excluded_edge_endpoints(self):
        trips = [Triplet(0, 0, 1), Triplet(1, 0, 2), Triplet(0, 0, 1)]
        g = build_graph(trips, 3, 1, add_inverse=True)
        src, rel, tgt = g.excluded_edge_endpoints(0, 0, 1)
        # both duplicate copies plus both inverse copies are excluded
        assert sorted(zip(src.tolist(), rel.tolist(), tgt.tolist())) == [
            (0, 0, 1), (0, 0, 1), (1, 1, 0), (1, 1, 0)]
        assert g.excluded_edge_endpoints(2, 0, 0) is None


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
        distinct = set(ds.train) | set(ds.valid) | set(ds.test)
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
        assert ds.inference == [Triplet(0, 0, 1)] and ds.test == [Triplet(1, 0, 0)]

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
