"""Ranking and metric tests against sort-based and closed-form oracles."""

import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import make_model, random_graph, use_cpus
from kgreason import evaluation, model
from kgreason.data import Query, build_graph, load_dataset, make_queries, query_filters
from kgreason.evaluation import (
    Children,
    MetricsError,
    RankingError,
    WorkerError,
    available_cpus,
    blas_threads,
    cgroup_cpu_limit,
    compute_metrics,
    evaluate,
    map_in_workers,
    query_filter_mask,
    rank_answer,
    send,
    split_tasks,
)
from kgreason.model import pin_noise, rmpnn_forward, score_query

UMLS_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "umls")


def sort_rank_oracle(scores, gold, filter_mask=None):
    """Independent reference: mean position of the gold inside the sorted pool."""
    n = len(scores)
    keep = np.ones(n, dtype=bool) if filter_mask is None else ~np.asarray(filter_mask)
    keep[gold] = True
    pool = np.asarray(scores)[keep]
    order = np.sort(pool)[::-1]
    gold_score = scores[gold]
    first = int(np.searchsorted(-order, -gold_score, side="left"))
    last = int(np.searchsorted(-order, -gold_score, side="right"))
    return float(np.mean(np.arange(first + 1, last + 1)))


class TestRankAnswer:
    def test_strictly_best_is_rank_one(self):
        assert rank_answer(np.array([0.1, 0.9, 0.3]), 1) == 1.0

    def test_all_tied_mean_rank(self):
        assert rank_answer(np.ones(5), 2) == 3.0  # 1 + 0 + 4/2

    def test_filtered_competitors_removed(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        mask = np.zeros(4, dtype=bool)
        mask[0] = True  # a known true tail outranks gold but is filtered
        assert rank_answer(scores, 2, mask) == 2.0

    @pytest.mark.parametrize("scores", [[np.nan, np.nan, np.nan], [0.5, np.nan, 0.2]], ids=["all", "gold"])
    def test_nan_gold_score_is_ranking_error(self, scores):
        with pytest.raises(RankingError, match="^gold entity 1 has a NaN score$"):
            rank_answer(np.array(scores, dtype=np.float32), 1)

    def test_gold_masked_is_contract_error(self):
        mask = np.array([True, False])
        with pytest.raises(RankingError):
            rank_answer(np.array([0.5, 0.5]), 0, mask)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 101))
        # coarse quantization forces ties into the pool
        scores = np.round(rng.random(n), 2)
        gold = int(rng.integers(n))
        mask = rng.random(n) < 0.2
        mask[gold] = False
        assert rank_answer(scores, gold, mask) == pytest.approx(sort_rank_oracle(scores, gold, mask))

    def test_filtering_monotonicity(self):
        rng = np.random.default_rng(9)
        scores = rng.random(50)
        gold = 7
        mask = np.zeros(50, dtype=bool)
        prev = rank_answer(scores, gold, mask)
        for extra in [3, 12, 30, 44]:
            mask[extra] = True
            cur = rank_answer(scores, gold, mask)
            assert cur <= prev
            prev = cur

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(10)
        scores = rng.random(40)
        gold = 5
        mask = rng.random(40) < 0.15
        mask[gold] = False
        base = rank_answer(scores, gold, mask)
        for f in (lambda s: 3 * s + 1, np.exp, lambda s: np.log(s + 1.0)):
            assert rank_answer(f(scores), gold, mask) == base


class TestComputeMetrics:
    def test_perfect_ranks(self):
        m = compute_metrics([1, 1, 1])
        assert m.mrr == 1.0 and m.hits1 == m.hits3 == m.hits10 == 1.0

    def test_closed_form_124(self):
        m = compute_metrics([1, 2, 4])
        assert m.mrr == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert m.hits1 == pytest.approx(1 / 3)
        assert m.hits3 == pytest.approx(2 / 3)
        assert m.hits10 == 1.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            compute_metrics([])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        ranks = rng.integers(1, 50, size=200).astype(float)
        m = compute_metrics(ranks)
        assert m.mrr == pytest.approx(np.mean([1.0 / r for r in ranks]))
        for n, got in [(1, m.hits1), (3, m.hits3), (10, m.hits10)]:
            assert got == pytest.approx(np.mean([1.0 if r <= n else 0.0 for r in ranks]))
        assert m.hits1 <= m.hits3 <= m.hits10
        assert m.mrr >= m.hits1

    def test_direction_pooling_mean(self):
        rng = np.random.default_rng(3)
        fwd = rng.integers(1, 30, size=100).astype(float)
        bwd = rng.integers(1, 30, size=100).astype(float)
        pooled = compute_metrics(np.concatenate([fwd, bwd]))
        assert pooled.mrr == pytest.approx(
            (compute_metrics(fwd).mrr + compute_metrics(bwd).mrr) / 2
        )


class TestPerfectMemorizer:
    def test_known_answers_rank_first(self):
        trips = [(0, 0, 1), (1, 0, 2), (2, 1, 0)]
        n = 3
        ranks = []
        for h, r, t in trips:
            scores = np.full(n, 0.01)
            scores[t] = 0.99  # a memorizer puts all mass on the stored tail
            ranks.append(rank_answer(scores, t))
        assert compute_metrics(ranks).mrr == 1.0


class TestEvaluate:
    def test_toy_graph_deterministic(self, rng):
        cfg, params = make_model(num_relations=4, seed=31, noise_mode="fixed_seed")
        g = random_graph(rng, 8, 2, 14)
        queries = [Query(0, 1, 2, frozenset({2, 3})), Query(4, 0, 5, frozenset({5}))]
        r1 = evaluate(g, queries, params, cfg, noise_seed=7)
        r2 = evaluate(g, queries, params, cfg, noise_seed=7)
        assert r1 == r2
        assert len(r1.ranks) == 2 and all(1 <= rank <= 8 for rank in r1.ranks)

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("noise_mode", ["per_forward", "disabled"])
    def test_scores_each_pair_once(self, rng, monkeypatch, process_log, raw, noise_mode):
        use_cpus(monkeypatch, 3)  # spies see every worker
        cfg, params = make_model(num_relations=4, seed=32, noise_mode=noise_mode)
        g = random_graph(rng, 9, 2, 16)
        pairs = [(0, 1), (3, 0), (0, 1), (5, 2), (3, 0), (0, 1), (8, 3)]
        queries = [Query(h, r, (h + 1 + i) % 9, frozenset({(h + 1 + i) % 9, (h + 2) % 9}))
                   for i, (h, r) in enumerate(pairs)]
        pinned = pin_noise(cfg, 7)
        reference = []
        for q in queries:  # the per-query loop: one forward per query
            scores = score_query(g, q, params, pinned)
            mask = None if raw else query_filter_mask(q, g.num_entities)
            reference.append(rank_answer(scores, q.gold_tail, mask))

        def counting(graph, query, *args, **kwargs):
            process_log.append((query.head, query.relation))
            return score_query(graph, query, *args, **kwargs)

        monkeypatch.setattr(evaluation, "score_query", counting)
        report = evaluate(g, queries, params, cfg, noise_seed=7, raw=raw)
        assert sorted(process_log.records()) == [(0, 1), (3, 0), (5, 2), (8, 3)]  # over every worker
        assert report.ranks == reference
        assert report == compute_metrics(reference)


    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("noise_mode", ["fixed_seed", "disabled"])
    @pytest.mark.parametrize("kernel_mode", ["approximate", "full_exponential"])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_relation_grouping_matches_per_pair_loop(self, rng, monkeypatch, process_log, precision,
                                                     kernel_mode, noise_mode, raw):
        use_cpus(monkeypatch, 3)  # spies see every worker
        # layer 0's query side is computed once per relation and shared; layer 1 runs as usual
        cfg, params = make_model(num_relations=4, seed=34, precision=precision, kernel_mode=kernel_mode,
                                 noise_mode=noise_mode, attention_layers=2)
        for p in params.parameters():  # off the zero-bias init, where layer 0 ignores the relation
            p.data += (0.2 * rng.standard_normal(p.data.shape)).astype(p.data.dtype)
        g = random_graph(rng, 9, 2, 16)
        pairs = [(0, 1), (3, 1), (0, 2), (5, 1), (3, 1), (7, 2), (0, 1), (2, 0), (8, 2)]
        queries = [Query(h, r, (h + 1 + i) % 9, frozenset({(h + 1 + i) % 9, (h + 2) % 9}))
                   for i, (h, r) in enumerate(pairs)]
        pinned = pin_noise(cfg, 5)
        reference, vectors = [], {}
        for q in queries:
            scores = vectors.setdefault((q.head, q.relation), score_query(g, q, params, pinned))
            mask = None if raw else query_filter_mask(q, g.num_entities)
            reference.append(rank_answer(scores, q.gold_tail, mask))

        def keeping(graph, query, *args, **kwargs):
            scores = score_query(graph, query, *args, **kwargs)
            process_log.append(((query.head, query.relation), scores.dtype.str, scores.tobytes()))
            return scores

        monkeypatch.setattr(evaluation, "score_query", keeping)
        report = evaluate(g, queries, params, cfg, noise_seed=5, raw=raw)
        scored = {pair: (dtype, blob) for pair, dtype, blob in process_log.records()}
        assert len(scored) == len(process_log.records())
        assert scored == {pair: (v.dtype.str, v.tobytes()) for pair, v in vectors.items()}
        assert report.ranks == reference
        assert report == compute_metrics(reference)

    def test_layer0_query_net_runs_once_per_relation(self, rng, monkeypatch, process_log):
        use_cpus(monkeypatch, 3)  # spies see every worker
        cfg, params = make_model(num_relations=4, seed=35, noise_mode="per_forward", attention_layers=2)
        g = random_graph(rng, 9, 2, 16)
        pairs = [(0, 1), (3, 1), (0, 2), (5, 1), (3, 1), (7, 2), (0, 1), (2, 0)]
        queries = [Query(h, r, (h + 1) % 9, frozenset({(h + 1) % 9})) for h, r in pairs]
        nets = {id(layer.head.query_net): f"layer{i}.query" for i, layer in enumerate(params.layers)}
        nets.update({id(layer.head.value_net): f"layer{i}.value" for i, layer in enumerate(params.layers)})

        def counting(tape, graph, x, rq, relations, net, *args, **kwargs):
            process_log.append((nets[id(net)], rq))
            return rmpnn_forward(tape, graph, x, rq, relations, net, *args, **kwargs)

        monkeypatch.setattr(model, "rmpnn_forward", counting)
        evaluate(g, queries, params, cfg, noise_seed=3)
        runs = {name: [] for name in nets.values()}
        for name, rq in process_log.records():  # each worker's calls, in arrival order
            runs[name].append(rq)
        distinct_pairs = list(dict.fromkeys(pairs))
        assert sorted(runs.pop("layer0.query")) == [0, 1, 2]
        for name, relations in runs.items():
            assert sorted(relations) == sorted(r for _, r in distinct_pairs), name


def relation_groups_case(rng, precision="float64", kernel_mode="approximate"):
    """A perturbed two-layer model, a toy graph, and 40 queries over up to eight relations (pairs repeat)."""
    cfg, params = make_model(num_relations=8, seed=36, precision=precision, kernel_mode=kernel_mode,
                             noise_mode="fixed_seed", attention_layers=2)
    for p in params.parameters():
        p.data += (0.2 * rng.standard_normal(p.data.shape)).astype(p.data.dtype)
    g = random_graph(rng, 12, 4, 30)
    heads, relations, tails = rng.integers(12, size=40), rng.integers(8, size=40), rng.integers(12, size=40)
    heads[20:], relations[20:] = heads[:20], relations[:20]
    queries = [Query(int(h), int(r), int(t), frozenset({int(t), int((h + t) % 12)}))
               for h, r, t in zip(heads, relations, tails)]
    return cfg, params, g, queries


class TestWorkers:
    """``evaluate`` over several processes is the one-process loop, in ranks, reports and errors."""

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("kernel_mode", ["approximate", "full_exponential"])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_workers_are_byte_equal_to_one_process(self, rng, monkeypatch, precision, kernel_mode, raw):
        cfg, params, g, queries = relation_groups_case(rng, precision, kernel_mode)
        reports = {}
        for cpus in (1, 2, 3, 8):
            use_cpus(monkeypatch, cpus)
            reports[cpus] = evaluate(g, queries, params, cfg, noise_seed=4, raw=raw)
        one = reports.pop(1)
        for report in reports.values():
            assert np.array(report.ranks).tobytes() == np.array(one.ranks).tobytes()
            assert (str(report), report.as_dict()) == (str(one), one.as_dict())

    @pytest.mark.parametrize("poisoned", ["every relation", "all but the first query's"])
    def test_nan_model_raises_the_one_process_error(self, rng, monkeypatch, poisoned):
        cfg, params, g, queries = relation_groups_case(rng)
        rows = [r for r in range(8) if poisoned == "every relation" or r != queries[0].relation]
        params.relations.data[rows] = np.nan  # NaN scores for every query of these relations
        errors = {}
        for cpus in (1, 8):  # 8 workers: one relation each, so this process holds only the first query's
            use_cpus(monkeypatch, cpus)
            with pytest.raises(RankingError, match="has a NaN score") as info:
                evaluate(g, queries, params, cfg, noise_seed=4)
            errors[cpus] = str(info.value)
        assert errors[8] == errors[1]

    def test_split_is_largest_first_to_least_loaded(self):
        assert split_tasks([1, 5, 2, 2, 1], 2) == [[0, 2, 3], [1, 4]]
        assert split_tasks([3, 1, 1], 3) == [[0], [1], [2]]

    def test_workers_follow_affinity_capped_at_the_tasks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        monkeypatch.setattr(evaluation, "cgroup_cpu_limit", lambda: None)
        monkeypatch.setattr(evaluation, "blas_threads", lambda: 1)
        assert available_cpus() == 3
        forks = []

        def counting_fork(_fork=os.fork):
            forks.append(1)
            return _fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        results = map_in_workers(lambda t: np.full(t, t, float), [1, 2], [1, 1])
        assert [r.tolist() for r in results] == [[1.0], [2.0, 2.0]]
        assert len(forks) == 1
        assert len(map_in_workers(lambda t: np.zeros(1), range(9), [1] * 9)) == 9
        assert len(forks) == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert available_cpus() == 7

    @pytest.mark.parametrize("limit, cpus", [(None, 4), (0.5, 1), (1.5, 2), (2.0, 2), (6.0, 4)])
    def test_workers_stay_within_the_cpu_quota(self, monkeypatch, limit, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(evaluation, "cgroup_cpu_limit", lambda: limit)
        assert available_cpus() == cpus

    def test_cgroup_quota_is_the_tightest_of_the_process_cgroups_and_their_ancestors(self, tmp_path):
        def write(relative, text):
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

        membership = tmp_path / "cgroup"
        write("cgroup", "0::/a/b\n")
        assert cgroup_cpu_limit(str(tmp_path / "fs"), str(membership)) is None  # no cpu.max anywhere
        write("fs/a/b/cpu.max", "max 100000\n")
        assert cgroup_cpu_limit(str(tmp_path / "fs"), str(membership)) is None  # "max" sets no quota
        write("fs/a/cpu.max", "300000 100000\n")
        assert cgroup_cpu_limit(str(tmp_path / "fs"), str(membership)) == 3.0  # an ancestor's quota
        write("fs/a/b/cpu.max", "150000 100000\n")
        assert cgroup_cpu_limit(str(tmp_path / "fs"), str(membership)) == 1.5
        # cgroup v1: the cpu controller's own hierarchy, quota and period in two files, -1 for none
        write("cgroup", "4:memory:/m\n3:cpu,cpuacct:/x\n0::/\n")
        write("fs/cpu/x/cpu.cfs_quota_us", "-1\n")
        write("fs/cpu/x/cpu.cfs_period_us", "100000\n")
        assert cgroup_cpu_limit(str(tmp_path / "fs"), str(membership)) is None
        write("fs/cpu/x/cpu.cfs_quota_us", "50000\n")
        assert cgroup_cpu_limit(str(tmp_path / "fs"), str(membership)) == 0.5
        assert cgroup_cpu_limit(str(tmp_path / "fs"), str(tmp_path / "missing")) is None

    @pytest.mark.parametrize("threads", [2, None])
    def test_runs_here_unless_blas_reports_one_thread(self, monkeypatch, threads):
        monkeypatch.setattr(evaluation, "available_cpus", lambda: 4)
        monkeypatch.setattr(evaluation, "blas_threads", lambda: threads)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a multi-threaded BLAS"))
        pids = map_in_workers(lambda t: np.array([float(os.getpid())]), range(4), [1] * 4)
        assert [p.tolist() for p in pids] == [[float(os.getpid())]] * 4

    def test_blas_thread_count_is_read_from_the_library(self):
        if blas_threads() is None:
            pytest.skip("numpy's BLAS offers no thread-count query")
        probe = "from kgreason.evaluation import blas_threads; print(blas_threads())"
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.path.dirname(os.path.dirname(evaluation.__file__)))
            out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                                 check=True)
            assert out.stdout.strip() == threads

    def test_a_share_whose_fork_fails_runs_here(self, monkeypatch):
        # a failed fork kills the children already made, and every task runs in this process
        use_cpus(monkeypatch, 3)
        fork = os.fork
        for forks_before_failing in (0, 1):   # every fork fails; the first succeeds and the second fails
            forks = []

            def failing_fork():
                forks.append(None)
                if len(forks) > forks_before_failing:
                    raise BlockingIOError(11, "Resource temporarily unavailable")
                return fork()

            monkeypatch.setattr(os, "fork", failing_fork)
            pids = map_in_workers(lambda t: np.array([float(os.getpid()), t]), range(5), [1] * 5)
            assert [p.tolist() for p in pids] == [[float(os.getpid()), t] for t in range(5)]
            assert len(forks) == forks_before_failing + 1
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_a_child_holds_no_pipe_end_of_an_earlier_child(self, monkeypatch):
        made = []   # every pipe end made here, its number possibly reused after a close

        def recording_pipe(_pipe=os.pipe):
            ends = _pipe()
            made.extend(ends)
            return ends

        def run(k, read_end, write_end):
            held = []
            for fd in sorted(set(made) - {read_end, write_end}):
                try:
                    os.fstat(fd)
                    held.append(fd)
                except OSError:
                    pass
            send(write_end, pickle.dumps(held))

        monkeypatch.setattr(os, "pipe", recording_pipe)
        children = Children(3, run, "test child")
        assert [children.outcome(k) for k in range(3)] == [[], [], []]

    @pytest.mark.parametrize("case", ["one worker", "no fork"])
    def test_runs_here_with_one_worker_or_no_fork(self, monkeypatch, case):
        if case == "one worker":
            use_cpus(monkeypatch, 1)
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one worker"))
        else:
            use_cpus(monkeypatch, 4)
            monkeypatch.delattr(os, "fork")
        pids = map_in_workers(lambda t: np.array([float(os.getpid())]), range(4), [1] * 4)
        assert [p.tolist() for p in pids] == [[float(os.getpid())]] * 4

    def test_child_error_comes_back_with_its_type_and_message(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        caller = os.getpid()

        def work(t):
            if os.getpid() != caller:
                raise KeyError(f"task {t}")
            return np.zeros(2)

        # shares [0, 3], [1] and [2]: both children fail, and the first failing task's error is raised
        with pytest.raises(KeyError, match="'task 1'"):
            map_in_workers(work, range(4), [1] * 4)

    @pytest.mark.parametrize("caller_fails_at", [0, 3])
    def test_caller_and_child_errors_raise_the_first_failing_task(self, monkeypatch, caller_fails_at):
        use_cpus(monkeypatch, 3)
        caller = os.getpid()

        def work(t):
            if os.getpid() == caller and t == caller_fails_at:
                raise KeyError(f"task {t}")
            if os.getpid() != caller and t == 1:
                raise KeyError(f"task {t}")
            return np.zeros(1)

        # shares [0, 3], [1] and [2]: the loop over the tasks meets the lower failing task first
        with pytest.raises(KeyError, match=f"'task {min(caller_fails_at, 1)}'"):
            map_in_workers(work, range(4), [1] * 4)

    def test_unpicklable_child_error_is_named(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        caller = os.getpid()

        class LocalError(Exception):
            pass

        def work(t):
            if os.getpid() != caller:
                raise LocalError("boom")
            return np.zeros(1)

        with pytest.raises(WorkerError, match="^LocalError: boom$"):
            map_in_workers(work, range(2), [1, 1])

    def test_child_without_a_result_is_named_with_its_exit_code(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        caller = os.getpid()

        def work(t):
            if os.getpid() != caller:
                os._exit(3)
            return np.zeros(1)

        with pytest.raises(WorkerError, match=r"^evaluation worker \d+ exited with code 3 and no result$"):
            map_in_workers(work, range(2), [1, 1])

    def test_child_killed_by_signal_is_named(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        caller = os.getpid()

        def work(t):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return np.zeros(1)

        with pytest.raises(WorkerError, match=r"^evaluation worker \d+ was killed by signal SIGKILL$"):
            map_in_workers(work, range(2), [1, 1])

    def test_caller_error_kills_and_reaps_its_children(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        caller = os.getpid()

        def work(t):
            if os.getpid() == caller:
                raise ValueError("this process's share failed")
            time.sleep(60)  # the children would still be running
            return np.zeros(1)

        start = time.perf_counter()
        with pytest.raises(ValueError, match="this process's share failed"):
            map_in_workers(work, range(3), [1] * 3)
        assert time.perf_counter() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


requires_umls = pytest.mark.skipif(
    not os.path.exists(os.path.join(UMLS_DIR, "train.txt")), reason="bundled UMLS files missing"
)


@requires_umls
class TestUntrainedBaseline:
    def test_untrained_mrr_near_random_expectation(self):
        ds = load_dataset(UMLS_DIR)
        cfg, params = make_model(
            num_relations=2 * ds.num_relations, seed=33,
            hidden_dim=16, attention_layers=1, query_layers=1, value_layers=1,
            noise_mode="fixed_seed", precision="float64",
        )
        g = build_graph(ds.train, ds.num_entities, ds.num_relations, add_inverse=True)
        filters = query_filters([ds.train, ds.valid, ds.test], ds.num_relations)
        queries = make_queries(ds.test, ds.num_relations, filters)[:400]
        report = evaluate(g, queries, params, cfg, noise_seed=3)
        # analytic random-ranking MRR for 135 entities is ~0.041
        assert 0.02 <= report.mrr <= 0.10, report
