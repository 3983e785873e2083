"""Sampling, loss, optimizer, loop-determinism, replica, split-builder and checkpoint tests."""

import gc
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    LAYOUT_FAULTS, damage_layout, make_config, reference_save, rewrite_header, set_header, use_cpus,
)
from kgreason import UserError, training
from kgreason.autodiff import Parameter, Tape, grad_check
from kgreason.data import DatasetSplit, Triplet, Vocabulary
from kgreason.evaluation import WorkerError, available_cpus
from kgreason.model import ModelConfig, ModelParams, forward, make_noise
from kgreason.training import (
    ADAM_EPS,
    AdamState,
    Checkpoint,
    CheckpointError,
    SamplingError,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    load_checkpoint,
    negative_sampling_loss,
    rng_stream,
    sample_negatives,
    save_checkpoint,
    split_graph,
    split_queries,
    train,
)

ROOT = os.path.join(os.path.dirname(__file__), "..")


def toy_dataset(seed=0) -> DatasetSplit:
    """Six entities, two relations, a handful of facts split across files."""
    rng = np.random.default_rng(seed)
    facts = {(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6))) for _ in range(18)}
    facts = sorted(facts)
    train = [Triplet(*f) for f in facts[:12]]
    valid = [Triplet(*f) for f in facts[12:15]]
    test = [Triplet(*f) for f in facts[15:]]
    ev = Vocabulary([f"e{i}" for i in range(6)])
    rv = Vocabulary(["r0", "r1"])
    return DatasetSplit("transductive", train, valid, test, ev, rv)


TIMING_KEYS = ("queries_per_s", "fwd_ms", "bwd_ms", "opt_ms")


def toy_train_config(**overrides) -> TrainConfig:
    base = dict(learning_rate=5e-3, num_negatives=3, epochs=3, batch_size=4, seed=7,
                eval_interval=10**6, log_timing=False)
    base.update(overrides)
    return TrainConfig(**base)


class TestSampleNegatives:
    def test_forced_complement(self):
        rng = np.random.default_rng(0)
        negs = sample_negatives(rng, num_entities=3, gold=1, k=2)
        assert sorted(negs.tolist()) == [0, 2]

    def test_k_zero_empty(self):
        assert sample_negatives(np.random.default_rng(0), 10, 3, 0).size == 0

    def test_k_too_large_rejected(self):
        with pytest.raises(SamplingError):
            sample_negatives(np.random.default_rng(0), 5, 0, 5)

    def test_gold_never_drawn_and_uniform_within_3_sigma(self):
        rng = np.random.default_rng(42)
        n, gold, draws = 20, 5, 100_000
        counts = np.zeros(n, dtype=np.int64)
        for _ in range(draws):
            counts[sample_negatives(rng, n, gold, 1)[0]] += 1
        assert counts[gold] == 0
        p = 1.0 / (n - 1)
        sigma = np.sqrt(draws * p * (1 - p))
        others = np.delete(counts, gold)
        assert np.all(np.abs(others - draws * p) <= 3 * sigma), others

    def test_no_replacement(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            negs = sample_negatives(rng, 12, 4, 8)
            assert len(set(negs.tolist())) == 8 and 4 not in negs


class TestLoss:
    def test_perfect_scores_near_zero(self):
        t = Tape()
        scores = t.tensor(np.array([[0.0], [1.0], [0.0]]))
        loss = negative_sampling_loss(t, scores, gold=1, negatives=np.array([0, 2]))
        assert 0.0 <= loss.item() <= 1e-6

    def test_coin_flip_closed_form(self):
        t = Tape()
        scores = t.tensor(np.array([[0.5], [0.5]]))
        loss = negative_sampling_loss(t, scores, gold=0, negatives=np.array([1]))
        assert loss.item() == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_no_negatives_positive_term_only(self):
        t = Tape()
        scores = t.tensor(np.array([[0.25], [0.5]]))
        loss = negative_sampling_loss(t, scores, gold=1, negatives=np.empty(0, dtype=np.int64))
        assert loss.item() == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_gradient_wrt_logits_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = Parameter("logits", rng.standard_normal((6, 1)))
        negs = np.array([0, 2, 5])

        def loss_fn():
            t = Tape()
            return t, negative_sampling_loss(t, t.sigmoid(logits), 3, negs)

        report = grad_check(loss_fn, [logits], step=1e-6, tolerance=1e-6)
        assert report.passed, report.errors


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Parameter("p", np.array([[1.0, -2.0]]))
        state = AdamState([p])
        adam_step([p], state, TrainConfig(weight_decay=0.0))
        np.testing.assert_allclose(p.data, [[1.0, -2.0]])

    def test_weight_decay_shrinks_unused_parameter(self):
        p = Parameter("p", np.array([[4.0]]))
        state = AdamState([p])
        before = abs(p.data[0, 0])
        adam_step([p], state, TrainConfig(weight_decay=1e-2, learning_rate=1e-2))
        assert abs(p.data[0, 0]) < before

    def test_single_step_closed_form(self):
        # from zero moments one step moves by -lr * g / (|g| + eps)
        for g in (0.37, -2.0, 1e-3):
            p = Parameter("p", np.array([[1.0]]))
            p.grad[...] = g
            cfg = TrainConfig(learning_rate=1e-3)
            state = AdamState([p])
            adam_step([p], state, cfg)
            expected = 1.0 - cfg.learning_rate * g / (abs(g) + ADAM_EPS)
            assert p.data[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_accumulated_gradients_average_like(self):
        # two tape backwards before one step behave as summed gradients
        p = Parameter("p", np.array([[0.5]]))
        t1 = Tape()
        t1.backward(t1.scale(t1.mul(p, p), 0.5))
        t2 = Tape()
        t2.backward(t2.scale(t2.mul(p, p), 0.5))
        # each backward contributes d(0.5 p^2)/dp = p
        np.testing.assert_allclose(p.grad, 2 * p.data[0, 0])


class TestRngStreams:
    def test_streams_are_independent_and_stable(self):
        a1 = rng_stream(9, "noise").standard_normal(4)
        a2 = rng_stream(9, "noise").standard_normal(4)
        b = rng_stream(9, "negatives").standard_normal(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.allclose(a1, b)


class TestTrainLoop:
    def test_toy_loss_decreases(self):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        tcfg = toy_train_config(epochs=20)
        result = train(ds, mcfg, tcfg, log=lambda *a, **k: None)
        losses = [r["loss"] for r in result.history if r["split"] == "train"]
        assert len(losses) == 20
        assert losses[-1] < losses[0]

    def test_bit_identical_reruns(self, tmp_path):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            train(ds, mcfg, toy_train_config(), out_dir=str(out), log=lambda *a, **k: None)
            outs.append((out / "checkpoint.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_metrics_log_schema(self, tmp_path):
        import json

        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        out = tmp_path / "run"
        out.mkdir()
        train(ds, mcfg, toy_train_config(epochs=2, eval_interval=1), out_dir=str(out),
              log=lambda *a, **k: None)
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4  # train + valid per epoch
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"epoch", "split", "loss", "grad_norm", "mrr", "hits1", "hits3", "hits10",
                                "wall_ms", *TIMING_KEYS}
            assert all(rec[key] is None for key in ("wall_ms", *TIMING_KEYS))  # log_timing=false
            # the gradient norm is deterministic, so it is logged even without timing
            assert (rec["grad_norm"] > 0) if rec["split"] == "train" else rec["grad_norm"] is None
        valid_recs = [json.loads(l) for l in lines if json.loads(l)["split"] == "valid"]
        assert valid_recs and all(r["mrr"] is not None for r in valid_recs)

    def test_training_step_time_split(self):
        result = train(toy_dataset(), make_config(noise_mode="per_forward"),
                       toy_train_config(epochs=2, eval_interval=1, log_timing=True),
                       log=lambda *a, **k: None)
        for rec in result.history:
            if rec["split"] == "valid":
                assert all(rec[key] is None for key in TIMING_KEYS)
                continue
            assert all(rec[key] > 0 for key in TIMING_KEYS)
            assert rec["fwd_ms"] + rec["bwd_ms"] + rec["opt_ms"] <= rec["wall_ms"]
            assert rec["queries_per_s"] == pytest.approx(24 / (rec["wall_ms"] / 1000), rel=1e-3)

    def test_resume_reproduces_straight_run(self, tmp_path):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")

        full_dir = tmp_path / "full"
        full_dir.mkdir()
        train(ds, mcfg, toy_train_config(epochs=4, eval_interval=1), out_dir=str(full_dir),
              log=lambda *a, **k: None)

        # resume into the run's own directory: its log keeps epochs 1-2, then
        # gains 3-4; a stale epoch-3 record from an interrupted attempt is dropped,
        # and so is the record that attempt's crash cut short
        half_dir = tmp_path / "half"
        half_dir.mkdir()
        train(ds, mcfg, toy_train_config(epochs=2, eval_interval=1), out_dir=str(half_dir),
              log=lambda *a, **k: None)
        with open(half_dir / "metrics.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"epoch": 3, "split": "train"}\n{"epoch": 3, "spl')
        result = train(ds, mcfg, toy_train_config(epochs=4, eval_interval=1), out_dir=str(half_dir),
                       resume=load_checkpoint(str(half_dir / "checkpoint.bin")), log=lambda *a, **k: None)

        assert (half_dir / "checkpoint.bin").read_bytes() == (full_dir / "checkpoint.bin").read_bytes()
        log = (full_dir / "metrics.jsonl").read_bytes()
        assert (half_dir / "metrics.jsonl").read_bytes() == log
        assert [r["epoch"] for r in result.history] == [1, 1, 2, 2, 3, 3, 4, 4]

    @pytest.mark.parametrize("line", [b"{\"epoch\": 1, \"spl", b"[1]", b"{}", b"{\"epoch\": \"1\"}",
                                      b"{\"epoch\": true}", b"{\"epoch\": 1, \"split\": \"\xff\"}"],
                             ids=["cut", "list", "no-epoch", "text-epoch", "bool-epoch", "not-utf8"])
    def test_resume_refuses_a_bad_metrics_line(self, tmp_path, line):
        path = tmp_path / "metrics.jsonl"
        log = b'{"epoch": 1, "split": "train"}\n' + line + b'\n{"epoch": 2, "split": "train"}\n'
        path.write_bytes(log)
        with pytest.raises(UserError, match=r"metrics\.jsonl:2: not a metrics record"):
            training._MetricsLog(str(path), resume_epoch=1)
        assert path.read_bytes() == log   # left as it was

    def test_non_finite_gradient_names_group(self, monkeypatch):
        # a NaN planted in one accumulator survives backward; the loss stays finite
        original = ModelParams.zero_grad

        def poisoned(params):
            original(params)
            next(p for p in params.parameters() if p.name == "layer0.head0.value.rel_b").grad[0, 0] = np.nan

        monkeypatch.setattr(ModelParams, "zero_grad", poisoned)
        with pytest.raises(TrainingDiverged,
                           match=r"non-finite gradient in layer0\.head0\.value\.rel_b at epoch 1, batch 0"):
            train(toy_dataset(), make_config(noise_mode="per_forward"), toy_train_config(),
                  log=lambda *a, **k: None)

    def test_trained_fact_scores_above_mean_negative(self):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        result = train(ds, mcfg, toy_train_config(epochs=25), log=lambda *a, **k: None)
        from kgreason.data import Query, build_graph
        from kgreason.model import score_query

        g = build_graph(ds.train, 6, 2, add_inverse=True)
        margins = []
        for h, r, t in ds.train:
            scores = score_query(g, Query(h, r, t, frozenset({t})), result.params, mcfg,
                                 noise=np.zeros((6, mcfg.hidden_dim)))
            negatives = np.delete(scores, t)
            margins.append(scores[t] - negatives.mean())
        assert np.mean(margins) > 0
        assert sum(m > 0 for m in margins) >= 0.75 * len(margins)

    def test_target_mrr_stops_early(self):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        tcfg = toy_train_config(epochs=50, eval_interval=1, target_valid_mrr=0.0)
        result = train(ds, mcfg, tcfg, log=lambda *a, **k: None)
        epochs_run = max(r["epoch"] for r in result.history)
        assert epochs_run == 1  # any MRR satisfies target 0.0

    def test_inductive_train_then_inference_graph_eval(self):
        # end-to-end inductive flow: train on one entity set, rank test
        # queries against a disjoint inference fact graph (shared relations)
        from kgreason.evaluation import evaluate

        ds = toy_inductive_dataset()
        mcfg = make_config(noise_mode="per_forward")
        result = train(ds, mcfg, toy_train_config(epochs=2, eval_interval=1),
                       log=lambda *a, **k: None)
        assert [r["split"] for r in result.history] == ["train", "valid"] * 2

        graph, _ = split_graph(ds, "test")
        [queries] = split_queries(ds, "test")
        report = evaluate(graph, queries, result.params, mcfg, noise_seed=1)
        assert report.count == 2
        assert 0.0 < report.mrr <= 1.0


def quiet(*args, **kwargs):
    pass


def train_outputs(out, mcfg, tcfg, resume=None) -> dict:
    """Train the toy dataset into the directory ``out``; the bytes of each file written."""
    out.mkdir()
    train(toy_dataset(), mcfg, tcfg, out_dir=str(out), resume=resume, log=quiet)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def count_replicas(monkeypatch) -> list:
    """Pids of the training replicas forked from here on."""
    pids = []

    def forking(self, *args, _fork=training._Replicas._fork):
        child = _fork(self, *args)
        pids.append(child[0])
        return child

    monkeypatch.setattr(training._Replicas, "_fork", forking)
    return pids


def in_processes(monkeypatch, caller=None, replicas=None):
    """Make each training forward call ``caller(query)`` here and ``replicas(query)`` in a replica."""
    me = os.getpid()

    def wrapped(tape, graph, query, *args, **kwargs):
        act = caller if os.getpid() == me else replicas
        if act is not None:
            act(query)
        return forward(tape, graph, query, *args, **kwargs)

    monkeypatch.setattr(training, "forward", wrapped)


def first_query(position: int, tcfg: TrainConfig):
    """The query at ``position`` of the toy dataset's first batch."""
    [queries] = split_queries(toy_dataset(), "train")
    return queries[training.rng_stream(tcfg.seed, "shuffle").permutation(len(queries))[position]]


class TestTrainReplicas:
    """``train`` with replicas (``use_cpus``): the bytes and the errors of one process."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("batch_size", [1, 5, 16, 23])
    def test_replicas_write_the_bytes_of_one_process(self, tmp_path, monkeypatch, precision, batch_size):
        # 24 queries: batches of 5 leave a short last batch of 4, and batches of 23 a last batch
        # of one, so every replica's share of it is empty; validation every epoch writes best.bin
        mcfg = make_config(noise_mode="per_forward", precision=precision)
        tcfg = toy_train_config(epochs=2, eval_interval=1, batch_size=batch_size, weight_decay=1e-3)
        outputs = {}
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            replicas = count_replicas(monkeypatch)
            outputs[cpus] = train_outputs(tmp_path / f"cpus{cpus}", mcfg, tcfg)
            assert len(replicas) == 2 * (min(cpus, batch_size) - 1)   # per epoch
        assert sorted(outputs[1]) == ["best.bin", "checkpoint.bin", "metrics.jsonl"]
        assert outputs[2] == outputs[1] and outputs[3] == outputs[1]

    def test_a_failed_fork_trains_in_one_process(self, tmp_path, monkeypatch):
        mcfg = make_config(noise_mode="per_forward")
        alone = train_outputs(tmp_path / "alone", mcfg, toy_train_config())
        use_cpus(monkeypatch, 3)
        forks = []

        def fork_once(_fork=os.fork):
            forks.append(None)
            if len(forks) % 2 == 0:   # each epoch's second replica
                raise OSError("no process to be had")
            return _fork()

        monkeypatch.setattr(os, "fork", fork_once)
        assert train_outputs(tmp_path / "forked", mcfg, toy_train_config()) == alone
        assert len(forks) == 6   # three epochs; the first replica of each was killed

    def test_resume_with_replicas_continues_the_run(self, tmp_path, monkeypatch):
        mcfg = make_config(noise_mode="per_forward", precision="float32")
        straight = train_outputs(tmp_path / "straight", mcfg, toy_train_config(epochs=2, eval_interval=1))
        train_outputs(tmp_path / "half", mcfg, toy_train_config(epochs=1, eval_interval=1))
        use_cpus(monkeypatch, 3)
        replicas = count_replicas(monkeypatch)
        resumed = train_outputs(tmp_path / "resumed", mcfg, toy_train_config(epochs=2, eval_interval=1),
                                resume=load_checkpoint(str(tmp_path / "half" / "checkpoint.bin")))
        assert len(replicas) == 2
        assert resumed["checkpoint.bin"] == straight["checkpoint.bin"]
        assert resumed["metrics.jsonl"] == straight["metrics.jsonl"].split(b"\n", 2)[2]   # epoch 2's records

    @pytest.mark.parametrize("failing", ["replicas", "everywhere"])
    def test_first_failing_query_error_is_raised(self, monkeypatch, failing):
        def fail(query):
            raise KeyError(f"query {query}")

        use_cpus(monkeypatch, 3)
        in_processes(monkeypatch, caller=fail if failing == "everywhere" else None, replicas=fail)
        tcfg = toy_train_config()
        # batches of 4 split into shares [0, 1], [2] and [3]; both replicas fail on their first query
        expected = first_query(0 if failing == "everywhere" else 2, tcfg)
        with pytest.raises(KeyError) as err:
            train(toy_dataset(), make_config(noise_mode="per_forward"), tcfg, log=quiet)
        assert err.value.args == (f"query {expected}",)

    def test_caller_error_kills_the_replicas(self, monkeypatch):
        def fail(query):
            raise ValueError("this process's share failed")

        use_cpus(monkeypatch, 3)
        in_processes(monkeypatch, caller=fail, replicas=lambda query: time.sleep(60))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="this process's share failed"):
            train(toy_dataset(), make_config(noise_mode="per_forward"), toy_train_config(), log=quiet)
        assert time.perf_counter() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_replica_killed_by_signal_is_named(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        in_processes(monkeypatch, replicas=lambda query: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(WorkerError, match=r"^training replica \d+ was killed by signal SIGKILL$"):
            train(toy_dataset(), make_config(noise_mode="per_forward"), toy_train_config(), log=quiet)

    def test_replica_without_a_result_is_named_with_its_exit_code(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        in_processes(monkeypatch, replicas=lambda query: os._exit(3))
        with pytest.raises(WorkerError, match=r"^training replica \d+ exited with code 3 and no result$"):
            train(toy_dataset(), make_config(noise_mode="per_forward"), toy_train_config(), log=quiet)

    @pytest.mark.parametrize("poisoned", ["gradient", "replica loss"])
    def test_divergence_reaps_the_replicas(self, monkeypatch, poisoned):
        use_cpus(monkeypatch, 3)
        if poisoned == "gradient":
            # zero_grad runs in this process only: the NaN rides down the chain
            original = ModelParams.zero_grad

            def zero_grad(params):
                original(params)
                params.relations.grad[0, 0] = np.nan

            monkeypatch.setattr(ModelParams, "zero_grad", zero_grad)
            message = r"non-finite gradient in relations at epoch 1, batch 0"
        else:
            caller = os.getpid()

            def nan_in_replicas(tape, scores, gold, negatives, _loss=training.negative_sampling_loss):
                loss = _loss(tape, scores, gold, negatives)
                if os.getpid() != caller:
                    loss.data[...] = np.nan
                return loss

            monkeypatch.setattr(training, "negative_sampling_loss", nan_in_replicas)
            message = r"non-finite loss at epoch 1, batch 0"
        with pytest.raises(TrainingDiverged, match=message):
            train(toy_dataset(), make_config(noise_mode="per_forward"), toy_train_config(), log=quiet)
        # the autouse no_child_left fixture checks that every replica was reaped

    def test_deferred_contributions_replay_to_the_direct_sum(self):
        # what a replica does: record each parameter's += operands, then add them in order later
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward", precision="float32")
        graph, _ = split_graph(ds, "train")
        [queries] = split_queries(ds, "train")
        params = ModelParams(mcfg, 4, np.random.default_rng(3))
        noise_rng = np.random.default_rng(4)
        noises = [make_noise(mcfg, graph.num_entities, noise_rng) for _ in range(3)]

        def backward(query, noise):
            tape = Tape()
            scores = forward(tape, graph, query, params, mcfg, noise, exclude_query_edge=True)
            tape.backward(tape.scale(training.negative_sampling_loss(tape, scores, query.gold_tail,
                                                                     np.array([0, 5])), 1.0 / 3))
            return weakref.ref(tape)

        for query, noise in zip(queries, noises):
            backward(query, noise)
        direct = [p.grad.copy() for p in params.parameters()]
        params.zero_grad()
        for p in params.parameters():
            p.deferred = []
        gc.disable()
        try:
            for query, noise in zip(queries, noises):
                # no backward closure or recorded operand holds its tape: it is freed at once
                assert backward(query, noise)() is None
        finally:
            gc.enable()
        for p, want in zip(params.parameters(), direct):
            assert not p.grad.any() and p.deferred
            for contribution in p.deferred:
                p.grad += contribution
            assert p.grad.tobytes() == want.tobytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or available_cpus() < 2,
                    reason="needs two CPUs and sched_setaffinity")
def test_train_on_one_and_two_cpus_writes_the_same_bytes(tmp_path):
    """The real gate, unpatched: ``kgreason train`` pinned to one CPU and to two, BLAS on one thread."""
    data = tmp_path / "umls"
    data.mkdir()
    with open(os.path.join(ROOT, "data", "umls", "train.txt"), encoding="utf-8") as fh:
        facts = fh.readlines()[:120]
    known = {token for fact in facts for token in fact.split()}
    with open(os.path.join(ROOT, "data", "umls", "valid.txt"), encoding="utf-8") as fh:
        valid = [fact for fact in fh if set(fact.split()) <= known][:20]
    (data / "train.txt").write_text("".join(facts))
    (data / "valid.txt").write_text("".join(valid))
    (data / "test.txt").write_text("")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(training.__file__)))
    first, second = sorted(os.sched_getaffinity(0))[:2]
    outputs = {}
    for cpus in ({first}, {first, second}):
        def pin(cpus=cpus):
            os.sched_setaffinity(0, cpus)

        def run(*args):
            done = subprocess.run([sys.executable, *args], env=env, preexec_fn=pin, capture_output=True,
                                  text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            return done.stdout

        gate = run("-c", "from kgreason.evaluation import blas_threads, worker_count; "
                         "print(blas_threads(), worker_count(16))").split()
        if gate[0] == "None":
            pytest.skip("numpy's BLAS reports no thread count, so training stays in one process")
        assert gate == ["1", str(len(cpus))]
        out = tmp_path / f"cpus{len(cpus)}"
        run("-c", "import sys; from kgreason.cli import main; sys.exit(main(sys.argv[1:]))",
            "train", "--config", os.path.join(ROOT, "configs", "umls.cfg"), "--out", str(out),
            "--set", f"dataset.path={data}", "--set", "training.epochs=2",
            "--set", "training.log_timing=false", "--set", "run.verbosity=quiet")
        outputs[len(cpus)] = [(out / name).read_bytes()
                              for name in ("metrics.jsonl", "checkpoint.bin", "best.bin")]
    assert outputs[2] == outputs[1]   # resolved.cfg names the output directory, so it differs

def toy_inductive_dataset() -> DatasetSplit:
    """Four training entities; test facts live on a three-entity inference graph."""
    return DatasetSplit(
        "inductive",
        train=[Triplet(0, 0, 1), Triplet(1, 0, 2), Triplet(2, 1, 0), Triplet(1, 1, 3)],
        valid=[Triplet(0, 1, 2)],
        test=[Triplet(0, 0, 2)],
        entity_vocab=Vocabulary([f"e{i}" for i in range(4)]),
        relation_vocab=Vocabulary(["r0", "r1"]),
        inference=[Triplet(0, 0, 1), Triplet(1, 1, 2)],
        inference_entity_vocab=Vocabulary(["x0", "x1", "x2"]),
    )


class TestSplitBuilder:
    def test_transductive_splits_share_graph_and_filters(self):
        ds = toy_dataset()
        for split in ("train", "valid", "test"):
            graph, vocab = split_graph(ds, split)
            assert vocab is ds.entity_vocab and graph.num_entities == 6
            assert graph.num_edges == 2 * len(ds.train)
        known = {}
        for h, r, t in ds.train + ds.valid + ds.test:
            known.setdefault((h, r), set()).add(t)
            known.setdefault((t, r + 2), set()).add(h)
        for split, queries in zip(("train", "valid", "test"), split_queries(ds, "train", "valid", "test")):
            assert len(queries) == 2 * len(getattr(ds, split))
            for q in queries:
                assert q.filter_set == known[(q.head, q.relation)]

    def test_inductive_test_runs_on_inference_graph(self):
        ds = toy_inductive_dataset()
        graph, vocab = split_graph(ds, "test")
        assert vocab is ds.inference_entity_vocab
        assert graph.num_entities == 3 and graph.num_edges == 2 * len(ds.inference)
        for split in ("train", "valid"):
            graph, vocab = split_graph(ds, split)
            assert vocab is ds.entity_vocab and graph.num_edges == 2 * len(ds.train)

    def test_inductive_filters_stay_in_their_id_space(self):
        ds = toy_inductive_dataset()
        [valid] = split_queries(ds, "valid")
        assert valid[0].filter_set == {2} and valid[1].filter_set == {0}
        train_q, valid_q = split_queries(ds, "train", "valid")
        assert list(valid_q) == list(valid)
        # test fact (x0, r0, x2) has ids (0, 0, 2) in the inference vocabulary;
        # it must not filter the training-graph query (e0, r0)
        assert train_q[0].filter_set == {1}
        [test] = split_queries(ds, "test")
        assert test[0].filter_set == {1, 2}  # inference (x0, r0, x1) plus the test fact


class TestCheckpointContainer:
    def test_save_load_save_byte_identical(self, tmp_path):
        mcfg = ModelConfig(hidden_dim=16, attention_layers=1, query_layers=1, value_layers=1)
        params = ModelParams(mcfg, 4, np.random.default_rng(3))
        adam = AdamState(params.parameters())
        adam.step = 5
        rngs = {"shuffle": rng_stream(1, "shuffle").bit_generator.state,
                "negatives": rng_stream(1, "negatives").bit_generator.state,
                "noise": rng_stream(1, "noise").bit_generator.state}
        tstate = {"epoch": 2, "best": {"mrr": 0.5, "epoch": 1}, "evals_since_best": 1}
        p1 = tmp_path / "a.bin"
        save_checkpoint(str(p1), Checkpoint(mcfg, TrainConfig(), params, adam, ["e0"], ["r0", "r1"], rngs,
                                              tstate))
        p2 = tmp_path / "b.bin"
        save_checkpoint(str(p2), load_checkpoint(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_with_different_architecture_rejected(self, tmp_path):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        out = tmp_path / "base"
        out.mkdir()
        train(ds, mcfg, toy_train_config(epochs=1), out_dir=str(out), log=lambda *a, **k: None)
        other = make_config(noise_mode="per_forward", hidden_dim=12)
        with pytest.raises(CheckpointError, match="architecture"):
            train(ds, other, toy_train_config(epochs=2),
                  resume=load_checkpoint(str(out / "checkpoint.bin")), log=lambda *a, **k: None)

    def test_resume_without_moments_rejected(self, tmp_path):
        ds = toy_dataset()
        mcfg = make_config(noise_mode="per_forward")
        train(ds, mcfg, toy_train_config(epochs=1), out_dir=str(tmp_path), log=lambda *a, **k: None)
        lean = load_checkpoint(str(tmp_path / "checkpoint.bin"), moments=False)
        with pytest.raises(CheckpointError, match="without its Adam moments"):
            train(ds, mcfg, toy_train_config(epochs=2), resume=lean, log=lambda *a, **k: None)

    def test_retired_header_keys(self, tmp_path):
        # headers written while these were settings record them; only today's value loads
        retired = {"model_config": {"heads": 1, "mlp_depth": 3, "ffn_depth": 2, "ffn_multiplier": 4,
                                    "layer_norm_eps": 1e-5, "norm_eps": 1e-12, "dense_guard": 4096},
                   "train_config": {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8}}
        mcfg = ModelConfig(hidden_dim=8, attention_layers=1, query_layers=1, value_layers=1)
        params = ModelParams(mcfg, 4, np.random.default_rng(8))
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), Checkpoint(mcfg, TrainConfig(), params, AdamState(params.parameters()),
                                              ["e"], ["r", "s"], {}, {}))
        pristine = path.read_bytes()
        for section, keys in retired.items():
            for key, value in keys.items():
                set_header(path, section, key, value)
            ck = load_checkpoint(str(path))
            assert ck.model_config == mcfg and ck.train_config == TrainConfig()
            for p, q in zip(params.parameters(), ck.params.parameters(), strict=True):
                assert q.name == p.name
                np.testing.assert_array_equal(q.data, p.data)
        for section, keys in retired.items():
            for key, value in keys.items():
                path.write_bytes(pristine)
                set_header(path, section, key, 2 * value)
                with pytest.raises(CheckpointError, match=rf"{section}\.{key} = "):
                    load_checkpoint(str(path))

    def test_corrupt_container_rejected(self, tmp_path):
        mcfg = ModelConfig(hidden_dim=8, attention_layers=1, query_layers=1, value_layers=1)
        params = ModelParams(mcfg, 4, np.random.default_rng(8))
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), Checkpoint(mcfg, TrainConfig(), params, AdamState(params.parameters()),
                                              ["e"], ["r", "s"], {}, {}))
        blob = path.read_bytes()
        head_len = int.from_bytes(blob[8:16], "little")
        cases = [
            ("header runs past", blob[:16 + head_len // 2]),
            *(("header runs past", blob[:8] + n.to_bytes(8, "little") + blob[16:]) for n in (2**40, 2**62, 2**63 + 5)),
            ("unreadable checkpoint header", blob[:16] + b"{" * head_len + blob[16 + head_len:]),
            ("truncated checkpoint: \\d+ bytes follow the header, where its tensors need \\d+", blob[:-4]),
        ]
        for message, corrupt in cases:
            path.write_bytes(corrupt)
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(str(path))
        path.write_bytes(blob)
        first = json.loads(blob[16:16 + head_len])["tensors"][0]
        set_header(path, "tensors", 0, {**first, "shape": [first["shape"][0] + 1, first["shape"][1]]})
        with pytest.raises(CheckpointError, match="has shape \\[5, 8\\]; the model layout needs \\[4, 8\\]"):
            load_checkpoint(str(path))

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        mcfg = ModelConfig(hidden_dim=8, attention_layers=1, query_layers=1, value_layers=1)
        params = ModelParams(mcfg, 4, np.random.default_rng(8))
        adam = AdamState(params.parameters())
        path = tmp_path / "checkpoint.bin"
        ck = Checkpoint(mcfg, TrainConfig(), params, adam, ["e"], ["r", "s"], {}, {})
        save_checkpoint(str(path), ck)
        before = path.read_bytes()
        saved = {p.name: p.data.copy() for p in params.parameters()}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]

        class CrashingFile:
            """Writes through to the real file, then fails partway through the save."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, blob):
                self.writes += 1
                if self.writes == 5:
                    raise OSError("disk full")
                return self.fh.write(blob)

        monkeypatch.setattr("builtins.open", lambda *a, _open=open, **k: CrashingFile(_open(*a, **k)))
        for p in params.parameters():
            p.data += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), ck)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]
        ck = load_checkpoint(str(path))
        assert [p.name for p in ck.params.parameters()] == list(saved)
        for p, data in zip(ck.params.parameters(), saved.values()):
            np.testing.assert_array_equal(p.data, data)

    def test_load_fills_params_and_moments_without_drawing(self, tmp_path, monkeypatch):
        mcfg = ModelConfig(hidden_dim=16, attention_layers=2, query_layers=2, value_layers=2,
                           precision="float32")
        params = ModelParams(mcfg, 6, np.random.default_rng(9))
        adam = AdamState(params.parameters())
        fill = np.random.default_rng(10)
        for p in params.parameters():
            adam.m[p.name][...] = fill.standard_normal(p.data.shape)
            adam.v[p.name][...] = fill.random(p.data.shape)
        adam.step = 4
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), Checkpoint(mcfg, TrainConfig(), params, adam, ["e"], ["r", "s", "t"], {},
                                              {}))

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew from an RNG")

        for name in ("default_rng", "Generator", "PCG64", "SeedSequence"):
            monkeypatch.setattr(np.random, name, no_draws)
        ck = load_checkpoint(str(path))
        monkeypatch.undo()
        assert ck.adam.step == 4
        loaded = ck.params.parameters()
        assert [p.name for p in loaded] == [p.name for p in params.parameters()]
        for p, q in zip(params.parameters(), loaded):
            assert q.data.dtype == p.data.dtype and q.data.tobytes() == p.data.tobytes()
            assert ck.adam.m[p.name].tobytes() == adam.m[p.name].tobytes()
            assert ck.adam.v[p.name].tobytes() == adam.v[p.name].tobytes()
            assert q.grad.shape == q.data.shape and not q.grad.any()

    def test_loaded_values_match(self, tmp_path):
        mcfg = ModelConfig(hidden_dim=16, attention_layers=1, query_layers=1, value_layers=1)
        params = ModelParams(mcfg, 4, np.random.default_rng(8))
        adam = AdamState(params.parameters())
        path = tmp_path / "c.bin"
        tstate = {"epoch": 0, "best": {"mrr": -1, "epoch": 0}, "evals_since_best": 0}
        save_checkpoint(str(path), Checkpoint(mcfg, TrainConfig(), params, adam, ["e"], ["r", "s"], {},
                                              tstate))
        ck = load_checkpoint(str(path))
        for p, q in zip(params.parameters(), ck.params.parameters(), strict=True):
            assert q.name == p.name
            np.testing.assert_array_equal(q.data, p.data)
        assert ck.entity_tokens == ["e"] and ck.model_config.hidden_dim == 16


def buffer_owner(arr):
    """The object whose memory ``arr`` views, past every intermediate array and memoryview."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def trained_state(precision, num_relations=2, hidden_dim=8, seed=9):
    """Seeded parameters and non-trivial Adam moments of a small model."""
    mcfg = ModelConfig(hidden_dim=hidden_dim, attention_layers=2, query_layers=2, value_layers=2,
                       precision=precision)
    params = ModelParams(mcfg, num_relations, np.random.default_rng(seed))
    adam = AdamState(params.parameters(), step=3)
    fill = np.random.default_rng(seed + 1)
    for p in params.parameters():
        adam.m[p.name][...] = fill.standard_normal(p.data.shape)
        adam.v[p.name][...] = fill.random(p.data.shape)
    return mcfg, params, adam


@pytest.mark.parametrize("precision", ["float32", "float64"])
class TestCheckpointIO:
    def save(self, path, mcfg, params, adam):
        tokens = [f"r{i}" for i in range(params.num_relations // 2)]
        save_checkpoint(str(path), Checkpoint(mcfg, TrainConfig(), params, adam, ["e0", "e1"], tokens, {},
                                              {"epoch": 1}))

    def test_save_matches_reference_writer(self, tmp_path, precision):
        mcfg, params, adam = trained_state(precision)
        self.save(tmp_path / "a.bin", mcfg, params, adam)
        reference_save(tmp_path / "b.bin", params, adam, mcfg, TrainConfig(), ["e0", "e1"], ["r0"], {},
                       {"epoch": 1})
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_inference_load_reads_parameters_as_views(self, tmp_path, precision):
        mcfg, params, adam = trained_state(precision)
        path = tmp_path / "c.bin"
        self.save(path, mcfg, params, adam)
        full = load_checkpoint(str(path))
        lean = load_checkpoint(str(path), moments=False)
        assert lean.adam is None and full.adam.step == 3
        assert [p.name for p in lean.params.parameters()] == [p.name for p in params.parameters()]
        for p, f, q in zip(params.parameters(), full.params.parameters(), lean.params.parameters()):
            assert q.data.dtype == f.data.dtype == p.data.dtype
            assert q.data.tobytes() == f.data.tobytes() == p.data.tobytes()
            assert q.grad is None and f.grad.shape == f.data.shape and not f.grad.any()
            assert full.adam.m[p.name].tobytes() == adam.m[p.name].tobytes()
            assert full.adam.v[p.name].tobytes() == adam.v[p.name].tobytes()
        for arrays in ([q.data for q in lean.params.parameters()],
                       [f.data for f in full.params.parameters()]
                       + list(full.adam.m.values()) + list(full.adam.v.values())):
            assert len({id(buffer_owner(a)) for a in arrays}) == 1
            assert isinstance(buffer_owner(arrays[0]), bytearray)
            assert all(a.flags.writeable for a in arrays)
        param_bytes = sum(p.data.nbytes for p in params.parameters())
        assert len(buffer_owner(lean.params.relations.data)) == param_bytes
        assert len(buffer_owner(full.params.relations.data)) == 3 * param_bytes

    def test_cut_or_padded_file_refused_by_both_loads(self, tmp_path, precision):
        mcfg, params, adam = trained_state(precision)
        path = tmp_path / "c.bin"
        self.save(path, mcfg, params, adam)
        blob = path.read_bytes()
        moments_bytes = 2 * sum(p.data.nbytes for p in params.parameters())
        size = 3 * sum(p.data.nbytes for p in params.parameters())
        cut = moments_bytes // 2
        for damaged, fault, payload in ((blob[:-cut], "truncated checkpoint", size - cut),
                                        (blob[:-4], "truncated checkpoint", size - 4),
                                        (blob + b"\0" * 4, "checkpoint has bytes past its payload", size + 4)):
            path.write_bytes(damaged)
            for moments in (True, False):
                with pytest.raises(CheckpointError) as err:
                    load_checkpoint(str(path), moments=moments)
                assert str(err.value) == (f"{path}: {fault}: {payload} bytes follow the header, "
                                          f"where its tensors need {size}")

    def test_layout_faults_refused(self, tmp_path, precision):
        mcfg, params, adam = trained_state(precision)
        path = tmp_path / "c.bin"
        self.save(path, mcfg, params, adam)
        pristine = path.read_bytes()
        faults = {
            "shape \\[8, 2\\]; the model layout needs \\[2, 8\\]":
                lambda h: h["tensors"][0].update(shape=h["tensors"][0]["shape"][::-1]),
            "shape \\[1, 6, 8\\]; the model layout needs": lambda h: h["tensors"][0].update(shape=[1, 6, 8]),
            "has offset \\d+; the model layout needs \\d+":
                lambda h: h["tensors"][-1].update(offset=h["tensors"][-1]["offset"] + 4),
            "tensor 0 \\('relations'\\) has role 'adam_m'; the model layout needs 'param'":
                lambda h: h["tensors"][0].update(role="adam_m"),
        }
        damages = [(message, lambda edit=edit: rewrite_header(path, edit))
                   for message, edit in faults.items()]
        damages += [(message, lambda fault=fault: damage_layout(path, fault))
                    for fault, message in LAYOUT_FAULTS.items()]
        for message, damage in damages:
            path.write_bytes(pristine)
            damage()
            for moments in (True, False):
                with pytest.raises(CheckpointError, match=message):
                    load_checkpoint(str(path), moments=moments)

    def test_checkpoint_io_memory(self, tmp_path, precision):
        # UMLS's 92 augmented relations at d=32, so tensors outweigh the header
        mcfg, params, adam = trained_state(precision, num_relations=92, hidden_dim=32)
        path = tmp_path / "c.bin"
        param_bytes = sum(p.data.nbytes for p in params.parameters())
        largest = max(p.data.nbytes for p in params.parameters())
        tracemalloc.start()
        try:
            self.save(path, mcfg, params, adam)
            save_peak = tracemalloc.get_traced_memory()[1]
            head = path.read_bytes()[16:16 + int.from_bytes(path.read_bytes()[8:16], "little")]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            json.dumps(json.loads(head), sort_keys=True, separators=(",", ":")).encode()
            header_cost = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ck = load_checkpoint(str(path), moments=False)
            load_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # A save streams the header's encoding into the file and writes each tensor
        # straight from its array, so it holds little beside the header's objects (about
        # a quarter of header_cost); a load holds little beside the parameter section's
        # bytes. A string of the whole header (one string per token while it is joined),
        # or a copy of the largest tensor or of the payload, breaks one bound or the other.
        assert largest > header_cost / 2
        assert save_peak < header_cost / 2
        assert load_peak < 1.5 * param_bytes
        assert ck.adam is None
