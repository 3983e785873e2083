"""The benchmark's workloads: seeded inputs, a closed loop of CLI calls, output checks.

Every operation goes through ``kgreason.cli.main`` in this process, so any
change behind the CLI shows up here without editing the benchmark. One
client sends the next request only when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "kgbench", "out")
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "kgreason")):
    raise ImportError(f"kgreason sources not found under {SRC}")
sys.path.insert(0, SRC)

from kgreason import cli  # noqa: E402
from kgreason.data import (  # noqa: E402
    Query, Vocabulary, build_graph, load_dataset, load_triplets, make_queries, query_filters,
)
from kgreason.evaluation import query_filter_mask, rank_answer  # noqa: E402
from kgreason.model import score_query  # noqa: E402
from kgreason.training import load_checkpoint  # noqa: E402

from tracer import EXACT_COUNTS, Tracer, layer_metrics  # noqa: E402

UMLS = os.path.join(ROOT, "data", "umls")
UMLS_CONFIG = os.path.join(ROOT, "configs", "umls.cfg")
SPARSE_CONFIG = os.path.join(ROOT, "configs", "wn18rr_v1_ind.cfg")
ANCHOR_FILE = os.path.join(ROOT, "kgbench", "anchor.json")
SETUP_REPEATS = 5
CHECK_SAMPLE = 4          # eval queries recomputed per eval call
PREDICT_CHECK_EVERY = 15  # every 15th predict request is recomputed, request 0 included
ANCHOR_SEED = 3           # the seed of the toy-size inputs whose outputs anchor.json records
ANCHOR_REQUESTS = 3       # predict requests anchor.json records
ANCHOR_RTOL = 1e-4        # how far a loss or score may drift from anchor.json by float rounding
ANCHOR_MOVED_RANKS = 3    # how many eval ranks may move by one where rounding breaks a near-tie

# WN18RR's 11 relations with roughly their training-split frequencies.
WN18RR_RELATIONS = {
    "_hypernym": 34796, "_derivationally_related_form": 29715, "_member_meronym": 7402,
    "_has_part": 4816, "_synset_domain_topic_of": 3116, "_instance_hypernym": 2921,
    "_also_see": 1299, "_verb_group": 1138, "_member_of_domain_region": 923,
    "_member_of_domain_usage": 629, "_similar_to": 80,
}


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TOY`` the smoke test."""

    train_fraction: float = 0.03      # share of UMLS training facts trained on
    eval_fraction: float = 0.5        # share of UMLS valid/test facts ranked
    sparse_entities: int = 8000
    sparse_facts: int = 16800
    sparse_held_out: int = 1000       # candidate valid + test facts


FULL = Scale()
TOY = Scale(eval_fraction=0.05, sparse_entities=400, sparse_facts=840,
            sparse_held_out=60)


def log(line: str) -> None:
    print(line, file=sys.stderr)


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


def write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def call_cli(argv: list[str], tracer: Tracer | None = None):
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tracer.span("cli.main", cli.main, argv) if tracer else cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_checkpoint(config: str, data_dir: str, out_dir: str, seed: int, *overrides) -> str:
    """Seeded-init parameters of ``config``, saved through ``kgreason train`` with 0 epochs."""
    code, _, err = call_cli(["train", "--config", config, "--out", out_dir,
                             "--set", f"dataset.path={data_dir}", "--set", "training.epochs=0",
                             "--set", f"training.seed={seed}", *overrides])
    if code != 0:
        raise RuntimeError(f"checkpoint set-up failed ({code}): {err.strip()}")
    return os.path.join(out_dir, "checkpoint.bin")


def close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=ANCHOR_RTOL, abs_tol=ANCHOR_RTOL * 1e-3)


def pinned(config, noise_seed: int):
    """The noise pinning the CLI applies to eval and predict."""
    if config.noise_mode == "disabled":
        return config
    return dataclasses.replace(config, noise_mode="fixed_seed", noise_seed=noise_seed)


class Workload:
    """One workload: ``setup`` writes inputs, ``argv`` names operation i, ``check`` verifies it.

    ``anchor`` runs the first operations and returns their outputs, which
    ``anchor_mismatch`` compares with the ones ``anchor.json`` records.
    """

    name = ""
    min_ops = 2

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.data = os.path.join(workdir, "data")
        self.reference = None

    def fresh_data_dir(self) -> None:
        shutil.rmtree(self.data, ignore_errors=True)
        os.makedirs(self.data)

    def setup(self) -> dict:
        """Write the inputs; returns the JSON-able attributes the operations and checks need."""
        raise NotImplementedError

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def queries(self, i: int, stdout: str) -> int:
        return 1

    def check(self, i: int, code: int, stdout: str, stderr: str) -> str | None:
        """None when operation i's outputs are right, else what is wrong."""
        raise NotImplementedError

    def checked_call(self, i: int) -> str:
        """Run operation i untraced and check it; returns its stdout."""
        output = call_cli(self.argv(i))
        problem = self.check(i, *output)
        if problem is not None:
            raise AssertionError(problem)
        return output[1]

    def anchor(self) -> dict:
        raise NotImplementedError

    def anchor_mismatch(self, got: dict, want: dict) -> str | None:
        raise NotImplementedError


class UmlsTrain(Workload):
    """One epoch of ``kgreason train`` with the shipped UMLS config on a seeded share of its facts."""

    name = "umls-train"

    def __init__(self, *args):
        super().__init__(*args)
        self.first_loss = None

    def setup(self) -> dict:
        self.fresh_data_dir()
        lines = read_lines(os.path.join(UMLS, "train.txt"))
        rng = np.random.default_rng(self.seed)
        size = round(len(lines) * self.scale.train_fraction)
        pick = np.sort(rng.choice(len(lines), size=size, replace=False))
        write_lines(os.path.join(self.data, "train.txt"), (lines[i] for i in pick))
        write_lines(os.path.join(self.data, "valid.txt"), [])
        write_lines(os.path.join(self.data, "test.txt"), [])
        return {"expected_queries": 2 * size}

    def out_dir(self, i: int) -> str:
        return os.path.join(self.workdir, f"train-{i}")

    def argv(self, i: int) -> list[str]:
        return ["train", "--config", UMLS_CONFIG, "--out", self.out_dir(i),
                "--set", f"dataset.path={self.data}", "--set", "training.epochs=1"]

    def queries(self, i: int, stdout: str) -> int:
        found = re.search(r"\((\d+) training queries\)", stdout)
        return int(found.group(1)) if found else 0

    def check(self, i, code, stdout, stderr):
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        if self.queries(i, stdout) != self.expected_queries:
            return f"trained on {self.queries(i, stdout)} queries, expected {self.expected_queries}"
        records = [json.loads(line) for line in read_lines(os.path.join(self.out_dir(i), "metrics.jsonl"))]
        loss = records[-1]["loss"]
        if records[-1]["split"] != "train" or not math.isfinite(loss):
            return f"final record {records[-1]} has no finite training loss"
        if self.first_loss is None:
            self.first_loss = loss
        elif loss != self.first_loss:
            return f"final loss {loss!r} differs from the first repeat's {self.first_loss!r}"
        ck = load_checkpoint(os.path.join(self.out_dir(i), "checkpoint.bin"))
        steps = math.ceil(self.expected_queries / ck.train_config.batch_size)
        if ck.adam.step != steps:
            return f"checkpoint has {ck.adam.step} optimizer steps, expected {steps}"
        if not all(np.all(np.isfinite(p.data)) for p in ck.params.parameters()):
            return "checkpoint holds non-finite parameters"
        return None

    def anchor(self) -> dict:
        stdout = self.checked_call(0)
        return {"queries": self.queries(0, stdout), "loss": self.first_loss}

    def anchor_mismatch(self, got, want):
        if got["queries"] != want["queries"] or not close(got["loss"], want["loss"]):
            return f"trained on {got['queries']} queries to loss {got['loss']!r}, recorded {want}"
        return None


class UmlsEval(Workload):
    """``kgreason eval --per-query`` on UMLS valid and test, alternately, from a seeded-init checkpoint."""

    name = "umls-eval"
    splits = ("valid", "test")

    def __init__(self, *args):
        super().__init__(*args)
        self.first_records = {}

    def setup(self) -> dict:
        self.fresh_data_dir()
        rng = np.random.default_rng(self.seed)
        shutil.copyfile(os.path.join(UMLS, "train.txt"), os.path.join(self.data, "train.txt"))
        for split in self.splits:
            lines = read_lines(os.path.join(UMLS, f"{split}.txt"))
            size = round(len(lines) * self.scale.eval_fraction)
            pick = np.sort(rng.choice(len(lines), size=size, replace=False))
            write_lines(os.path.join(self.data, f"{split}.txt"), (lines[i] for i in pick))
        return {"checkpoint": write_checkpoint(UMLS_CONFIG, self.data, os.path.join(self.workdir, "ckpt"),
                                               self.seed)}

    def argv(self, i: int) -> list[str]:
        return ["eval", "--checkpoint", self.checkpoint, "--data", self.data,
                "--split", self.splits[i % 2], "--noise-seed", str(self.seed), "--per-query"]

    def queries(self, i: int, stdout: str) -> int:
        return json.loads(stdout.splitlines()[-1])["count"]

    def _reference(self):
        if self.reference is None:
            ck = load_checkpoint(self.checkpoint)
            ds = load_dataset(self.data)
            graph = build_graph(ds.train, ds.num_entities, ds.num_relations, add_inverse=True)
            filters = query_filters([ds.train, ds.valid, ds.test], ds.num_relations)
            queries = {split: make_queries(getattr(ds, split), ds.num_relations, filters)
                       for split in self.splits}
            self.reference = (ck, ds, graph, queries)
        return self.reference

    def check(self, i, code, stdout, stderr):
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        split = self.splits[i % 2]
        lines = stdout.splitlines()
        summary = json.loads(lines[-1])
        records = [json.loads(line) for line in lines[:-1]]
        ck, ds, graph, queries = self._reference()
        if summary["split"] != split or not summary["count"] == len(records) == len(queries[split]):
            return f"{len(records)} ranked queries for {split}, expected {len(queries[split])}"
        ranks = np.asarray([r["rank"] for r in records], dtype=np.float64)
        recomputed = {"mrr": float((1.0 / ranks).mean()), "hits1": float((ranks <= 1).mean()),
                      "hits3": float((ranks <= 3).mean()), "hits10": float((ranks <= 10).mean())}
        for key, value in recomputed.items():
            if abs(summary[key] - value) > 1e-12:
                return f"printed {key} {summary[key]} but the printed ranks give {value}"
        if self.first_records.setdefault(split, records) != records:
            return f"per-query ranks on {split} differ from the first call's"
        config = pinned(ck.model_config, self.seed)
        rng = np.random.default_rng([self.seed, i])
        for qi in rng.choice(len(records), size=min(CHECK_SAMPLE, len(records)), replace=False):
            q, rec = queries[split][qi], records[qi]
            tokens = (ds.entity_vocab[q.head], ds.entity_vocab[q.gold_tail])
            if (rec["head"], rec["gold"]) != tokens:
                return f"query {qi} of {split} is {rec}, expected head/gold {tokens}"
            scores = score_query(graph, q, ck.params, config)
            rank = rank_answer(scores, q.gold_tail, query_filter_mask(q, graph.num_entities))
            if rank != rec["rank"]:
                return f"query {qi} of {split}: printed rank {rec['rank']}, recomputed {rank}"
        return None

    def anchor(self) -> dict:
        return {"ranks": [json.loads(line)["rank"] for line in self.checked_call(0).splitlines()[:-1]]}

    def anchor_mismatch(self, got, want):
        """Ranks may move by one where float rounding breaks a near-tie, on few queries."""
        moved = [(g, w) for g, w in zip(got["ranks"], want["ranks"]) if g != w]
        if (len(got["ranks"]) != len(want["ranks"]) or len(moved) > ANCHOR_MOVED_RANKS
                or any(abs(g - w) > 1 for g, w in moved)):
            return f"ranks {got['ranks']} differ from the recorded {want['ranks']}"
        return None


def sparse_graph(rng: np.random.Generator, scale: Scale):
    """WN18RR-shaped facts: Zipf(0.8) endpoint popularity, skewed relation mix, no self loops.

    Returns (train, valid, test) as (n, 3) id arrays; held-out facts only
    use entities that occur in train.
    """
    n = scale.sparse_entities
    popularity = 1.0 / np.arange(1, n + 1) ** 0.8
    popularity /= popularity.sum()
    ids = rng.permutation(n)
    rel_p = np.asarray(list(WN18RR_RELATIONS.values()), dtype=np.float64)
    rel_p /= rel_p.sum()
    need = scale.sparse_facts + scale.sparse_held_out
    rows = np.empty((0, 3), dtype=np.int64)
    while len(rows) < need:
        heads = ids[rng.choice(n, size=2 * need, p=popularity)]
        tails = ids[rng.choice(n, size=2 * need, p=popularity)]
        rels = rng.choice(len(rel_p), size=2 * need, p=rel_p)
        rows = np.concatenate([rows, np.stack([heads, rels, tails], axis=1)[heads != tails]])
        _, first = np.unique(rows, axis=0, return_index=True)
        rows = rows[np.sort(first)]
    train, held = rows[:scale.sparse_facts], rows[scale.sparse_facts:need]
    seen = np.zeros(n, dtype=bool)
    seen[train[:, 0]] = seen[train[:, 2]] = True
    held = held[seen[held[:, 0]] & seen[held[:, 2]]]
    half = len(held) // 2
    return train, held[:half], held[half:]


class SparsePredict(Workload):
    """Closed-loop ``kgreason predict -k 10`` on a seeded WN18RR-shaped graph, half on ``^-1``."""

    name = "sparse-predict"
    k = 10

    def setup(self) -> dict:
        self.fresh_data_dir()
        rng = np.random.default_rng(self.seed)
        relations = list(WN18RR_RELATIONS)
        splits = dict(zip(("train", "valid", "test"), sparse_graph(rng, self.scale)))
        for split, rows in splits.items():
            write_lines(os.path.join(self.data, f"{split}.txt"),
                        (f"{h:08d}\t{relations[r]}\t{t:08d}" for h, r, t in rows))
        train = splits["train"]
        entities = np.unique(np.concatenate([train[:, 0], train[:, 2]]))
        heads = rng.choice(entities, size=1024)
        rels = rng.choice(len(relations), size=1024)
        requests = [(f"{h:08d}", relations[r] + ("^-1" if j % 2 else ""))
                    for j, (h, r) in enumerate(zip(heads, rels))]
        checkpoint = write_checkpoint(SPARSE_CONFIG, self.data, os.path.join(self.workdir, "ckpt"),
                                      self.seed, "--set", "dataset.mode=transductive")
        return {"requests": requests, "checkpoint": checkpoint}

    def request_argv(self, request) -> list[str]:
        head, relation = request
        return ["predict", "--checkpoint", self.checkpoint, "--data", self.data, "--head", head,
                "--relation", relation, "-k", str(self.k), "--noise-seed", str(self.seed)]

    def argv(self, i: int) -> list[str]:
        return self.request_argv(self.requests[i % len(self.requests)])

    def _reference(self):
        if self.reference is None:
            ck = load_checkpoint(self.checkpoint)
            entity_vocab = Vocabulary(ck.entity_tokens, frozen=True)
            relation_vocab = Vocabulary(ck.relation_tokens, frozen=True)
            train, _, _ = load_triplets(os.path.join(self.data, "train.txt"), entity_vocab, relation_vocab)
            graph = build_graph(train, len(entity_vocab), len(relation_vocab), add_inverse=True)
            self.reference = (ck, entity_vocab, relation_vocab, graph)
        return self.reference

    def check(self, i, code, stdout, stderr):
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        rows = [json.loads(line) for line in stdout.splitlines()]
        scores = [row["score"] for row in rows]
        if len(rows) != self.k or not all(math.isfinite(s) for s in scores):
            return f"expected {self.k} finite scores, got {scores}"
        if any(a < b for a, b in zip(scores, scores[1:])) or len({r["tail"] for r in rows}) != self.k:
            return "top-k is not a descending list of distinct tails"
        if i % PREDICT_CHECK_EVERY:
            return None
        ck, entity_vocab, relation_vocab, graph = self._reference()
        head, relation = self.requests[i % len(self.requests)]
        rel = (relation_vocab.id(relation[:-3]) + len(relation_vocab) if relation.endswith("^-1")
               else relation_vocab.id(relation))
        query = Query(entity_vocab.id(head), rel, 0, frozenset({0}))
        expected = score_query(graph, query, ck.params, pinned(ck.model_config, self.seed))
        top = np.argsort(-expected, kind="stable")[:self.k]
        want = [{"tail": entity_vocab[int(e)], "score": float(expected[e])} for e in top]
        if rows != want:
            return f"request {i}: CLI top-{self.k} {rows} differs from recomputed {want}"
        return None

    def anchor(self) -> dict:
        return {"top": [[json.loads(line) for line in self.checked_call(i).splitlines()]
                        for i in range(ANCHOR_REQUESTS)]}

    def anchor_mismatch(self, got, want):
        """Scores must be close; two tails may swap only where their recorded scores are close.

        The last tail may differ too: its near-tie partner can sit just past the top-k.
        """
        for rows, recorded in zip(got["top"], want["top"]):
            for j, (row, rec) in enumerate(zip(rows, recorded)):
                near = [recorded[n]["score"] for n in (j - 1, j + 1) if 0 <= n < len(recorded)]
                swapped_tie = j == len(recorded) - 1 or any(close(rec["score"], s) for s in near)
                if not close(row["score"], rec["score"]) or (row["tail"] != rec["tail"] and not swapped_tie):
                    return f"top-{self.k} {rows} differs from the recorded {recorded}"
        return None


WORKLOADS = {w.name: w for w in (UmlsTrain, UmlsEval, SparsePredict)}


def closed_loop(workload: Workload, seconds: float, tracer: Tracer | None):
    """Call the CLI back to back until the next call would end after ``seconds``.

    Returns each call's (exit code, stdout, stderr), its wall time in
    seconds, the queries it answered and whether it was traced. At least
    ``min_ops`` calls run. With a tracer every other call is traced, so the
    per-layer table and the untraced calls it is compared with come from
    the same stretch of time.
    """
    outputs, durations, queries, traced = [], [], [], []
    start = time.perf_counter()
    while True:
        i = len(outputs)
        argv = workload.argv(i)
        call_tracer = tracer if tracer is not None and i % 2 == 1 else None
        if call_tracer:
            call_tracer.install()
            call_tracer.begin_op()
        try:
            t0 = time.perf_counter()
            code, stdout, stderr = call_cli(argv, call_tracer)
            durations.append(time.perf_counter() - t0)
        finally:
            if call_tracer:
                call_tracer.uninstall()
        outputs.append((code, stdout, stderr))
        queries.append(count_queries(workload, i, code, stdout))
        traced.append(call_tracer is not None)
        if call_tracer:
            call_tracer.counters["queries"] = queries[-1]
        elapsed = time.perf_counter() - start
        if len(outputs) >= workload.min_ops and elapsed + statistics.median(durations) > seconds:
            return outputs, durations, queries, traced


def count_queries(workload: Workload, i: int, code: int, stdout: str) -> int:
    """Queries operation i answered; 0 when it failed or printed something unparsable."""
    if code != 0:
        return 0
    try:
        return workload.queries(i, stdout)
    except (ValueError, KeyError, IndexError):
        return 0


def checked(workload: Workload, i: int, output) -> str | None:
    """Run the output check; a check that raises on malformed output is a failed operation."""
    try:
        return workload.check(i, *output)
    except Exception as exc:  # any crash while checking counts against the operation
        return f"check raised {type(exc).__name__}: {exc}"


def set_up(workload: Workload) -> float:
    """Run ``workload.setup`` in a forked child and adopt the state it returns; returns the wall time.

    Set-up runs the program too (a 0-epoch train writes the checkpoint).
    Doing it in a child keeps its memory out of this process's peak RSS.
    """
    os.makedirs(workload.workdir, exist_ok=True)
    state = os.path.join(workload.workdir, "state.json")
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(state, "w", encoding="utf-8") as fh:
                json.dump(workload.setup(), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    elapsed = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{workload.name} set-up failed")
    with open(state, encoding="utf-8") as fh:
        workload.__dict__.update(json.load(fh))
    return elapsed


def anchor_workload(name: str, workdir: str) -> Workload:
    """Workload ``name`` at toy size on ``ANCHOR_SEED``, set up in ``workdir``."""
    workload = WORKLOADS[name](ANCHOR_SEED, TOY, workdir)
    set_up(workload)
    return workload


def anchor_failure(name: str, workdir: str) -> str | None:
    """None when the anchor outputs match those ``anchor.json`` recorded, else what differs.

    The in-run checks recompute outputs through the same functions the
    program calls, so a change that moves every score would pass them.
    This check compares with outputs recorded on the code the benchmark
    was defined on.
    """
    with open(ANCHOR_FILE, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    try:
        workload = anchor_workload(name, workdir)
        return workload.anchor_mismatch(workload.anchor(), want)
    except Exception as exc:  # a crash or failed check on the anchor inputs is a mismatch
        return f"anchor raised {type(exc).__name__}: {exc}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tail_percentile(samples) -> tuple:
    """The highest of p99/p95/p90/p80/p75 with at least ten samples beyond it, and its value."""
    for p in (99, 95, 90, 80, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None, None


def run(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    """Set up, run the closed loop for ``seconds``, check outputs; returns the result object.

    ``attempted`` counts the timed operations plus the anchor check.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[name](seed, scale, workdir)
        setup_times = [set_up(workload) for _ in range(SETUP_REPEATS)]
        tracer = Tracer() if trace else None
        outputs, durations, queries, traced = closed_loop(workload, seconds, tracer)
        rss_mb = peak_rss_mb()  # before the checks, whose recomputation is not the program's work
        failures = [(i, msg) for i, out in enumerate(outputs)
                    if (msg := checked(workload, i, out)) is not None]
        anchor = anchor_failure(name, os.path.join(workdir, "anchor"))
        if anchor is not None:
            failures.append(("anchor", anchor))
        attempted = len(outputs) + 1
        for i, msg in failures:
            log(f"{name}: operation {i} failed: {msg}")
        correct = not failures
        log(f"{name} seed {seed}: {len(outputs)} operations and the anchor, {sum(queries)} queries, "
            f"{len(failures)} failed (failure_ratio {len(failures) / attempted:.3f})")
        if tracer:
            metrics, counts_ok = traced_metrics(tracer, name, seed, durations, queries, traced)
            correct = correct and counts_ok
        else:
            metrics = untraced_metrics(name, seed, durations, queries, setup_times, rss_mb)
        return {"correct": correct, "attempted": attempted, "failed": len(failures),
                "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced_metrics(name: str, seed: int, durations, queries, setup_times, rss_mb: float):
    """End-to-end metrics of an untraced run; also writes the call times to ``OUT_DIR``."""
    metrics = {
        "queries_per_s": {"value": statistics.median(q / d for q, d in zip(queries, durations)),
                          "unit": "1/s"},
        "latency_ms_p50": {"value": 1000.0 * statistics.median(durations), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }
    for key, entry in metrics.items():
        log(f"  {key:<16} {entry['value']:>12.4f} {entry['unit']}")
    op_ms = [1000.0 * d for d in durations]
    p, tail = tail_percentile(op_ms)
    log(f"  latency over {len(op_ms)} operations" +
        (f", p{p} {tail:.1f} ms" if p else ", too few for a tail percentile") +
        f"; setup_s is the median of {SETUP_REPEATS} set-ups")
    with open(os.path.join(OUT_DIR, f"run-{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "op_ms": op_ms, "tail": {"percentile": p, "latency_ms": tail},
                   "queries": queries, "setup_s": setup_times}, fh,
                  indent=1, sort_keys=True)
    return metrics


def traced_metrics(tracer: Tracer, name: str, seed: int, durations, queries, traced):
    """Per-layer metrics of a traced run; also writes the spans and a summary to ``OUT_DIR``."""
    results = tracer.per_op()
    common, specific, table = layer_metrics(results)
    per_op_counts = [layer_metrics([r])[0] for r in results]
    counts_ok = all(c[key] == per_op_counts[0][key] for c in per_op_counts for key in EXACT_COUNTS)
    if not counts_ok:
        log(f"{name}: exact counts differ between operations: "
            f"{[{k: c[k] for k in EXACT_COUNTS} for c in per_op_counts]}")

    def ms_per_query(was_traced):
        return statistics.median(1000.0 * d / max(q, 1) for d, q, t in zip(durations, queries, traced)
                                 if t == was_traced)

    untraced_ms, traced_ms = ms_per_query(False), ms_per_query(True)
    table_ms = sum(table.values()) * len(results) / max(sum(r["queries"] for r in results), 1)
    overhead = traced_ms / untraced_ms - 1.0
    log(f"  self time per operation by layer ({len(results)} traced operations):")
    for layer, ms in table.items():
        log(f"    {layer:<11} {ms:>12.3f} ms  {100.0 * ms / sum(table.values()):5.1f}%")
    log(f"  rows sum to {table_ms:.3f} ms per query, {100.0 * table_ms / untraced_ms:.1f}% of the "
        f"untraced calls' median {untraced_ms:.3f} ms per query; tracing overhead (traced vs "
        f"untraced median) {100.0 * overhead:+.1f}%")
    for key, value in {**common, **specific}.items():
        log(f"  {key:<34} {value:>14.4f}")
    base = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}")
    tracer.write(base + ".spans.jsonl")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "op_ms": [1000.0 * d for d in durations],
                   "queries": queries, "traced": traced, "per_layer": common,
                   "workload_specific": specific, "self_ms_per_op": table,
                   "table_ms_per_query": table_ms, "untraced_ms_per_query": untraced_ms,
                   "tracing_overhead": overhead, "exact_counts_repeat": counts_ok},
                  fh, indent=1, sort_keys=True)
    units = {key: ("ms" if "_ms" in key else "B" if "bytes" in key else "count") for key in common}
    return {key: {"value": value, "unit": units[key]} for key, value in common.items()}, counts_ok
