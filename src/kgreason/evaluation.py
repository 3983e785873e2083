"""Filtered ranking and MRR / Hits@n metrics.

Ranking is filtered by default: every known true tail for the query other
than the gold answer is removed from the candidate pool before counting.
Ties are resolved by mean rank, which keeps the untrained-model baseline
at its analytic random-ranking expectation. ``evaluate`` spreads its
relation groups over one process per available CPU when numpy's BLAS runs
on one thread; ``Children`` forks and reaps those processes, and training's
replicas.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .data import KnowledgeGraph, Query
from .model import ModelConfig, ModelParams, layer0_query_side, make_noise, pin_noise, score_query


class RankingError(Exception):
    pass


class MetricsError(Exception):
    pass


class WorkerError(Exception):
    """A forked worker or training replica ended without a usable result.

    It was ended by a signal, or failed with an error it could not send.
    """


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
    if np.isnan(gold_score):
        raise RankingError(f"gold entity {gold} has a NaN score")
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
    """Rank every query and aggregate metrics (``ranks`` follows ``queries``).

    Noise is pinned to ``noise_seed`` (unless the model runs with noise
    disabled) and drawn once, so reported numbers are reproducible. With
    noise pinned and no edge excluded, a query's scores depend only on its
    (head, relation), so each distinct pair is scored once and every gold of
    that pair is ranked against the one vector. Pairs run grouped by
    relation, because layer 0's query side depends on the relation alone:
    it is computed once per relation and shared by that relation's pairs.
    The relation groups are spread over the available CPUs
    (``map_in_workers``); each worker holds one relation's query side and
    one score vector at a time. If a pipe or a fork fails, every group is
    ranked in this process. Ranks, metrics and errors are those of one
    process ranking every group in turn (a worker killed by a signal
    raises ``WorkerError``). A CPU busy with other work delays the whole
    call (``map_in_workers``).
    """
    eval_config = pin_noise(config, noise_seed)
    noise = make_noise(eval_config, graph.num_entities)
    groups: dict[int, dict[int, list[int]]] = {}     # relation -> head -> query indices
    for i, query in enumerate(queries):
        groups.setdefault(query.relation, {}).setdefault(query.head, []).append(i)
    by_relation = list(groups.values())

    def rank_group(by_head: dict[int, list[int]]) -> np.ndarray:
        """Ranks of one relation's queries, head by head and each head's queries in order."""
        pairs = [queries[members[0]] for members in by_head.values()]
        side = layer0_query_side(graph, pairs[0], params, eval_config, noise)
        ranks = []
        for pair, members in zip(pairs, by_head.values()):
            scores = score_query(graph, pair, params, eval_config, noise, query_side=side)
            for i in members:
                query = queries[i]
                mask = None if raw else query_filter_mask(query, graph.num_entities)
                ranks.append(rank_answer(scores, query.gold_tail, mask))
            del scores
        return np.array(ranks, dtype=np.float64)

    ranks = np.empty(len(queries))
    results = map_in_workers(rank_group, by_relation, [len(by_head) for by_head in by_relation])
    for by_head, group_ranks in zip(by_relation, results):
        ranks[[i for members in by_head.values() for i in members]] = group_ranks
    return compute_metrics(ranks)


# --- worker processes ----------------------------------------------------------

# Thread-count queries of the BLAS numpy links: OpenBLAS as numpy's wheels
# bundle it (scipy-openblas, with and without the 64-bit suffix), plain
# OpenBLAS, and MKL.
_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads", "MKL_Get_Max_Threads")


def blas_threads() -> Optional[int]:
    """Threads numpy's BLAS runs a product on, or None where that BLAS offers no query."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:                       # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        blas = ctypes.CDLL(_multiarray_umath.__file__)   # symbols resolve through its linked BLAS
    except OSError:
        return None
    for name in _BLAS_THREAD_QUERIES:
        query = getattr(blas, name, None)
        if query is not None:
            query.argtypes, query.restype = [], ctypes.c_int
            return int(query())
    return None


def cgroup_cpu_limit(root: str = "/sys/fs/cgroup", membership: str = "/proc/self/cgroup") -> Optional[float]:
    """CPUs that the CPU quotas of this process's cgroups and their ancestors allow; None if none is set.

    Reads cgroup v2 ``cpu.max`` and cgroup v1 ``cpu.cfs_quota_us`` /
    ``cpu.cfs_period_us``; a file that is missing or unreadable sets no limit.
    """
    try:
        with open(membership) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    limits = []
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if not controllers:
            base, names = root, ("cpu.max",)
        elif "cpu" in controllers.split(","):
            base, names = os.path.join(root, "cpu"), ("cpu.cfs_quota_us", "cpu.cfs_period_us")
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            fields = []
            try:
                for name in names:
                    with open(os.path.join(base, *parts[:depth], name)) as fh:
                        fields += fh.read().split()
                quota, period = int(fields[0]), int(fields[1])   # "max" (v2) has no quota
            except (OSError, ValueError, IndexError):
                continue
            if quota > 0 and period > 0:                         # -1 (v1) has none either
                limits.append(quota / period)
    return min(limits, default=None)


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask (all CPUs where none is reported), within its CPU quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    limit = cgroup_cpu_limit()
    return cpus if limit is None else max(1, min(cpus, math.ceil(limit)))


def worker_count(tasks: int) -> int:
    """Processes ``map_in_workers`` spreads ``tasks`` tasks over.

    One per available CPU, at most one per task, and one unless numpy's BLAS
    reports a single thread: the workers keep their BLAS thread count (large
    graphs' scores depend on it), so BLAS threads in several workers would
    outnumber the CPUs. Also one where ``os.fork`` does not exist.
    """
    if not hasattr(os, "fork") or blas_threads() != 1:
        return 1
    return max(1, min(available_cpus(), tasks))


def split_tasks(weights: Sequence[int], workers: int) -> list[list[int]]:
    """Task indices per worker: largest task first, each to the least-loaded worker.

    Each share lists its tasks in task order, and the shares are ordered by
    their first task, so the first share holds task 0. The split depends
    only on ``weights`` and ``workers``.
    """
    loads = [0] * workers
    shares: list[list[int]] = [[] for _ in range(workers)]
    for t in sorted(range(len(weights)), key=lambda t: -weights[t]):
        w = min(range(workers), key=lambda w: (loads[w], len(shares[w])))
        shares[w].append(t)
        loads[w] += weights[t]
    return sorted((sorted(share) for share in shares if share), key=lambda share: share[0])


def map_in_workers(work: Callable[[object], object], tasks: Sequence, weights: Sequence[int]) -> list:
    """``[work(task) for task in tasks]`` on ``worker_count(len(tasks))`` processes.

    The tasks are split by ``split_tasks``. This process runs the share that
    holds task 0; every other share runs in a child (``Children``), which
    sends back its pickled results, or its first failing task and error. If
    a pipe or a fork fails, the children already made are killed and every
    task runs here. The error raised is the one of the first failing task,
    as the list comprehension raises it: the shares are read in task order,
    and the children whose shares start after a known failing task are
    killed unread. Every child is reaped before this returns or raises. A
    child ended by a signal raises ``WorkerError`` naming the signal.

    ``worker_count`` counts the CPUs this process may use, not the idle
    ones, and this returns only when the slowest share is done, so a CPU
    that is busy with other work delays the whole call.
    """
    shares = split_tasks(weights, worker_count(len(tasks)))

    def attempt(share: list[int], catch) -> tuple:
        """``(None, results)`` of ``share``'s tasks, or ``(failing task, error)`` for a ``catch`` error."""
        results = []
        for t in share:
            try:
                results.append(work(tasks[t]))
            except catch as exc:
                return t, exc
        return None, results

    def run_share(index: int, _read_end: int, write_end: int) -> None:
        # KeyboardInterrupt too: the caller re-raises it
        failed_at, outcome = attempt(shares[index + 1], BaseException)
        if failed_at is not None:
            outcome = sendable_error(outcome)
        send(write_end, pickle.dumps((failed_at, outcome)))

    children = Children(len(shares) - 1, run_share, "evaluation worker")
    if len(children.ends) + 1 < len(shares):   # a pipe or a fork failed: every task runs here
        shares = [list(range(len(tasks)))]
    results: list = [None] * len(tasks)
    failures: list[tuple[int, BaseException]] = []     # (failing task, its error)
    try:
        for k, share in enumerate(shares):
            if failures and share[0] > min(failures, key=lambda f: f[0])[0]:
                break                                   # nothing the rest run precedes that failure
            failed_at, outcome = attempt(share, Exception) if k == 0 else children.outcome(k - 1)
            if failed_at is None:
                for t, result in zip(share, outcome):
                    results[t] = result
            else:
                failures.append((failed_at, outcome))
    finally:
        children.kill()                                 # the children left unread
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def sendable_error(exc: BaseException) -> BaseException:
    """``exc``, or a ``WorkerError`` naming it where it does not survive pickling."""
    try:
        pickle.loads(pickle.dumps(exc))   # an error whose class cannot be rebuilt fails here
    except Exception:
        return WorkerError(f"{type(exc).__name__}: {exc}")
    return exc


class Children:
    """Forked children, each with a pipe each way, from their fork to their reaping.

    Child ``k`` (from 0) first closes every pipe end of the children made
    before it, then runs ``run(k, read end, write end)`` on its ends of the
    pipes from and to this process. It ends through ``os._exit``, with code
    0 if ``run`` returns and 1 if it raises, and never unwinds into the
    caller. If a pipe or a fork fails, the children already made are killed
    and none is left, so the caller runs alone. ``role`` names a child in
    errors.

    A forked child shares the caller's memory (model, graph, queries)
    without pickling it. It assumes this process runs no other Python
    thread, whose held locks the child would inherit; the ``kgreason``
    commands run none.
    """

    def __init__(self, count: int, run: Callable[[int, int, int], None], role: str):
        self.role = role
        self.ends: dict[int, tuple[int, int, int]] = {}   # child -> (pid, pipe to it, pipe from it)
        try:
            for k in range(count):
                self.ends[k] = self._fork(k, run)
        except BaseException as exc:
            self.kill()
            if not isinstance(exc, OSError):   # no pipe or process to be had: the caller runs alone
                raise

    def _fork(self, k: int, run) -> tuple[int, int, int]:
        """Start child ``k``; its pid and this process's ends of its pipes."""
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        down_read, down_write, up_read, up_write = fds
        if pid == 0:
            code = 1
            try:
                for fd in (down_write, up_read, *(fd for _, *ends in self.ends.values() for fd in ends)):
                    os.close(fd)
                run(k, down_read, up_write)
                code = 0
            finally:
                os._exit(code)
        os.close(down_read)
        os.close(up_write)
        return pid, down_write, up_read

    def outcome(self, k: int):
        """Read child ``k``'s pipe to EOF, reap the child and return what it sent, unpickled.

        A child that sent nothing readable, or was ended by a signal, raises
        a ``WorkerError`` naming it and its exit code or signal.
        """
        with open(self.ends[k][2], "rb", closefd=False) as pipe:   # an interrupted read leaves it to kill()
            payload = pipe.read()
        pid, code = self._reap(k)
        try:
            return pickle.loads(payload)
        except Exception:
            raise WorkerError(f"{self.role} {pid} exited with code {code} and no result") from None

    def kill(self) -> None:
        """Kill and reap every child left."""
        while self.ends:
            _, (pid, down, up) = self.ends.popitem()
            os.close(down)
            os.close(up)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def _reap(self, k: int) -> tuple[int, int]:
        """Close this process's ends of child ``k``'s pipes and wait for it to end; its pid and exit code.

        A child ended by a signal raises ``WorkerError`` naming it.
        """
        pid, down, up = self.ends.pop(k)
        os.close(down)
        os.close(up)
        _, status = os.waitpid(pid, 0)
        if os.WIFSIGNALED(status):
            number = os.WTERMSIG(status)
            try:
                name = signal.Signals(number).name
            except ValueError:
                name = str(number)
            raise WorkerError(f"{self.role} {pid} was killed by signal {name}")
        return pid, os.WEXITSTATUS(status)


def send(fd: int, *buffers) -> None:
    """Write all the bytes of each buffer (bytes, or a contiguous array) to the pipe ``fd``."""
    for buf in buffers:
        view = memoryview(buf).cast("B")
        while view:
            view = view[os.write(fd, view):]


def receive(fd: int, *arrays) -> bool:
    """Fill each contiguous array in place from the pipe ``fd``; False if the pipe ends first."""
    for arr in arrays:
        view = memoryview(arr).cast("B")
        while view:
            count = os.readv(fd, [view])
            if not count:
                return False
            view = view[count:]
    return True
