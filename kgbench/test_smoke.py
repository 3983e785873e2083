"""Fast smoke of every workload at toy size, untraced and traced.

    python3 -m pytest kgbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def declared_metrics(kind: str) -> set:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_toy_workload_runs_clean(name, trace):
    result = workloads.run(name, seed=3, seconds=0.0, trace=trace, scale=workloads.TOY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == declared_metrics("per_layer" if trace else "end_to_end")
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["value"] >= 0


def test_check_catches_a_wrong_answer():
    workload = workloads.SparsePredict(3, workloads.TOY, "unused")
    workload.requests = [("0", "_hypernym")]
    wrong = "".join(json.dumps({"tail": str(i), "score": 0.5}) + "\n" for i in range(9))
    assert workload.check(0, 0, wrong, "") is not None


def test_anchor_tolerates_rounding_only():
    with open(workloads.ANCHOR_FILE, encoding="utf-8") as fh:
        anchors = json.load(fh)
    train = workloads.UmlsTrain(3, workloads.TOY, "unused")
    want = anchors["umls-train"]
    assert train.anchor_mismatch({**want, "loss": want["loss"] * (1 + 1e-6)}, want) is None
    assert train.anchor_mismatch({**want, "loss": want["loss"] * (1 + 1e-3)}, want) is not None

    evaluation = workloads.UmlsEval(3, workloads.TOY, "unused")
    ranks = anchors["umls-eval"]["ranks"]
    assert evaluation.anchor_mismatch({"ranks": [ranks[0] + 1] + ranks[1:]}, {"ranks": ranks}) is None
    assert evaluation.anchor_mismatch({"ranks": [ranks[0] + 2] + ranks[1:]}, {"ranks": ranks}) is not None
    assert evaluation.anchor_mismatch({"ranks": [r + 1 for r in ranks]}, {"ranks": ranks}) is not None

    predict = workloads.SparsePredict(3, workloads.TOY, "unused")
    top = anchors["sparse-predict"]["top"]
    def swap_tails(rows, j):
        rows = [dict(row) for row in rows]
        rows[j]["tail"], rows[j + 1]["tail"] = rows[j + 1]["tail"], rows[j]["tail"]
        return rows

    assert predict.anchor_mismatch({"top": [swap_tails(top[0], 0)] + top[1:]}, {"top": top}) is not None
    assert predict.anchor_mismatch({"top": [swap_tails(top[0], 8)] + top[1:]}, {"top": top}) is None
    moved = [[{**row, "score": row["score"] * (1 + 1e-3)} for row in rows] for rows in top]
    assert predict.anchor_mismatch({"top": moved}, {"top": top}) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "kgbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "kgbench/run.py", "--workload", "umls-train", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
