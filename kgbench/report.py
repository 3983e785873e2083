"""One command for the whole benchmark: every workload untraced and traced, one report.

    python3 kgbench/report.py [--seed 0] [--seconds 30] [--out kgbench/out/report.json]

Each workload runs in its own process (``run.py``): once untraced for the
end-to-end metrics and twice traced, which gives the per-layer table, the
tracing overhead, and a check that the exact counts repeat from run to
run. The report also records the machine the numbers come from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from run import BLAS_THREADS, pin_blas_threads
from tracer import EXACT_COUNTS, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# What the workload-neutral end-to-end metrics mean on each workload.
ALIASES = {
    ("umls-train", "queries_per_s"): "train_queries_per_s",
    ("umls-eval", "queries_per_s"): "eval_queries_per_s",
    ("sparse-predict", "latency_ms_p50"): "predict_ms_p50",
}


def machine_facts() -> dict:
    pin_blas_threads()
    import numpy as np

    cpu = platform.processor() or "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "commit": git.stdout.strip() if git.returncode == 0 else "unknown"}


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """One ``run.py`` process; returns (result line, the run's summary file)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
    with open(os.path.join(OUT_DIR, f"{'trace' if trace else 'run'}-{workload}-seed{seed}.json"),
              encoding="utf-8") as fh:
        return json.loads(proc.stdout.splitlines()[-1]), json.load(fh)


def report_workload(workload: str, seed: int, seconds: float) -> dict:
    result, summary = run_workload(workload, seed, seconds, 0)
    traced = [run_workload(workload, seed, seconds, 1) for _ in range(2)]
    trace = traced[0][1]
    op_ms = summary["op_ms"]
    p, tail = summary["tail"]["percentile"], summary["tail"]["latency_ms"]
    entry = {
        "correct": result["correct"] and all(t[0]["correct"] for t in traced),
        "attempted": result["attempted"],
        "failure_ratio": result["failed"] / result["attempted"],
        "end_to_end": result["metrics"],
        "operations": len(op_ms),
        "tail": {"percentile": p, "latency_ms": tail},
        "per_layer": trace["per_layer"],
        "workload_specific": trace["workload_specific"],
        "self_ms_per_op": trace["self_ms_per_op"],
        "table_over_untraced": trace["table_ms_per_query"] / trace["untraced_ms_per_query"],
        "tracing_overhead": trace["tracing_overhead"],
        "exact_counts_repeat": all(traced[0][0]["metrics"][k] == traced[1][0]["metrics"][k]
                                   for k in EXACT_COUNTS),
    }
    print(f"\n== {workload} (seed {seed}, {len(op_ms)} operations, "
          f"failure_ratio {entry['failure_ratio']:.3f}, correct {entry['correct']})")
    for key, m in entry["end_to_end"].items():
        alias = ALIASES.get((workload, key))
        print(f"  {key:<16} {m['value']:>12.4f} {m['unit']:<5}" + (f" ({alias})" if alias else ""))
    if p is not None:
        print(f"  latency_ms_p{p:<12} {tail:>12.4f} ms    (tail over {len(op_ms)} operations)")
    print("  per-layer self time per traced operation:")
    for layer in LAYERS:
        print(f"    {layer:<11} {entry['self_ms_per_op'][layer]:>12.3f} ms")
    print(f"  rows sum to {100 * entry['table_over_untraced']:.1f}% of the untraced calls of the same "
          f"run; tracing overhead {100 * entry['tracing_overhead']:+.1f}%; exact counts repeat "
          f"across runs: {entry['exact_counts_repeat']}")
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "report.json"))
    args = parser.parse_args()
    facts = machine_facts()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    report = {"machine": facts, "seed": args.seed, "seconds": args.seconds,
              "workloads": {w: report_workload(w, args.seed, args.seconds) for w in workloads}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    ok = all(w["correct"] and w["exact_counts_repeat"] for w in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
