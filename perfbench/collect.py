#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/collect.py --workloads tor_cycle,fuzz_teardown --seeds 0-9 \
        [--seconds 30] [--trace 0] [--jsonl runs.jsonl] [--baseline]

Each run is ``run.py`` in a fresh process, one after another.  For every
workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  ``--baseline`` merges the
summary into ``perfbench/baseline.json`` (untraced runs under
``end_to_end``, traced runs under ``per_layer``), with the commit, the
processor count, the Python version and, for traced runs, the tracing
overhead per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def seeds_from(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True,
                          check=False)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=wall)
    return result


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0,
                "runs": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "runs": len(values)}


def git_commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--jsonl", type=Path)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)

    results = []
    for workload in args.workloads.split(","):
        for seed in seeds_from(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if args.trace == 0)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall={result['wall_s']:.1f}s {shown}", flush=True)
            if args.jsonl:
                with args.jsonl.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(result) + "\n")

    summary = {}
    for workload in args.workloads.split(","):
        runs = [r for r in results if r["workload"] == workload]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[workload] = {
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "run_wall_s": summarise([r["wall_s"] for r in runs]),
            "metrics": metrics,
        }
        if args.trace == 0:
            for name, row in metrics.items():
                print(f"{workload:<14} {name:<16} median {row['median']:.6g} "
                      f"spread {row['spread']:.4f}")

    if args.baseline:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline.update(commit=git_commit(), nproc=os.cpu_count(),
                        python=platform.python_version(), seconds=args.seconds)
        section = baseline.setdefault("per_layer" if args.trace else "end_to_end", {})
        section.update(summary)
        if args.trace:
            # Tracing overhead: each run's traced round minus its untraced
            # rounds' median total_s, summarised over the runs.
            for workload in summary:
                baseline.setdefault("tracing_overhead_s", {})[workload] = summarise([
                    r["metrics"]["trace.total_s"]["value"]
                    - r["metrics"]["trace.untraced_total_s"]["value"]
                    for r in results if r["workload"] == workload])
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
