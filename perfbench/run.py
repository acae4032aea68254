#!/usr/bin/env python3
"""SwitchV benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run one workload:

    python3 perfbench/run.py --workload tor_cycle --seed 11 --seconds 30 --trace 0

or every workload in turn:

    python3 perfbench/run.py --workload all

A run repeats the workload's round ``seconds / round_s`` times (see
workloads.py), each round in a fresh, single-threaded child process, so
that no round reuses the program's module-level caches; the end-to-end
metrics are the medians over the rounds, except ``setup_s`` (see
``setup_figure``).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones in
``BENCHMARK.json``; with ``--trace 1`` the last round wraps the layers'
public functions (see layers.py), the run reports the per-layer metrics of
that round instead, and writes its spans to ``perfbench/out/``.  The lines
above it list every figure by name and unit, the outputs checked against
``perfbench/expected.json``, and the seeded-fault sentinel's verdict.  The
program is imported from ``src/`` of the checkout the benchmark sits in;
without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = [
    ("setup_s", "s"),
    ("total_s", "s"),
    ("updates_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
WORKLOAD_NAMES = ["tor_cycle", "fuzz_teardown"]
# Set-up-only child processes before each round.
SETUPS_PER_ROUND = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the expected ones")
    # Internal: run one round, or only the set-up, in this process and
    # print it as JSON.
    parser.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_round(args: argparse.Namespace) -> dict:
    """One round of ``args.workload`` in this process."""
    import workloads
    from layers import per_layer_metrics
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    outcome = workloads.WORKLOADS[args.workload](
        args.seed % workloads.VARIANTS, workloads.FULL[args.workload], tracer
    )
    result = dataclasses.asdict(outcome)
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(
            tracer, outcome.metrics["total_s"], outcome.pool_stats
        )
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    return result


def run_setup(args: argparse.Namespace) -> dict:
    """Only the set-up of ``args.workload``, timed, in this process."""
    import workloads

    _objects, setup_s = workloads.timed_setup(
        args.workload, args.seed % workloads.VARIANTS, workloads.FULL[args.workload]
    )
    return {"setup_s": setup_s}


def spawn(args: argparse.Namespace, *flags: str) -> dict:
    """``run.py`` with ``flags`` in a fresh child process; its JSON line."""
    command = [sys.executable, str(Path(__file__).resolve()), *flags,
               "--workload", args.workload, "--seed", str(args.seed)]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload} {' '.join(flags)} exited with status "
                         f"{child.returncode}")
    return json.loads(lines[-1])


def setup_figure(samples: list) -> float:
    """The mean of the middle half of the set-up samples.

    A set-up takes milliseconds, so each sample sees the host at one
    instant, and a shared host switches between a fast and a slow speed
    for seconds at a time.  The samples are spread over the run; the
    middle half drops outliers like a median, and its mean follows the
    share of time the host ran fast instead of jumping between the two
    speeds as a median does.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _median_figure(figures: list):
    """The median of a named figure over rounds; extra text from the first."""
    value, unit, *extra = figures[0]
    if isinstance(value, (int, float)):
        value = statistics.median(f[0] for f in figures)
    return value, unit, *extra


def run_workload(args: argparse.Namespace) -> dict:
    """Every round of one workload, each in a fresh child; returns the result."""
    import expected
    import workloads
    from layers import PER_LAYER

    variant = args.seed % workloads.VARIANTS
    # A traced run keeps at least one untraced round to measure the
    # tracing overhead against.
    count = max(1 + args.trace, round(args.seconds / workloads.FULL[args.workload]["round_s"]))
    rounds, setups = [], []
    for i in range(count):
        setups += [spawn(args, "--setup")["setup_s"] for _ in range(SETUPS_PER_ROUND)]
        rounds.append(spawn(args, "--round", "--trace", str(int(args.trace and i == count - 1))))
    setups += [r["metrics"]["setup_s"] for r in rounds]
    untraced = [r for r in rounds if "per_layer" not in r]

    if args.record:
        expected.record(args.workload, variant, rounds[0]["observed"])
    want = expected.lookup(expected.load(), args.workload, variant)
    failed, failures = expected.check(want, rounds)
    attempted = sum(r["attempted"] for r in rounds)

    found = workloads.sentinel()
    sentinel_ok = all(n > 0 for n in found.values())

    metrics = {name: statistics.median(r["metrics"][name] for r in untraced)
               for name, _unit in END_TO_END}
    metrics["setup_s"] = setup_figure(setups)
    print(f"workload {args.workload} seed {args.seed} (variant {variant}) "
          f"seconds {args.seconds} trace {args.trace}: {count} round(s)")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {metrics[name]:>14.6g} {unit}")
    for name in rounds[0]["named"]:
        value, unit, *extra = _median_figure([r["named"][name] for r in untraced])
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14}"
        print(f"  {name:<24} {shown} {unit} {' '.join(extra)}".rstrip())
    print("  round_total_s    " + " ".join(f"{r['metrics']['total_s']:.3f}" for r in rounds))
    print(f"  setup samples    {len(setups)}, median {statistics.median(setups):.6g} s")
    print(f"  failed_share     {failed / attempted:>14.6g} "
          f"({failed} of {attempted} operations)")
    for line in failures[:40]:
        print(f"  FAILED {line}")
    print("  sentinel " + ", ".join(f"{fault}: {n} incident(s)" for fault, n in found.items())
          + ("" if sentinel_ok else "  MISSED"))

    units = dict(END_TO_END)
    if args.trace:
        untraced_total_s = metrics["total_s"]
        metrics = rounds[-1]["per_layer"]
        metrics["trace.untraced_total_s"] = untraced_total_s
        units = dict(PER_LAYER)
        for name, unit in PER_LAYER:
            print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
        print(f"  tracing overhead {metrics['trace.total_s'] - untraced_total_s:+.3f} s "
              f"(traced round minus the median of {len(untraced)} untraced)")
        print(f"  spans written to {OUT.relative_to(ROOT)}/")
    return {
        "correct": failed == 0 and sentinel_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in turn."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source ({SRC / 'repro'}) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.round or args.setup:
        if args.workload == "all":
            raise SystemExit("--round and --setup need one workload")
        result = run_round(args) if args.round else run_setup(args)
    else:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
