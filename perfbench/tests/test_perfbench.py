"""The benchmark's own tests: tracer arithmetic, the verifier, and a
tiny-size smoke run of every workload.

Run: python3 -m pytest -q perfbench/tests
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import expected
import workloads
from layers import PER_LAYER, per_layer_metrics
from repro.switchv import SwitchVHarness
from run import END_TO_END
from tracer import Tracer, layer_totals, self_times

BENCH = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 7.0, 0],
        ["c", 2.0, 3.0, 1],
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],
        ["c", 9.0, 12.0, 0],  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_reentered_layer_is_counted_once_inclusive():
    spans = [
        ["x", 0.0, 8.0, -1],
        ["y", 1.0, 7.0, 0],
        ["x", 2.0, 4.0, 1],
    ]
    totals = layer_totals(spans)
    assert totals["x"] == {"calls": 2, "s": 8.0, "self_s": 2.0 + 2.0}
    assert totals["y"] == {"calls": 1, "s": 6.0, "self_s": 4.0}


def test_wrapped_calls_record_parents_and_hooks():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap(lambda n: n * 2, "inner",
                        on_result=lambda t, args, result: t.count("doubled", result))
    outer = tracer.wrap(lambda n: inner(n) + inner(n), "outer")
    assert outer(3) == 12
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counters["doubled"] == 12
    assert tracer.totals()["outer"]["self_s"] == 5.0 - 2.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(name):
    outcome = workloads.WORKLOADS[name](3, workloads.TINY[name])
    assert outcome.failures == []
    assert outcome.attempted >= 1
    for metric, _unit in END_TO_END:
        assert outcome.metrics[metric] > 0, metric


def test_traced_run_reports_every_layer_metric_and_unwraps():
    tracer = Tracer()
    outcome = workloads.fuzz_teardown(3, workloads.TINY["fuzz_teardown"], tracer)
    values = per_layer_metrics(tracer, outcome.metrics["total_s"], outcome.pool_stats)
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["fuzzer.generate_update.calls"] > 0
    assert values["switchv.clear_switch.s"] > 0
    assert values["smt.check.calls"] == 0  # no data-plane work in this workload
    assert not hasattr(SwitchVHarness.clear_switch, "__wrapped_by_tracer__")


def test_verifier_flags_a_corrupted_packet_digest():
    outcome = dataclasses.asdict(workloads.tor_cycle(5, workloads.TINY["tor_cycle"]))
    record = copy.deepcopy(outcome["observed"])
    assert expected.check(record, [outcome]) == (0, [])
    record["packets"] = "0" * len(record["packets"])
    failed, messages = expected.check(record, [outcome, outcome])
    goals = outcome["observed"]["goals"][1]
    assert failed == 2 * goals  # every goal of both rounds
    assert [m.split(":")[0] for m in messages] == ["round 0", "round 1"]
    assert "packets: expected" in messages[0]


def test_missing_record_fails_every_operation():
    rounds = [{"attempted": 7, "failures": [], "observed": {}, "weights": {}}] * 2
    failed, messages = expected.check(None, rounds)
    assert failed == 14
    assert messages == ["no recorded outputs for this workload and seed"]


def test_every_seed_variant_is_recorded():
    table = expected.load()
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            assert expected.lookup(table, name, variant), (name, variant)


def test_sentinel_finds_both_faults():
    found = workloads.sentinel()
    assert set(found) == {fault for fault, _tool in workloads.SENTINEL_FAULTS}
    assert all(count > 0 for count in found.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tor_cycle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
