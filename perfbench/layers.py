"""The layer boundaries the traced run wraps, and the per-layer metrics.

Layer names follow the packages under ``repro``: switchv, fuzzer,
symbolic, smt, switch and bmv2.  Every per-layer metric is reported on
every workload; a layer a workload never calls reads 0.

``make_batches`` is imported by name into the fuzzer, the harness and
the other callers of the batcher, so each of those module globals is
wrapped as well as the defining module's.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from tracer import Tracer


def _on_write(tracer: Tracer, args, response) -> None:
    request = args[1]
    tracer.count("switch.write.updates", len(request.updates))
    tracer.count("switch.write.rejected", sum(1 for s in response.statuses if not s.ok))


def _on_make_batches(tracer: Tracer, args, _batches) -> None:
    tracer.count("fuzzer.make_batches.updates", len(args[1]))


def _on_subsume(tracer: Tracer, _args, witness) -> None:
    if witness is not None:
        tracer.count("symbolic.subsume.hits")


def _on_control_plane(tracer: Tracer, _args, report) -> None:
    if report.fuzz is not None:
        tracer.count("fuzzer.updates_sent", report.fuzz.updates_sent)
        tracer.count("fuzzer.valid_updates", report.fuzz.valid_updates)


def _on_data_plane(tracer: Tracer, _args, report) -> None:
    stats = report.data_plane
    if stats is None:
        return
    tracer.count("symbolic.goals_covered", stats.goals_covered)
    tracer.count("symbolic.goals_total", stats.goals_total)
    tracer.count("symbolic.goals_from_cache", stats.goals_from_cache)
    tracer.count("smt.sat_conflicts", stats.sat_conflicts)
    tracer.count("smt.cnf_clauses", stats.cnf_clauses)
    tracer.count("smt.cnf_vars", stats.cnf_vars)


_MAKE_BATCHES_HOLDERS = (
    "repro.fuzzer.batching",
    "repro.fuzzer.fuzzer",
    "repro.switchv.harness",
    "repro.switchv.trivial",
    "repro.controller.controller",
)

TARGETS = [
    ("repro.switchv.harness", "SwitchVHarness", "validate_control_plane",
     "switchv.validate_control_plane", _on_control_plane),
    ("repro.switchv.harness", "SwitchVHarness", "validate_data_plane",
     "switchv.validate_data_plane", _on_data_plane),
    ("repro.switchv.harness", "SwitchVHarness", "clear_switch", "switchv.clear_switch", None),
    ("repro.fuzzer.generator", "RequestGenerator", "generate_update",
     "fuzzer.generate_update", None),
    ("repro.fuzzer.oracle", "Oracle", "judge_batch", "fuzzer.judge_batch", None),
    *[(module, "", "make_batches", "fuzzer.make_batches", _on_make_batches)
      for module in _MAKE_BATCHES_HOLDERS],
    ("repro.symbolic.executor", "SymbolicExecutor", "execute", "symbolic.execute", None),
    ("repro.symbolic.packets", "PacketGenerator", "generate", "symbolic.generate", None),
    ("repro.symbolic.packets", "PacketGenerator", "subsume_goal", "symbolic.subsume",
     _on_subsume),
    ("repro.smt.solver", "Solver", "check", "smt.check", None),
    ("repro.smt.solver", "Solver", "model", "smt.model", None),
    *[(module, cls, method, f"switch.{method}", _on_write if method == "write" else None)
      for module, cls in (("repro.switch.stack", "PinsSwitchStack"),
                          ("repro.switch.reference", "ReferenceSwitch"))
      for method in ("write", "read", "send_packet")],
    ("repro.bmv2.simulator", "Bmv2Simulator", "behaviors", "bmv2.behaviors", None),
    ("repro.bmv2.simulator", "Bmv2Simulator", "admits", "bmv2.admits", None),
]

SPAN_NAMES = {target[3] for target in TARGETS}

# (metric name, unit) in report order.
PER_LAYER: List[tuple] = [
    ("switchv.validate_control_plane.s", "s"),
    ("switchv.validate_data_plane.s", "s"),
    ("switchv.clear_switch.s", "s"),
    ("fuzzer.generate_update.calls", "count"),
    ("fuzzer.generate_update.s", "s"),
    ("fuzzer.judge_batch.calls", "count"),
    ("fuzzer.judge_batch.s", "s"),
    ("fuzzer.make_batches.calls", "count"),
    ("fuzzer.make_batches.updates", "count"),
    ("fuzzer.make_batches.s", "s"),
    ("fuzzer.make_batches.us_per_update", "us"),
    ("fuzzer.valid_share", "share"),
    ("symbolic.execute.calls", "count"),
    ("symbolic.execute.s", "s"),
    ("symbolic.generate.calls", "count"),
    ("symbolic.generate.s", "s"),
    ("symbolic.generate.self_s", "s"),
    ("symbolic.subsume.calls", "count"),
    ("symbolic.subsume.s", "s"),
    ("symbolic.subsume.hit_ratio", "share"),
    ("symbolic.goal_cache.hit_ratio", "share"),
    ("symbolic.goals_covered", "count"),
    ("symbolic.goals_total", "count"),
    ("smt.check.calls", "count"),
    ("smt.check.s", "s"),
    ("smt.model.s", "s"),
    ("smt.sat_conflicts", "count"),
    ("smt.cnf_clauses", "count"),
    ("smt.cnf_vars", "count"),
    ("smt.pool.solvers", "count"),
    ("smt.pool.hit_ratio", "share"),
    ("switch.write.calls", "count"),
    ("switch.write.updates", "count"),
    ("switch.write.s", "s"),
    ("switch.write.rejected", "count"),
    ("switch.read.calls", "count"),
    ("switch.read.s", "s"),
    ("switch.send_packet.calls", "count"),
    ("switch.send_packet.s", "s"),
    ("bmv2.behaviors.calls", "count"),
    ("bmv2.behaviors.s", "s"),
    ("bmv2.admits.calls", "count"),
    ("trace.total_s", "s"),
    # The median total_s of the same run's untraced rounds; the tracing
    # overhead is trace.total_s minus this.
    ("trace.untraced_total_s", "s"),
    ("trace.spans", "count"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer, total_s: float, pool_stats: Optional[Dict[str, int]] = None
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``total_s`` is the traced round's ``total_s``; ``pool_stats`` is the
    workload's ``SolverPool.stats`` at the end of the round, if it had one.
    ``trace.untraced_total_s`` reads 0 here: run.py fills it in from the
    run's untraced rounds.
    """
    totals = tracer.totals()
    counters = tracer.counters
    values: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        row = totals.get(layer)
        if field in ("calls", "s", "self_s") and layer in SPAN_NAMES:
            values[name] = float(row[field]) if row else 0.0
        elif name in counters:
            values[name] = float(counters[name])
        else:
            values[name] = 0.0
        if unit == "count":
            values[name] = int(values[name])

    batches = totals.get("fuzzer.make_batches")
    values["fuzzer.make_batches.us_per_update"] = _ratio(
        1e6 * (batches["s"] if batches else 0.0), counters.get("fuzzer.make_batches.updates", 0)
    )
    values["fuzzer.valid_share"] = _ratio(
        counters.get("fuzzer.valid_updates", 0), counters.get("fuzzer.updates_sent", 0)
    )
    values["symbolic.subsume.hit_ratio"] = _ratio(
        counters.get("symbolic.subsume.hits", 0), values["symbolic.subsume.calls"]
    )
    values["symbolic.goal_cache.hit_ratio"] = _ratio(
        counters.get("symbolic.goals_from_cache", 0), counters.get("symbolic.goals_total", 0)
    )
    pool = pool_stats or {}
    values["smt.pool.solvers"] = int(pool.get("solvers", 0))
    values["smt.pool.hit_ratio"] = _ratio(
        pool.get("hits", 0), pool.get("hits", 0) + pool.get("misses", 0)
    )
    values["trace.total_s"] = total_s
    values["trace.spans"] = len(tracer.spans)
    return values
