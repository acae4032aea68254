"""The benchmark's closed-loop workloads, one round each.

Each workload has one client that waits for every reply before it sends
the next request, and uses the harness defaults (``workers=1``,
``pipeline_depth=1``).  A round builds its inputs from the seed variant,
sets itself up once, runs its timed part once, and returns an
:class:`Outcome`: the end-to-end metrics, the outputs that :mod:`expected`
compares with the recorded ones, and the operations it attempted and saw
fail.

``run.py`` runs every round in a fresh process.  The program keeps
module-level caches (hash-consed terms, compiled terms, simplifier
results) that nothing clears, so a second round in the same process
would skip work that a nightly run pays every time.

The sizes are fixed per workload (``FULL``); the smoke tests use
``TINY``.  ``round_s`` is about how long one round's timed part takes;
``run.py`` runs ``seconds / round_s`` rounds, and times the set-up alone
in further fresh processes (``timed_setup``).  The outputs of a round do
not depend on ``seconds``.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bmv2.entries import decode_table_entry
from repro.bmv2.packet import deparse_packet, make_ipv4_packet
from repro.bmv2.simulator import Bmv2Simulator
from repro.fuzzer import FuzzerConfig
from repro.p4.p4info import build_p4info
from repro.p4.programs import build_tor_program
from repro.p4rt.messages import ReadRequest
from repro.switch import FaultRegistry, PinsSwitchStack
from repro.switchv import SwitchVHarness
from repro.symbolic.cache import PacketCache, cache_key
from repro.symbolic.coverage import CoverageMode
from repro.workloads import production_like_entries

# Seeds select one of this many recorded input variants (seed mod VARIANTS),
# so every run can be checked against recorded outputs.
VARIANTS = 16

# The seed of examples/validate_tor.py.  tor_cycle's fuzz campaign keeps
# it, so --seed varies only the production entries: the churn replay
# inside validate() re-solves goals over the state the campaign leaves,
# and its cost swings several-fold between campaign seeds (see README.md).
EXAMPLE_SEED = 11

FULL = {
    "tor_cycle": {"entries": 120, "writes": 50, "updates_per_write": 30, "round_s": 12},
    "fuzz_teardown": {"writes": 80, "updates_per_write": 50, "probes": 300, "round_s": 14},
}
TINY = {
    "tor_cycle": {"entries": 30, "writes": 5, "updates_per_write": 10},
    "fuzz_teardown": {"writes": 4, "updates_per_write": 10, "probes": 20},
}


@dataclass
class Outcome:
    """What one round measured and produced."""

    metrics: Dict[str, float]
    # Outputs compared with the recorded ones (see expected.py), and how
    # many operations each output covers.
    observed: Dict[str, object]
    weights: Dict[str, int]
    attempted: int
    # Operations that raised or reported an incident on the fault-free stack.
    failures: List[str] = field(default_factory=list)
    # The figures under their workload-specific names, for the summary.
    named: Dict[str, tuple] = field(default_factory=dict)
    pool_stats: Optional[Dict[str, int]] = None


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_summary(samples: List[float]) -> tuple:
    """(p50, highest percentile with at least ten samples beyond it, its
    label, sample count); the max stands in when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    p50 = statistics.median(ordered)
    for pct in (99.9, 99, 90):
        if n * (100 - pct) / 100 >= 10:
            return p50, ordered[min(n - 1, int(n * pct / 100))], f"p{pct:g}", n
    return p50, ordered[-1], "max", n


def timed_setup(name: str, variant: int, size: dict):
    """The workload's set-up objects and how long building them took."""
    gc.collect()
    start = time.perf_counter()
    result = SETUPS[name](variant, size)
    return result, time.perf_counter() - start


def _generated_packets(harness: SwitchVHarness, entries) -> List:
    """The packets the last cacheable generation for ``entries`` produced."""
    state: Dict[str, list] = {}
    for entry in entries:
        decoded = decode_table_entry(harness.p4info, entry)
        state.setdefault(decoded.table_name, []).append(decoded)
    key = cache_key(harness.model, state, CoverageMode.ENTRY, harness.valid_ports)
    result = harness.cache.lookup(key)
    return [] if result is None else result.packets


def _packet_digest(packets) -> str:
    return digest(
        (p.goal, p.profile, p.ingress_port, deparse_packet(p.packet).hex()) for p in packets
    )


def _incident_lines(report, label: str) -> List[str]:
    return [f"{label}: [{i.source}] {i.kind.value}: {i.summary}" for i in report.incidents]


@contextmanager
def _active(tracer):
    """Tracing on for the timed part only."""
    if tracer is None:
        yield
        return
    from layers import TARGETS

    tracer.install(TARGETS)
    try:
        yield
    finally:
        tracer.uninstall()


class _SwitchClock:
    """Forwards to a switch and stamps when each Write RPC is sent.

    The loop is closed, so the gap between two consecutive stamps is one
    round: the request, the reply, and the judging before the next one.
    """

    def __init__(self, switch) -> None:
        self._switch = switch
        self.writes: List[float] = []

    def write(self, request):
        self.writes.append(time.perf_counter())
        return self._switch.write(request)

    def __getattr__(self, name):
        return getattr(self._switch, name)


def _gaps(stamps: List[float]) -> List[float]:
    return [b - a for a, b in zip(stamps, stamps[1:])]


# ----------------------------------------------------------------------
# tor_cycle: one full SwitchV cycle
# ----------------------------------------------------------------------
def _tor_cycle_setup(variant: int, size: dict):
    model = build_tor_program()
    p4info = build_p4info(model)
    entries = production_like_entries(p4info, total=size["entries"], seed=variant)
    harness = SwitchVHarness(model, PinsSwitchStack(model), cache=PacketCache())
    return harness, entries


def tor_cycle(variant: int, size: dict, tracer=None) -> Outcome:
    (harness, entries), setup_s = timed_setup("tor_cycle", variant, size)
    config = FuzzerConfig(
        num_writes=size["writes"], updates_per_write=size["updates_per_write"],
        seed=EXAMPLE_SEED,
    )
    with _active(tracer):
        start = time.perf_counter()
        report = harness.validate(entries, config)
        cycle_s = time.perf_counter() - start

    dp, fuzz = report.data_plane, report.fuzz
    # The update rate is over the whole cycle: its phases are too short
    # (0.5-3 s) to time apart steadily on a shared host; the trace splits
    # the cycle by layer.
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "total_s": cycle_s,
            "updates_per_s": fuzz.updates_sent / cycle_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        observed={
            "incidents": report.incidents.count,
            "goals": [dp.goals_covered, dp.goals_total],
            "packets": _packet_digest(_generated_packets(harness, entries)),
            "fuzz": [fuzz.updates_sent, fuzz.valid_updates, fuzz.invalid_updates],
        },
        weights={"incidents": 0, "goals": dp.goals_total, "packets": dp.goals_total,
                 "fuzz": fuzz.updates_sent},
        attempted=dp.goals_total + fuzz.updates_sent,
        failures=_incident_lines(report, "cycle"),
        named={"cycle_s": (cycle_s, "s"),
               "goals_covered": (f"{dp.goals_covered}/{dp.goals_total}", "goals")},
        pool_stats=harness.solver_pool.stats,
    )


# ----------------------------------------------------------------------
# fuzz_teardown: control-plane campaign, then clear the switch
# ----------------------------------------------------------------------
def _probe_packets(rng: random.Random, count: int) -> List:
    return [
        make_ipv4_packet(
            dst_addr=rng.getrandbits(32),
            ttl=rng.randint(2, 64),
            dscp=rng.randrange(64),
            l4_dst_port=rng.randrange(1, 65536),
        )
        for _ in range(count)
    ]


def _fuzz_teardown_setup(_variant: int, _size: dict):
    model = build_tor_program()
    clock = _SwitchClock(PinsSwitchStack(model))
    return SwitchVHarness(model, clock), clock


def fuzz_teardown(variant: int, size: dict, tracer=None) -> Outcome:
    (harness, clock), setup_s = timed_setup("fuzz_teardown", variant, size)
    config = FuzzerConfig(
        num_writes=size["writes"], updates_per_write=size["updates_per_write"], seed=variant
    )
    probes = _probe_packets(random.Random(variant), size["probes"])
    empty = Bmv2Simulator(harness.model, {})
    failures: List[str] = []
    with _active(tracer):
        start = time.perf_counter()
        report = harness.validate_control_plane(config)
        campaign_s = time.perf_counter() - start
        left = len(clock.read(ReadRequest(table_id=0)).entries)
        start = time.perf_counter()
        harness.clear_switch()
        teardown_s = time.perf_counter() - start
        remaining = len(clock.read(ReadRequest(table_id=0)).entries)
    # The emptied switch must forward like an empty pipeline: stale
    # hardware state left by the teardown shows up here.  Untimed.
    for index, packet in enumerate(probes):
        port = 1 + index % 8
        observed = clock.send_packet(deparse_packet(packet), port)
        if not empty.admits(packet, port, observed.behavior_signature()):
            failures.append(f"probe {index}: not admitted on the emptied switch")
    clock.drain_packet_ins()
    fuzz = report.fuzz
    failures += _incident_lines(report, "campaign")
    if remaining:
        failures.append(f"teardown left {remaining} entries")
    total_s = campaign_s + teardown_s
    # The campaign writes first, so its Write RPCs are the first ones stamped.
    p50, tail, tail_label, n = percentile_summary(_gaps(clock.writes[:fuzz.writes_sent]))
    updates_per_s = fuzz.updates_sent / campaign_s
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "total_s": total_s,
            "updates_per_s": updates_per_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        observed={
            "fuzz": [fuzz.updates_sent, fuzz.valid_updates, fuzz.invalid_updates],
            "entries_after_campaign": left,
            "entries_after_teardown": remaining,
        },
        # A non-empty teardown is already a failure above.
        weights={"fuzz": fuzz.updates_sent, "entries_after_campaign": 1,
                 "entries_after_teardown": 0},
        attempted=fuzz.updates_sent + 1 + len(probes),
        failures=failures,
        named={"fuzz_updates_per_s": (updates_per_s, "1/s"),
               "teardown_s": (teardown_s, "s", f"{left} entries"),
               "write_round_p50_s": (p50, "s", f"n={n}"),
               f"write_round_{tail_label}_s": (tail, "s", f"n={n}")},
        pool_stats=harness.solver_pool.stats,
    )


WORKLOADS = {
    "tor_cycle": tor_cycle,
    "fuzz_teardown": fuzz_teardown,
}
SETUPS = {
    "tor_cycle": _tor_cycle_setup,
    "fuzz_teardown": _fuzz_teardown_setup,
}


# ----------------------------------------------------------------------
# Seeded-fault sentinel
# ----------------------------------------------------------------------
SENTINEL_FAULTS = (
    ("modify_keeps_old_params", "p4-fuzzer"),
    ("dscp_remark_zero", "p4-symbolic"),
)


def sentinel() -> Dict[str, int]:
    """Incidents SwitchV reports with each sentinel fault enabled.

    One fault the paper credits to p4-fuzzer and one credited to
    p4-symbolic, each at a small size; a benchmark whose harness stops
    judging reports 0 for one of them.
    """
    model = build_tor_program()
    found = {}
    for fault, tool in SENTINEL_FAULTS:
        harness = SwitchVHarness(model, PinsSwitchStack(model, faults=FaultRegistry([fault])))
        if tool == "p4-fuzzer":
            report = harness.validate_control_plane(
                FuzzerConfig(num_writes=20, updates_per_write=10, seed=3)
            )
        else:
            report = harness.validate_data_plane(
                production_like_entries(harness.p4info, total=20, seed=3)
            )
        found[fault] = report.incidents.count
    return found
