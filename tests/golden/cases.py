"""Golden-fixture cases: the inputs of the identity tests and their outputs.

Each case function runs one seeded input (a model, a fault, a formula seed)
and returns a JSON-ready description of everything observable about it:
generated packets as deparsed hex, incident tuples, statuses, read-backs,
forwarding verdicts.  ``record.py`` writes those outputs to the checked-in
``*.json`` fixtures; the identity tests recompute them and compare.

The checked-in fixtures were recorded while the repo still carried a second
implementation of each layer: the Tseitin encoder and the activity-only SAT
kernel beside the structural encoder and the modern kernel, linear state
recomputation beside the incremental indices in the oracle and both
switches, and a one-batch-at-a-time fuzz loop beside the windowed
scheduler run at depth 1.  Every case ran on every path and the
recorder asserted that all paths agreed before writing; each fixture's
``paths_agreed`` field names the paths compared (``fuzz_loop.json``:
``sequential`` and ``windowed-depth-1``).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import random
from pathlib import Path
from typing import Dict, List

from repro.bmv2.entries import decode_table_entry
from repro.bmv2.packet import deparse_packet, make_ipv4_packet
from repro.fuzzer.fuzzer import FuzzerConfig, P4Fuzzer
from repro.fuzzer.oracle import Oracle
from repro.p4.p4info import build_p4info
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.p4rt.channel import FaultInjectingChannel, resolve_profile
from repro.p4rt.messages import ReadRequest, Update, UpdateType, WriteRequest, WriteResponse
from repro.p4rt.retry import RetryPolicy, build_resilient_client
from repro.p4rt.status import Status
from repro.smt import Result, Solver, SolverPool
from repro.smt import terms as T
from repro.switch import PinsSwitchStack, ReferenceSwitch
from repro.switch.faults import FAULT_CATALOG, FaultRegistry
from repro.switchv.harness import SwitchVHarness
from repro.symbolic import PacketGenerator
from repro.symbolic.coverage import CoverageMode
from repro.workloads import (
    EntryBuilder,
    baseline_entries,
    crm_fill_updates,
    production_like_entries,
)

from tests.test_smt_compile import _random_bool

GOLDEN_DIR = Path(__file__).resolve().parent

MODELS = ["toy", "tor", "wan", "cerberus"]
FAULTS = sorted(f.name for f in FAULT_CATALOG)

_BUILDERS = {
    "toy": build_toy_program,
    "tor": build_tor_program,
    "wan": build_wan_program,
    "cerberus": build_cerberus_program,
}


@functools.lru_cache(maxsize=None)
def program(model: str):
    return _BUILDERS[model]()


@functools.lru_cache(maxsize=None)
def p4info(model: str):
    return build_p4info(program(model))


def load(name: str) -> dict:
    """The checked-in fixture ``name`` (e.g. ``"smt_differential"``)."""
    with open(GOLDEN_DIR / f"{name}.json") as handle:
        return json.load(handle)["cases"]


def assert_golden(actual, expected) -> None:
    """``actual`` (a case's output) equals its fixture, order included."""
    actual = json.loads(json.dumps(actual))
    assert actual == expected
    assert json.dumps(actual) == json.dumps(expected), "same content, new order"


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def canon(obj) -> str:
    """A complete, deterministic text form of a message dataclass: every
    non-default field by name, bytes as hex (``repr`` of a TableEntry
    omits some fields)."""
    if dataclasses.is_dataclass(obj):
        inner = ", ".join(
            f"{f.name}={canon(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
            if getattr(obj, f.name) != f.default
        )
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, bytes):
        return obj.hex() or "''"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canon(item) for item in obj) + "]"
    if isinstance(obj, enum.Enum):
        return obj.name
    return repr(obj)


def _incidents(log) -> List[list]:
    return [
        [i.kind.value, i.summary, i.expected, i.observed, i.table_id, i.table_name]
        for i in log.incidents
    ]


def _packets(result) -> Dict[str, list]:
    out = {}
    for p in result.packets:
        assert p.goal not in out, f"goal {p.goal} witnessed twice"
        out[p.goal] = [p.profile, p.ingress_port, deparse_packet(p.packet).hex()]
    return out


def _forwarding(observed) -> list:
    return [
        observed.egress_port,
        observed.punted,
        deparse_packet(observed.packet).hex(),
        [[port, deparse_packet(copy).hex()] for port, copy in observed.mirror_copies],
    ]


# ----------------------------------------------------------------------
# SMT pipeline cases (tests/test_smt_differential.py)
# ----------------------------------------------------------------------
def entries_for(model: str):
    info = p4info(model)
    if model == "toy":
        # The toy router has none of the SAI tables baseline_entries fills.
        b = EntryBuilder(info)
        return [
            b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1),
            b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction"),
            b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 8,
                  "set_nexthop_id", {"nexthop_id": 3}),
            b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 16,
                  "set_nexthop_id", {"nexthop_id": 7}),
        ]
    return baseline_entries(info)


def decode_state(info, entries):
    state = {}
    for entry in entries:
        decoded = decode_table_entry(info, entry)
        state.setdefault(decoded.table_name, []).append(decoded)
    return state


def packet_generation(model: str) -> dict:
    """Cold entry-coverage generation on one shipped model."""
    state = decode_state(p4info(model), entries_for(model))
    generator = PacketGenerator(program(model), state, solver_pool=SolverPool())
    result = generator.generate(CoverageMode.ENTRY)
    return {
        "packets": _packets(result),
        "uncovered": list(result.uncovered),
        "goals_covered": result.stats.goals_covered,
        "goals_unsatisfiable": result.stats.goals_unsatisfiable,
    }


def warm_state_sequence() -> list:
    """Two ToR table states solved against one warm pool."""
    info = p4info("tor")
    base = production_like_entries(info, 60, seed=3)
    pool = SolverPool()
    runs = []
    for entries in (base, base[:-8]):  # the second state drops a few entries
        generator = PacketGenerator(
            program("tor"), decode_state(info, entries), solver_pool=pool
        )
        result = generator.generate(CoverageMode.ENTRY)
        runs.append({"packets": _packets(result), "uncovered": list(result.uncovered)})
    return runs


def harness_incidents(model: str) -> dict:
    """One harness data-plane run against the reference switch."""
    harness = SwitchVHarness(
        program(model), ReferenceSwitch(program(model)), solver_pool=SolverPool()
    )
    report = harness.validate_data_plane(entries_for(model))
    stats = report.data_plane
    return {
        "incidents": _incidents(report.incidents),
        "goals_total": stats.goals_total,
        "goals_covered": stats.goals_covered,
        "packets_tested": stats.packets_tested,
    }


def constraint_aware_fuzz(fault: str) -> dict:
    """A constraint-aware ToR campaign (the fuzzer path that queries the
    SMT layer for table-key models) with one catalogued fault."""
    stack = PinsSwitchStack(program("tor"), faults=FaultRegistry([fault]))
    fuzzer = P4Fuzzer(
        p4info("tor"),
        stack,
        FuzzerConfig(num_writes=4, updates_per_write=8, seed=47, constraint_aware=True),
        solver_pool=SolverPool(),
    )
    result = fuzzer.run()
    return {
        "incidents": _incidents(result.incidents),
        "final_entries": [canon(e) for e in result.final_entries],
    }


# ----------------------------------------------------------------------
# State-path cases (tests/test_scale_differential.py)
# ----------------------------------------------------------------------
def _probe_packets(count: int = 24):
    rng = random.Random(404)
    packets = []
    for index in range(count):
        packet = make_ipv4_packet(
            dst_addr=rng.getrandbits(32),
            src_addr=rng.getrandbits(32),
            ttl=rng.choice([1, 33, 64]),
        )
        packets.append((deparse_packet(packet), 1 + index % 4))
    return packets


def _per_table_reads_follow_store(switch, info) -> None:
    """Single-table reads are the full read filtered, in store order."""
    full = switch.read(ReadRequest()).entries
    for tid in info.table_ids():
        expected = tuple(e for e in full if e.table_id == tid)
        assert switch.read(ReadRequest(table_id=tid)).entries == expected, (
            info.tables[tid].name
        )


def reference_campaign(model: str) -> dict:
    """A seeded campaign against the reference switch, then its reads and
    forwarding of a fixed probe stream."""
    switch = ReferenceSwitch(program(model))
    result = P4Fuzzer(
        p4info(model),
        switch,
        FuzzerConfig(num_writes=8, updates_per_write=12, seed=99),
    ).run()
    _per_table_reads_follow_store(switch, p4info(model))
    forwarding = [
        _forwarding(switch.send_packet(payload, ingress_port=port))
        for payload, port in _probe_packets()
    ]
    return {
        "incidents": _incidents(result.incidents),
        "final_entries": [canon(e) for e in result.final_entries],
        "read": [canon(e) for e in switch.read(ReadRequest()).entries],
        "forwarding": forwarding,
        "packet_ins": [canon(p) for p in switch.drain_packet_ins()],
    }


def _direct_updates(switch_kind: str):
    info = p4info("tor")
    if switch_kind == "reference":
        entries = production_like_entries(info, 260, seed=5)
        route_table = info.table_by_name("ipv4_tbl").id
        routes = [e for e in entries if e.table_id == route_table]
        return crm_fill_updates(entries, churn=120, seed=6, victims=routes)
    entries = production_like_entries(info, 180, seed=9)
    return crm_fill_updates(entries, churn=60, seed=10)


def direct_writes(switch_kind: str) -> dict:
    """A production fill + churn replay, one update per write."""
    stack = ReferenceSwitch if switch_kind == "reference" else PinsSwitchStack
    switch = stack(program("tor"))
    assert switch.set_forwarding_pipeline_config(p4info("tor")).ok
    statuses = []
    for update in _direct_updates(switch_kind):
        status = switch.write(WriteRequest(updates=(update,))).statuses[0]
        statuses.append(
            f"{status.code.name}: {status.message}" if status.message
            else status.code.name
        )
    _per_table_reads_follow_store(switch, p4info("tor"))
    return {
        "statuses": statuses,
        "read": [canon(e) for e in switch.read(ReadRequest()).entries],
    }


def fault_catalogue(fault: str) -> dict:
    """A blind ToR campaign against the PINS stack with one fault."""
    stack = PinsSwitchStack(program("tor"), faults=FaultRegistry([fault]))
    result = P4Fuzzer(
        p4info("tor"),
        stack,
        FuzzerConfig(num_writes=5, updates_per_write=10, seed=31),
    ).run()
    return {
        "incidents": _incidents(result.incidents),
        "final_entries": [canon(e) for e in result.final_entries],
    }


def readback_suppression() -> list:
    """Eleven accepted inserts judged against an empty read-back."""
    b = EntryBuilder(p4info("toy"))
    entries = [b.exact("vrf_tbl", {"vrf_id": vid}, "NoAction") for vid in range(1, 12)]
    oracle = Oracle(p4info("toy"))
    updates = [Update(UpdateType.INSERT, e) for e in entries]
    ok = WriteResponse(statuses=tuple(Status() for _ in updates))
    return _incidents(oracle.judge_batch(updates, ok, read_back=[]))


# ----------------------------------------------------------------------
# Fuzz-loop cases (tests/test_pipeline.py, tests/test_feedback.py)
# ----------------------------------------------------------------------
# The depth-1 campaign over a resilient client, clean and under every
# catalogued channel-fault profile.  Every case records the modeled
# transport wait and, under faults, the channel's roll counters: the same
# RPC stream, not only the same verdicts.
FUZZ_LOOP = FuzzerConfig(num_writes=15, updates_per_write=20, seed=21)
FAULT_PROFILES = [None, "drop_request", "drop_response", "duplicate", "delay",
                  "reset", "crash", "chaos"]
# A coverage-guided campaign (the feedback loop judged in submission order).
GUIDED = FuzzerConfig(num_writes=8, updates_per_write=12, seed=17, coverage_guided=True)


def _campaign(result, channel=None) -> dict:
    out = {
        "incidents": _incidents(result.incidents),
        "final_entries": [canon(e) for e in result.final_entries],
        "modified_entries": [canon(e) for e in result.modified_entries],
        "updates_sent": result.updates_sent,
        "writes_sent": result.writes_sent,
        "valid": result.valid_updates,
        "invalid": result.invalid_updates,
        "mutations": result.mutation_counts,
        "transport": dataclasses.asdict(result.transport),
        "transport_wait_seconds": result.transport_wait_seconds,
    }
    if channel is not None:
        out["channel"] = dataclasses.asdict(channel.stats)
    if result.coverage is not None:
        out["covered_keys"] = result.coverage.covered_keys
        out["coverage_samples"] = result.coverage.samples
    return out


def fuzz_loop(profile, read_back_every: int = 1, max_attempts: int = 6) -> dict:
    """A depth-1 ToR campaign through the retry client, over a fault
    channel seeded with ``profile`` (None: no channel).  A low
    ``max_attempts`` makes the client abandon RPCs: transport flakes."""
    switch = stack = PinsSwitchStack(program("tor"))
    channel = None
    if profile is not None:
        channel = switch = FaultInjectingChannel(stack, resolve_profile(profile, seed=13))
    config = dataclasses.replace(FUZZ_LOOP, read_back_every=read_back_every)
    client = build_resilient_client(switch, retry_policy=RetryPolicy(max_attempts=max_attempts))
    result = P4Fuzzer(p4info("tor"), client, config).run()
    return _campaign(result, channel)


def guided_fuzz_loop() -> dict:
    """The coverage-guided ToR campaign, with its coverage series."""
    result = P4Fuzzer(
        p4info("tor"), PinsSwitchStack(program("tor")), GUIDED, model=program("tor")
    ).run()
    return _campaign(result)


# ----------------------------------------------------------------------
# Random-formula verdicts (tests/test_smt_encoders.py)
# ----------------------------------------------------------------------
FORMULA_SEEDS = range(12)
FORMULAS_PER_SEED = 12


def random_formulas(seed: int):
    """The seeded wide-width formulas: (formula, simplify_terms) pairs."""
    rng = random.Random(7000 + seed)
    out = []
    for _ in range(FORMULAS_PER_SEED):
        formula = _random_bool(rng, depth=4)
        out.append((formula, bool(rng.getrandbits(1))))
    return out


def formula_verdicts(seed: int) -> list:
    """SAT/UNSAT per formula; every SAT model is checked by evaluation."""
    verdicts = []
    for formula, simplify_terms in random_formulas(seed):
        s = Solver(simplify_terms=simplify_terms)
        s.add(formula)
        result = s.check()
        if result is Result.SAT:
            assert T.evaluate(formula, dict(s.model())) == 1, (
                f"model falsifies {formula!r}"
            )
        verdicts.append(result.value)
    return verdicts
