"""CNF kernel benchmark: clause economy and solve effort per shipped model.

Packet generation's cost is dominated by the SMT layer, and the SMT
layer's cost is dominated by the CNF it emits.  The structural encoder
(:class:`repro.smt.bitblast.StructuralBitBlaster`) attacks the formula
*before* the solver sees it — constant short-circuiting at the literal
layer, gate-level structural hashing, and polarity-aware
Plaisted–Greenbaum encoding — while the CDCL kernel
(:class:`repro.smt.sat.SatSolver`) attacks what remains with blocking
literals, dedicated binary implication lists, on-the-fly learned-clause
minimization, and LBD-based retention.

The table measures both on cold entry-coverage generation across every
shipped model: emitted clauses/variables (encoder economy),
propagations/conflicts (kernel effort), and wall clock.

Gates: the emitted-clause and propagation counts of every model stay at
or below the values pinned below.  Both are deterministic.  They were
recorded when the structural encoder and the modern kernel replaced the
Tseitin encoder and the activity-only kernel, which emitted 22.7k-23.2k
clauses and 40k-41k propagations on each SAI model.  On ToR the clause pin
sits 84% below that retired pipeline, so it is stricter than the gate it
replaces (>=30% fewer clauses than that pipeline, measured live); the
propagation pin (73% below) stands in for that gate's >=1.5x speed ratio
as a deterministic measure of kernel effort.  Wall clock is reported,
never gated.
"""

import time

from conftest import print_table

from repro.bmv2.entries import decode_table_entry
from repro.p4.p4info import build_p4info
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.symbolic import PacketGenerator
from repro.symbolic.coverage import CoverageMode
from repro.workloads import EntryBuilder, baseline_entries

BUILDERS = [
    build_toy_program,
    build_tor_program,
    build_wan_program,
    build_cerberus_program,
]

# Program name -> (emitted clauses, SAT propagations) ceilings.
PINS = {
    "toy_router": (333, 1785),
    "sai_tor": (3705, 11182),
    "sai_wan": (3711, 10933),
    "cerberus": (3605, 11041),
}


def _decode_state(p4info, entries):
    state = {}
    for entry in entries:
        decoded = decode_table_entry(p4info, entry)
        state.setdefault(decoded.table_name, []).append(decoded)
    return state


def _state_for(program, p4info):
    if program.name == "toy_router":
        b = EntryBuilder(p4info)
        entries = [
            b.ternary("pre_ingress_tbl", {}, "set_vrf", {"vrf_id": 1}, priority=1),
            b.exact("vrf_tbl", {"vrf_id": 1}, "NoAction"),
            b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 8,
                  "set_nexthop_id", {"nexthop_id": 3}),
            b.lpm("ipv4_tbl", {"vrf_id": 1}, "ipv4_dst", 0x0A000000, 16,
                  "set_nexthop_id", {"nexthop_id": 7}),
        ]
    else:
        entries = baseline_entries(p4info)
    return _decode_state(p4info, entries)


def _cold_run(program, state):
    start = time.perf_counter()
    result = PacketGenerator(program, state).generate(CoverageMode.ENTRY)
    return time.perf_counter() - start, result


def test_cnf_kernel_clause_economy_and_speed(scale):
    """Cold entry-coverage generation per shipped model.

    Timing takes the best of three runs per model so the published table
    is not a scheduler hiccup; the counts are exact and deterministic.
    """
    rows = []
    over = []
    for build in BUILDERS:
        program = build()
        state = _state_for(program, build_p4info(program))
        seconds, result = min(
            (_cold_run(program, state) for _ in range(3)), key=lambda run: run[0]
        )
        stats = result.stats
        clause_pin, prop_pin = PINS[program.name]
        rows.append(
            (program.name, stats.goals_total, stats.cnf_clauses, clause_pin,
             stats.cnf_vars, stats.sat_propagations, prop_pin,
             stats.sat_conflicts, stats.gates_shared, f"{seconds:.3f}s")
        )
        if stats.cnf_clauses > clause_pin:
            over.append(f"{program.name}: {stats.cnf_clauses} clauses > pin {clause_pin}")
        if stats.sat_propagations > prop_pin:
            over.append(
                f"{program.name}: {stats.sat_propagations} propagations > pin {prop_pin}"
            )

    print_table(
        f"CNF kernel: cold entry-coverage generation ({scale.name} scale)",
        ["Model", "Goals", "Clauses", "Clause pin", "Vars", "Props", "Prop pin",
         "Conflicts", "Gates shared", "Time"],
        rows,
    )
    assert not over, "; ".join(over)
