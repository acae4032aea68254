"""Production-scale state benchmark: updates/sec and packets/sec vs size.

The paper's workloads top out at 1314 entries; production switches carry
route tables into the hundreds of thousands and sit at capacity.  Before
the incremental-state fixes, the oracle and both switch implementations
recomputed per-table counts, referenceable-value sets, and orphan checks
from the full store on *every* update — O(N) per update, O(N^2) per
campaign — and the interpreter scanned every installed entry per packet.

This is the standing regression gate for those fixes.  Per tier it
measures, on pre-seeded states of 1k / 100k (and 1M with
``REPRO_MILLION=1``) entries:

* switch updates/sec over a CRM-style churn probe (delete + re-insert at
  the capacity boundary);
* oracle judged updates/sec over the same probe;
* packets/sec through the interpreter's table indices.

Gates: per-update (switch and oracle) and per-packet cost must stay
near-flat from the 1k tier to the top tier — a bounded growth factor, not
O(N).  A re-introduced O(N) scan on any of the three paths costs ~100x
more per operation at 100k than at 1k and fails its gate.
"""

import os
import time

from conftest import print_table

from repro.bmv2.packet import deparse_packet, make_ipv4_packet
from repro.fuzzer.oracle import Oracle
from repro.p4.programs import build_tor_program
from repro.p4rt.messages import WriteRequest, WriteResponse
from repro.p4rt.status import Status
from repro.switch import ReferenceSwitch
from repro.workloads import crm_fill_updates, production_like_entries
from repro.workloads.scale import production_scale_program

# Growth allowance for "near-flat": per-update / per-packet cost at the top
# tier may be at most this multiple of the 1k-tier cost.  The size ratio is
# 20x-1000x, so anything superlinear blows through this immediately while
# cache effects on giant dicts stay comfortably inside it.
FLATNESS_BOUND = 4.0

CHURN_PROBE = 400  # delete + re-insert pairs
PACKET_PROBE = 150


def _tiers():
    tiers = [1_000]
    if os.environ.get("REPRO_BENCH_SCALE", "small") == "paper":
        tiers.append(100_000)
    else:
        tiers.append(20_000)
    if os.environ.get("REPRO_MILLION"):
        tiers.append(1_000_000)
    return tiers


def _workload(total):
    program = build_tor_program()
    scaled, p4info = production_scale_program(program, total + 1024)
    entries = production_like_entries(p4info, total, seed=3)
    route_table = p4info.table_by_name("ipv4_tbl").id
    routes = [e for e in entries if e.table_id == route_table]
    return scaled, p4info, entries, routes


def _probe_updates(routes, count, seed):
    return crm_fill_updates([], churn=count, seed=seed, victims=routes)


def _seeded_switch(program, p4info, entries):
    switch = ReferenceSwitch(program)
    assert switch.set_forwarding_pipeline_config(p4info).ok
    assert switch.preload(entries) == len(entries)
    return switch


def _updates_per_second(switch, updates):
    start = time.perf_counter()
    for update in updates:
        status = switch.write(WriteRequest(updates=(update,))).statuses[0]
        assert status.ok, status.message
    elapsed = time.perf_counter() - start
    return len(updates) / elapsed


def _oracle_updates_per_second(p4info, entries, updates):
    oracle = Oracle(p4info)
    oracle.resync(entries)
    ok = WriteResponse(statuses=(Status(),))
    start = time.perf_counter()
    for update in updates:
        oracle.judge_batch([update], ok, read_back=None)
    elapsed = time.perf_counter() - start
    return len(updates) / elapsed


def _packets_per_second(switch):
    payloads = [
        deparse_packet(make_ipv4_packet(dst_addr=0x0A000000 + i * 7919))
        for i in range(PACKET_PROBE)
    ]
    switch.send_packet(payloads[0], ingress_port=1)  # warm the indices
    start = time.perf_counter()
    for index, payload in enumerate(payloads):
        switch.send_packet(payload, ingress_port=1 + index % 4)
    elapsed = time.perf_counter() - start
    switch.drain_packet_ins()
    return len(payloads) / elapsed


def test_million_entry_state_table():
    tiers = _tiers()
    rows = []
    per_op = {"switch update": {}, "oracle update": {}, "packet": {}}
    for total in tiers:
        program, p4info, entries, routes = _workload(total)

        switch = _seeded_switch(program, p4info, entries)
        upd_s = _updates_per_second(switch, _probe_updates(routes, CHURN_PROBE, seed=4))
        pkt_s = _packets_per_second(switch)
        oracle_upd_s = _oracle_updates_per_second(
            p4info, entries, _probe_updates(routes, CHURN_PROBE, seed=5)
        )

        per_op["switch update"][total] = 1.0 / upd_s
        per_op["oracle update"][total] = 1.0 / oracle_upd_s
        per_op["packet"][total] = 1.0 / pkt_s
        rows.append(
            [f"{total:,}", f"{upd_s:,.0f}", f"{oracle_upd_s:,.0f}", f"{pkt_s:,.0f}"]
        )

    print_table(
        "Production-scale state (ToR model, pre-seeded, CRM churn probe)",
        ["entries", "switch upd/s", "oracle upd/s", "pkt/s"],
        rows,
    )

    base = tiers[0]
    top = tiers[-1]
    # Near-flat per-operation cost across a 20x-1000x size span.
    for name, costs in per_op.items():
        assert costs[top] <= FLATNESS_BOUND * costs[base], (
            f"per-{name} cost grew {costs[top] / costs[base]:.1f}x "
            f"from {base:,} to {top:,} entries"
        )
