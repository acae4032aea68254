"""State-path identity: the incremental oracle and switches against fixtures.

The production-scale bugfixes (per-table counters, reverse-reference
indices, table lookup indices, decode caches, per-table read views) must
keep producing the outputs recorded in ``tests/golden/scale_differential.json``:
seeded random campaigns, direct write/read/packet sequences, and the whole
fault catalogue.  The fixtures were recorded while the linear
recomputation paths were still live, with both paths asserted to agree.

Regenerate (deliberately) with ``python -m tests.golden.record --force``.
"""

import random

import pytest

from repro.bmv2.interpreter import Interpreter, SeededHash
from repro.bmv2.packet import make_ipv4_packet
from repro.fuzzer.oracle import Oracle
from repro.p4rt.messages import (
    ReadRequest,
    Update,
    UpdateType,
    WriteRequest,
    WriteResponse,
)
from repro.p4rt.status import Status
from repro.switch import ReferenceSwitch
from repro.switchv.report import IncidentKind
from repro.workloads import EntryBuilder, production_like_entries

from tests.golden import cases as C

GOLDEN = C.load("scale_differential")


@pytest.mark.parametrize("model", C.MODELS)
def test_fuzz_campaign_identity_reference_switch(model):
    """Seeded campaigns against the reference switch: incidents, adopted
    state, reads (single-table reads are the full read filtered), and
    forwarding of a fixed probe stream."""
    C.assert_golden(C.reference_campaign(model), GOLDEN["reference_campaign"][model])


def test_direct_write_status_identity():
    """A production fill + churn replay: every per-update status (code and
    message) and the final read of the reference switch."""
    C.assert_golden(C.direct_writes("reference"), GOLDEN["direct_writes"]["reference"])


def test_direct_write_status_identity_pins_stack():
    C.assert_golden(
        C.direct_writes("pins_stack"), GOLDEN["direct_writes"]["pins_stack"]
    )


@pytest.mark.parametrize("fault", C.FAULTS)
def test_fault_catalogue_identity(fault):
    """Every catalogued fault produces the recorded incidents and adopted
    state — the index mirrors the store, bugs included."""
    C.assert_golden(C.fault_catalogue(fault), GOLDEN["fault_catalogue"][fault])


def test_interpreter_index_matches_linear_scan(tor_program, tor_p4info):
    """The table index yields the same winner as the linear scan on every
    probe — including under the seeded simulator fault knobs."""
    switch = ReferenceSwitch(tor_program)
    assert switch.set_forwarding_pipeline_config(tor_p4info).ok
    for entry in production_like_entries(tor_p4info, 400, seed=21):
        switch.write(WriteRequest(updates=(Update(UpdateType.INSERT, entry),)))
    state = C.decode_state(tor_p4info, switch.read(ReadRequest()).entries)
    assert any(len(v) > Interpreter.INDEX_MIN_ENTRIES for v in state.values())

    rng = random.Random(77)
    for optional_zero, lpm_short in [(False, False), (True, False), (False, True)]:
        indexed = Interpreter(
            tor_program,
            state,
            SeededHash(seed=3),
            optional_absent_matches_zero=optional_zero,
            lpm_shortest_prefix_wins=lpm_short,
        )
        linear = Interpreter(
            tor_program,
            state,
            SeededHash(seed=3),
            optional_absent_matches_zero=optional_zero,
            lpm_shortest_prefix_wins=lpm_short,
        )
        linear.INDEX_MIN_ENTRIES = 10**9  # instance override: never index
        for _ in range(40):
            packet = make_ipv4_packet(
                dst_addr=rng.getrandbits(32),
                src_addr=rng.getrandbits(32),
                ttl=rng.choice([1, 33, 64]),
            )
            a = indexed.run(packet.copy(), ingress_port=1)
            b = linear.run(packet.copy(), ingress_port=1)
            assert a.behavior_signature() == b.behavior_signature()
            assert a.trace.table_hits == b.trace.table_hits
        if not (optional_zero or lpm_short):
            # (The fault knobs can gate routing entirely, in which case the
            # big table is never applied and no index is ever needed.)
            assert indexed._index_cache, "indexed interpreter never built an index"


# ----------------------------------------------------------------------
# Regression tests for the satellite correctness fixes
# ----------------------------------------------------------------------


def _readback_kinds(log):
    return [
        i.summary for i in log.incidents if i.kind is IncidentKind.READBACK_MISMATCH
    ]


def test_readback_suppression_is_reported(toy_p4info):
    """More than five missing/extra read-back entries used to be silently
    capped at five incidents; now one summarizing incident carries the
    suppressed count."""
    b = EntryBuilder(toy_p4info)
    entries = [b.exact("vrf_tbl", {"vrf_id": vid}, "NoAction") for vid in range(1, 10)]

    oracle = Oracle(toy_p4info)
    updates = [Update(UpdateType.INSERT, e) for e in entries]
    ok = WriteResponse(statuses=tuple(Status() for _ in updates))
    log = oracle.judge_batch(updates, ok, read_back=[])
    summaries = _readback_kinds(log)
    # The per-entry incidents share one summary, so the log dedups them;
    # without the summarizing incident the total count would be invisible.
    assert "entry missing from read-back of vrf_tbl" in summaries
    assert "4 further entries missing from read-back (suppressed)" in summaries

    oracle = Oracle(toy_p4info)
    log = oracle.judge_batch([], WriteResponse(statuses=()), read_back=entries)
    summaries = _readback_kinds(log)
    assert "unexpected entry in read-back of vrf_tbl" in summaries
    assert "4 further unexpected entries in read-back (suppressed)" in summaries
    # The observed state is adopted in full regardless of suppression.
    assert len(oracle.expected) == len(entries)


def test_readback_suppression_identity_across_modes():
    C.assert_golden(C.readback_suppression(), GOLDEN["readback_suppression"]["toy"])


def test_seeded_hash_fields_cannot_alias():
    """Minimal-length framing made distinct field tuples collide (e.g.
    src=0x0102,dst=0x03 vs src=0x01,dst=0x0203); declared-width framing
    keeps them apart."""
    h = SeededHash(seed=1, fields=("ipv4.src_addr", "ipv4.dst_addr"))
    a = h.value("x", {"ipv4.src_addr": 0x0102, "ipv4.dst_addr": 0x03}, 32)
    b = h.value("x", {"ipv4.src_addr": 0x01, "ipv4.dst_addr": 0x0203}, 32)
    assert a != b

    # Unknown-width fields fall back to length-prefixed framing, which is
    # alias-free too.
    h = SeededHash(seed=1, fields=("meta.a", "meta.b"))
    a = h.value("x", {"meta.a": 0x0102, "meta.b": 0}, 32)
    b = h.value("x", {"meta.a": 0x01, "meta.b": 0x02}, 32)
    assert a != b


def test_seeded_hash_binds_widths_from_program(tor_program):
    h = SeededHash(seed=1, fields=("meta.vrf_id",))
    assert "meta.vrf_id" not in h.field_widths
    h.bind_widths(tor_program.field_width)
    assert h.field_widths["meta.vrf_id"] == tor_program.field_width("meta.vrf_id")


def test_per_table_read_order_preserved(tor_program, tor_p4info):
    """Single-table reads keep store order: MODIFY stays in place,
    delete + re-insert moves to the back."""
    b = EntryBuilder(tor_p4info)
    entries = {vid: b.exact("vrf_tbl", {"vrf_id": vid}, "NoAction") for vid in (4, 5, 6)}
    switch = ReferenceSwitch(tor_program)
    assert switch.set_forwarding_pipeline_config(tor_p4info).ok
    for kind, vid in [
        (UpdateType.INSERT, 4),
        (UpdateType.INSERT, 5),
        (UpdateType.INSERT, 6),
        # Modify the middle entry (same action: position must not change),
        # then delete + re-insert the first (must move to the back).
        (UpdateType.MODIFY, 5),
        (UpdateType.DELETE, 4),
        (UpdateType.INSERT, 4),
    ]:
        update = Update(kind, entries[vid])
        assert switch.write(WriteRequest(updates=(update,))).statuses[0].ok

    tid = tor_p4info.table_by_name("vrf_tbl").id
    per_table = switch.read(ReadRequest(table_id=tid)).entries
    assert per_table == (entries[5], entries[6], entries[4])
    full = switch.read(ReadRequest()).entries
    assert per_table == tuple(e for e in full if e.table_id == tid)
