"""The windowed fuzzing loop's soundness bar.

`pipeline_depth=1` must reproduce the recorded campaigns of
``tests/golden/fuzz_loop.json`` byte for byte — same incident stream,
counters, final state, modeled transport waits and fault-channel rolls —
across every fault profile.  Those campaigns were recorded while a
separate one-batch-at-a-time loop still existed, and both loops agreed on
every one.  At depth > 1 pipelining may change *when* the oracle judges,
never *what* it concludes: on a clean transport the model-incident
dedup-key set is unchanged, and under faults there are still zero
phantoms.
"""

import dataclasses
import threading

import pytest

from repro.fuzzer import FuzzerConfig, P4Fuzzer, WriteScheduler
from repro.fuzzer.batching import make_batches
from repro.p4rt.channel import ChannelStats, FaultInjectingChannel, resolve_profile
from repro.p4rt.messages import Update, UpdateType
from repro.p4rt.retry import build_resilient_client
from repro.switch import PinsSwitchStack
from tests.golden import cases as C

CONFIG = C.FUZZ_LOOP
PROFILES = C.FAULT_PROFILES
GOLDEN = C.load("fuzz_loop")


def _run(tor_program, tor_p4info, profile_name, **overrides):
    return _run_on(PinsSwitchStack(tor_program), tor_p4info, profile_name, **overrides)


def _run_on(stack, tor_p4info, profile_name, **overrides):
    switch = stack
    channel = None
    if profile_name is not None:
        channel = FaultInjectingChannel(stack, resolve_profile(profile_name, seed=13))
        switch = channel
    client = build_resilient_client(switch)
    config = dataclasses.replace(CONFIG, **overrides)
    fuzzer = P4Fuzzer(tor_p4info, client, config)
    return fuzzer.run(), channel


def _fingerprint(result):
    """What two runs that should conclude alike must agree on."""
    return {
        "incident_keys": [i.dedup_key() for i in result.incidents],
        "final_state": sorted(e.match_key() for e in result.final_entries),
        "modified": sorted(e.match_key() for e in result.modified_entries),
        "updates_sent": result.updates_sent,
        "writes_sent": result.writes_sent,
        "valid": result.valid_updates,
        "invalid": result.invalid_updates,
        "mutations": result.mutation_counts,
        "transport": dataclasses.asdict(result.transport),
    }


# ----------------------------------------------------------------------
# Depth 1: byte-identical to the recorded campaigns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile", PROFILES)
def test_depth1_pipeline_is_byte_identical_to_sequential(profile):
    C.assert_golden(C.fuzz_loop(profile), GOLDEN["fault_profiles"][str(profile)])
    if profile is not None:
        # The recorded RPC stream really was faulted.
        channel = GOLDEN["fault_profiles"][profile]["channel"]
        assert ChannelStats(**channel).faults_injected > 0


def test_depth1_pipeline_identical_with_sparse_read_backs():
    C.assert_golden(
        C.fuzz_loop("chaos", read_back_every=3), GOLDEN["sparse_read_backs"]["chaos"]
    )


def test_depth1_identical_when_retries_run_out():
    """Abandoned writes and reads (transport flakes) adopt read-backs
    exactly as recorded."""
    expected = GOLDEN["exhausted_retries"]["chaos"]
    assert expected["transport"]["flakes"] > 0
    C.assert_golden(C.fuzz_loop("chaos", max_attempts=1), expected)


def test_depth1_sends_on_the_calling_thread(tor_program, tor_p4info, monkeypatch):
    """Depth 1 has nothing to overlap: every write runs on the campaign's
    own thread, and no thread is started at all."""
    writers = set()
    started = []

    class Recording(PinsSwitchStack):
        def write(self, request):
            writers.add(threading.get_ident())
            return super().write(request)

    real_start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    result, _ = _run_on(Recording(tor_program), tor_p4info, "chaos")
    assert writers == {threading.get_ident()}
    assert started == []
    assert result.pipeline.depth == 1
    assert result.pipeline.max_in_flight == 1
    assert result.pipeline.windows == result.writes_sent
    assert result.pipeline.read_backs == result.writes_sent
    assert result.pipeline.read_backs_coalesced == 0
    assert result.pipeline.conflict_stalls == 0


# ----------------------------------------------------------------------
# Depth > 1: pipelining may not change conclusions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("depth", [2, 4, 8])
def test_deep_pipeline_clean_transport_changes_no_conclusions(
    tor_program, tor_p4info, depth
):
    sequential, _ = _run(tor_program, tor_p4info, None)
    pipelined, _ = _run(tor_program, tor_p4info, None, pipeline_depth=depth)

    base_keys = {i.dedup_key() for i in sequential.incidents.model_only()}
    deep_keys = {i.dedup_key() for i in pipelined.incidents.model_only()}
    assert deep_keys == base_keys, pipelined.incidents.summary_lines()
    # A healthy stack: no transport ledger either.
    assert not pipelined.transport.any_activity
    assert pipelined.pipeline.max_in_flight > 1
    assert pipelined.pipeline.read_backs_coalesced > 0


@pytest.mark.parametrize("profile", ["drop_response", "delay", "chaos"])
def test_deep_pipeline_stays_phantom_free_under_faults(tor_program, tor_p4info, profile):
    clean, _ = _run(tor_program, tor_p4info, None)
    deep, channel = _run(tor_program, tor_p4info, profile, pipeline_depth=4)

    assert channel.stats.faults_injected > 0
    base_keys = {i.dedup_key() for i in clean.incidents.model_only()}
    assert {
        i.dedup_key() for i in deep.incidents.model_only()
    } == base_keys, deep.incidents.summary_lines()


@pytest.mark.parametrize(
    "fault", ["modify_keeps_old_params", "duplicate_entry_wrong_error"]
)
def test_deep_pipeline_detects_real_bugs(tor_program, tor_p4info, fault):
    """Pipelining must not mask genuine switch misbehaviour: an injected
    control-plane bug is still caught at depth 4."""
    from repro.switch import FaultRegistry

    stack = PinsSwitchStack(tor_program, faults=FaultRegistry([fault]))
    fuzzer = P4Fuzzer(
        tor_p4info,
        stack,
        FuzzerConfig(num_writes=40, updates_per_write=25, seed=7, pipeline_depth=4),
    )
    result = fuzzer.run()
    assert result.incidents.count > 0, fault


# ----------------------------------------------------------------------
# Determinism with batches concurrently in flight
# ----------------------------------------------------------------------
@pytest.mark.parametrize("depth", [2, 4])
def test_in_flight_rolls_stay_deterministic(tor_program, tor_p4info, depth):
    """Two identical runs with `depth` batches in flight consume the fault
    channel's seeded rolls identically: the turnstile fixes the transport
    interleaving to submission order."""
    first, chan_a = _run(tor_program, tor_p4info, "chaos", pipeline_depth=depth)
    second, chan_b = _run(tor_program, tor_p4info, "chaos", pipeline_depth=depth)

    assert dataclasses.asdict(chan_a.stats) == dataclasses.asdict(chan_b.stats)
    assert _fingerprint(first) == _fingerprint(second)
    assert first.transport_wait_seconds == pytest.approx(second.transport_wait_seconds)
    assert first.pipeline.max_in_flight == second.pipeline.max_in_flight


# ----------------------------------------------------------------------
# Window planning respects the reference graph
# ----------------------------------------------------------------------
def _first_table_updates(tor_p4info, n):
    """The first n INSERTs a seeded generator emits (distinct entries)."""
    from repro.fuzzer import RequestGenerator
    import random

    gen = RequestGenerator(tor_p4info, random.Random(7))
    updates = []
    while len(updates) < n:
        update = gen.generate_update()
        if update is not None and update.type is UpdateType.INSERT:
            updates.append(update)
    return updates


def _drain(scheduler, batches):
    """Every window take_window plans for `batches`, as lists of queue
    positions."""
    queue = list(enumerate(batches))
    windows = []
    while queue:
        windows.append([tag for tag, _ in scheduler.take_window(queue)])
    return windows


def _assert_sound(scheduler, batches, windows):
    """No window holds two conflicting batches, and a batch never flies
    before (or beside) an earlier batch it conflicts with."""
    sent_in = {tag: w for w, window in enumerate(windows) for tag in window}
    assert sorted(sent_in) == list(range(len(batches)))
    for later in range(len(batches)):
        for earlier in range(later):
            if scheduler.conflicts([batches[earlier]], batches[later]):
                assert sent_in[earlier] < sent_in[later], (earlier, later)


def test_conflicting_batches_never_share_a_window(tor_p4info):
    updates = _first_table_updates(tor_p4info, 4)
    scheduler = WriteScheduler(switch=None, p4info=tor_p4info, depth=8)
    try:
        independent = [[u] for u in updates]
        # A duplicate of the first entry conflicts with batch 0.
        dup = [Update(UpdateType.DELETE, updates[0].entry)]
        windows = _drain(scheduler, independent + [dup])
        assert windows == [[0, 1, 2, 3], [4]]
        assert scheduler.stats.conflict_stalls == 1
        assert scheduler.conflicts(independent, dup)
        assert not scheduler.conflicts(independent[:1], [updates[1]])
    finally:
        scheduler.close()


def test_independent_batch_overtakes_a_conflicting_head(tor_p4info):
    """A later independent batch joins the window past a queued batch
    that conflicts with the window; a batch that conflicts with the
    skipped one never overtakes it."""
    e1, e2, e3 = (u.entry for u in _first_table_updates(tor_p4info, 3))
    batches = [
        [Update(UpdateType.INSERT, e1)],  # 0: the head
        [Update(UpdateType.DELETE, e1), Update(UpdateType.INSERT, e2)],  # 1: conflicts 0
        [Update(UpdateType.INSERT, e3)],  # 2: independent of 0 and 1
        [Update(UpdateType.DELETE, e2)],  # 3: conflicts 1 only
    ]
    scheduler = WriteScheduler(switch=None, p4info=tor_p4info, depth=4)
    try:
        assert not scheduler.conflicts(batches[:1], batches[3])
        windows = _drain(scheduler, batches)
        assert windows == [[0, 2], [1], [3]]
        _assert_sound(scheduler, batches, windows)
        # 1 and 3 passed over for the first window, 3 again for the second.
        assert scheduler.stats.conflict_stalls == 3
    finally:
        scheduler.close()


def test_make_batches_feed_windows_soundly(tor_p4info, tor_program):
    """End to end: batches from make_batches, with deletes of earlier
    inserts mixed in, are windowed without a conflict in flight and
    without a dependent batch overtaking its predecessor."""
    inserts = _first_table_updates(tor_p4info, 6)
    updates = inserts[:3] + [Update(UpdateType.DELETE, inserts[0].entry)] + inserts[3:]
    updates.append(Update(UpdateType.DELETE, inserts[4].entry))
    batches = make_batches(tor_p4info, updates, 2)
    for depth in (1, 2, 4):
        scheduler = WriteScheduler(switch=None, p4info=tor_p4info, depth=depth)
        try:
            windows = _drain(scheduler, batches)
            assert max(len(w) for w in windows) <= depth
            _assert_sound(scheduler, batches, windows)
            for window in windows:
                for i, tag in enumerate(window):
                    assert not scheduler.conflicts(
                        [batches[t] for t in window[:i]], batches[tag]
                    )
        finally:
            scheduler.close()


# ----------------------------------------------------------------------
# Reporting: the throughput figures and their rendering
# ----------------------------------------------------------------------
def test_fuzz_result_carries_modeled_throughput(tor_program, tor_p4info):
    """FuzzResult carries the modeled throughput, and its scheduler
    counters, at every depth."""
    result, _ = _run(tor_program, tor_p4info, "delay", pipeline_depth=4)
    assert result.pipeline.depth == 4
    assert result.pipeline.windows > 0
    assert result.transport_wait_seconds == result.pipeline.pipelined_wait_s
    assert result.modeled_seconds == pytest.approx(
        result.elapsed_seconds + result.transport_wait_seconds
    )
    assert result.modeled_updates_per_second > 0

    shallow, _ = _run(tor_program, tor_p4info, None)
    assert shallow.pipeline.depth == 1
    assert shallow.pipeline.windows == shallow.writes_sent


def test_render_pipeline_stats_both_schedules(tor_program, tor_p4info):
    from repro.switchv.report import render_pipeline_stats

    shallow, _ = _run(tor_program, tor_p4info, None)
    text = render_pipeline_stats(shallow)
    assert "updates/s modeled" in text
    assert f"depth 1, peak 1, {shallow.writes_sent} window(s)" in text
    assert "0 coalesced away" in text

    deep, _ = _run(tor_program, tor_p4info, None, pipeline_depth=4)
    text = render_pipeline_stats(deep)
    assert "updates/s modeled" in text
    assert "depth 4" in text
    assert f"{deep.pipeline.read_backs_coalesced} coalesced away" in text
    assert deep.pipeline.read_backs_coalesced > 0
    assert "transport wait saved" in text
