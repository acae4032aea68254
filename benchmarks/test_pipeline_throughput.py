"""Pipelined fuzzing-loop throughput benchmark.

Compares the campaign loop at depth 1 (one batch in flight, one read-back
per batch) against the windowed scheduler (`repro.fuzzer.pipeline`) at
depths 2/4/8, on a clean transport and under the catalogue `delay` fault
profile (10% of RPCs draw a bounded latency, the shape a real switch's
management plane exhibits under load).

Throughput is *modeled* updates/second
(`FuzzResult.modeled_updates_per_second`): CPU actually spent plus the
transport wait the schedule would pay against a real switch at the
injected latencies — per window, the slowest in-flight write plus the
read-back (per-RPC sums at depth 1).  Both terms are deterministic per
seed, so the depth comparison needs no sleeping.

The ``smoke`` test is the CI job (seconds); ``REPRO_BENCH_SCALE=paper``
doubles the campaign length.
"""

import os

from conftest import print_table

from repro.fuzzer import FuzzerConfig, P4Fuzzer
from repro.p4.p4info import build_p4info
from repro.p4.programs import build_tor_program
from repro.p4rt.channel import FaultInjectingChannel, resolve_profile
from repro.p4rt.retry import build_resilient_client
from repro.switch import PinsSwitchStack

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
# Many small waves: the regime where per-RPC latency dominates a
# sequential campaign and windows have batches to coalesce.
NUM_WRITES = 200 if SCALE == "small" else 400
UPDATES_PER_WRITE = 4

_PROGRAM = build_tor_program()
_P4INFO = build_p4info(_PROGRAM)


def _campaign(depth, profile, num_writes=NUM_WRITES, seed=21):
    stack = PinsSwitchStack(_PROGRAM)
    switch = stack
    if profile is not None:
        switch = FaultInjectingChannel(stack, resolve_profile(profile, seed=13))
    client = build_resilient_client(switch)
    config = FuzzerConfig(
        num_writes=num_writes,
        updates_per_write=UPDATES_PER_WRITE,
        seed=seed,
        pipeline_depth=depth,
    )
    return P4Fuzzer(_P4INFO, client, config).run()


def test_pipeline_throughput_smoke():
    """CI gate: depth 4 beats depth 1 >=1.5x under the delay profile."""
    base = _campaign(1, "delay")
    deep = _campaign(4, "delay")
    speedup = deep.modeled_updates_per_second / base.modeled_updates_per_second
    print_table(
        "pipelined fuzzing throughput (smoke, delay profile)",
        ["depth", "updates/s", "cpu", "transport wait", "speedup"],
        [
            [1, f"{base.modeled_updates_per_second:.0f}",
             f"{base.elapsed_seconds:.2f}s", f"{base.transport_wait_seconds:.2f}s",
             "1.00x"],
            [4, f"{deep.modeled_updates_per_second:.0f}",
             f"{deep.elapsed_seconds:.2f}s", f"{deep.transport_wait_seconds:.2f}s",
             f"{speedup:.2f}x"],
        ],
    )
    assert deep.pipeline.max_in_flight > 1
    assert speedup >= 1.5, f"depth-4 speedup {speedup:.2f}x under delay"


def test_pipeline_throughput_table():
    """The full table: depth 1 vs 2/4/8, clean vs delay."""
    rows = []
    speedups = {}
    for profile in (None, "delay"):
        label = profile or "clean"
        base = None
        for depth in (1, 2, 4, 8):
            t = _campaign(depth, profile)
            if base is None:
                base = t
            speedup = (
                t.modeled_updates_per_second / base.modeled_updates_per_second
            )
            speedups[(label, depth)] = speedup
            rows.append(
                [
                    label,
                    depth,
                    t.updates_sent,
                    f"{t.elapsed_seconds:.2f}s",
                    f"{t.transport_wait_seconds:.2f}s",
                    t.pipeline.windows,
                    t.pipeline.read_backs_coalesced or "-",
                    f"{t.modeled_updates_per_second:.0f}",
                    f"{speedup:.2f}x",
                ]
            )
    print_table(
        f"pipelined fuzzing throughput ({SCALE}: "
        f"{NUM_WRITES}x{UPDATES_PER_WRITE} updates)",
        ["transport", "depth", "updates", "cpu", "wait", "windows",
         "reads saved", "updates/s", "speedup"],
        rows,
    )
    # The acceptance bar: latency-bound campaigns pipeline >=1.5x at depth 4.
    assert speedups[("delay", 4)] >= 1.5, speedups
    # Deeper windows never lose to shallower ones by much more than noise.
    assert speedups[("delay", 8)] >= speedups[("delay", 4)] * 0.8, speedups
