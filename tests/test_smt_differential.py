"""Identity at the SMT layer: the solver pipeline against golden fixtures.

The structural encoder + CDCL kernel must keep producing, end to end, the
outputs recorded in ``tests/golden/smt_differential.json``: the same
generated packets (byte for byte), the same uncovered goals, the same
data-plane incidents, and the same fuzzer incident fingerprints across the
whole fault catalogue.  The fixtures were recorded while the Tseitin
encoder + activity-only kernel was still live, with both pipelines
asserted to agree.  Canonical witness extraction makes this possible —
every artifact is a pure function of the formula, never of solver
heuristics.

Regenerate (deliberately) with ``python -m tests.golden.record --force``.
"""

import pytest

from tests.golden import cases as C

GOLDEN = C.load("smt_differential")


@pytest.mark.parametrize("model", C.MODELS)
def test_packet_generation_identity(model):
    """Cold entry-coverage generation on every shipped model: packets,
    uncovered goals and goal verdict counts."""
    C.assert_golden(C.packet_generation(model), GOLDEN["packet_generation"][model])


def test_packet_generation_identity_across_states():
    """Warm-pool reuse: after a state edit, the incremental re-solve yields
    the recorded packets for both states."""
    C.assert_golden(C.warm_state_sequence(), GOLDEN["warm_state_sequence"]["tor"])


@pytest.mark.parametrize("model", ["toy", "tor"])
def test_data_plane_incident_identity(model):
    """End-to-end harness runs (pool injected via ``solver_pool=``)."""
    C.assert_golden(C.harness_incidents(model), GOLDEN["harness_incidents"][model])


@pytest.mark.parametrize("fault", C.FAULTS)
def test_fuzzer_fingerprint_identity_across_fault_catalogue(fault):
    """Constraint-aware fuzz campaigns (the fuzzer path that actually
    queries the SMT layer for table-key models): incident fingerprints and
    adopted state for every catalogued fault."""
    C.assert_golden(
        C.constraint_aware_fuzz(fault), GOLDEN["constraint_aware_fuzz"][fault]
    )
