"""Recorded expected outputs and the check of a run against them.

``expected.json`` maps workload -> seed variant -> the outputs a correct
round produces (incident counts, goal coverage, packet digests, fuzzer
verdict counts, entries left on the switch).  A run checks each recorded
output as a whole; a differing output fails as many operations as the
workload's weight for it says.  A run without a record fails every
operation it attempted.
"""

from __future__ import annotations

import fcntl
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

PATH = Path(__file__).resolve().parent / "expected.json"


def load(path: Path = PATH) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def lookup(table: dict, workload: str, variant: int) -> Optional[dict]:
    return table.get(workload, {}).get(str(variant))


def record(workload: str, variant: int, observed: dict, path: Path = PATH) -> None:
    """Store ``observed`` as the expected outputs (safe for concurrent runs)."""
    with open(path.with_suffix(".lock"), "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        table = load(path)
        table.setdefault(workload, {})[str(variant)] = observed
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def compare(
    expected: Dict[str, object], observed: Dict[str, object], weights: Dict[str, int]
) -> Tuple[int, List[str]]:
    """(operations that differ from the record, one message per difference)."""
    failed = 0
    messages: List[str] = []
    for key, want in sorted(expected.items()):
        got = observed.get(key)
        if got != want:
            failed += weights.get(key, 1)
            messages.append(f"{key}: expected {want!r}, got {got!r}")
    return failed, messages


def check(want: Optional[dict], rounds: List[dict]) -> Tuple[int, List[str]]:
    """(failed operations, one message per failure) over a run's rounds.

    Each round is an Outcome as a dict.  An operation fails if it raised or
    reported an incident (the round's ``failures``) or its output differs
    from ``want``; with no record at all, every attempted operation fails.
    """
    attempted = sum(r["attempted"] for r in rounds)
    messages = [f"round {i}: {line}" for i, r in enumerate(rounds) for line in r["failures"]]
    failed = len(messages)
    if want is None:
        return attempted, messages + ["no recorded outputs for this workload and seed"]
    for i, r in enumerate(rounds):
        mismatched, differences = compare(want, r["observed"], r["weights"])
        failed += mismatched
        messages += [f"round {i}: {line}" for line in differences]
    return min(failed, attempted), messages
