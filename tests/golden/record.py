"""Record the golden fixtures the identity tests compare against.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.golden.record [--force] [NAME ...]

Runs every case in :mod:`tests.golden.cases` and writes
``tests/golden/<NAME>.json``.  Existing fixtures are never overwritten
without ``--force``: a fixture is the recorded behaviour the implementation
is held to, so regenerating one is a deliberate act whose diff gets
reviewed.  A regenerated fixture carries no ``paths_agreed`` field, since
only one implementation of each layer is left to run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from tests.golden import cases as C

FIXTURES = {
    "smt_differential": lambda: {
        "packet_generation": {m: lambda m=m: C.packet_generation(m) for m in C.MODELS},
        "warm_state_sequence": {"tor": C.warm_state_sequence},
        "harness_incidents": {
            m: lambda m=m: C.harness_incidents(m) for m in ("toy", "tor")
        },
        "constraint_aware_fuzz": {
            f: lambda f=f: C.constraint_aware_fuzz(f) for f in C.FAULTS
        },
    },
    "scale_differential": lambda: {
        "reference_campaign": {m: lambda m=m: C.reference_campaign(m) for m in C.MODELS},
        "direct_writes": {
            k: lambda k=k: C.direct_writes(k) for k in ("reference", "pins_stack")
        },
        "fault_catalogue": {f: lambda f=f: C.fault_catalogue(f) for f in C.FAULTS},
        "readback_suppression": {"toy": C.readback_suppression},
    },
    "smt_encoders": lambda: {
        "formula_verdicts": {
            str(s): lambda s=s: C.formula_verdicts(s) for s in C.FORMULA_SEEDS
        },
    },
    "fuzz_loop": lambda: {
        "fault_profiles": {
            str(p): lambda p=p: C.fuzz_loop(p) for p in C.FAULT_PROFILES
        },
        "sparse_read_backs": {"chaos": lambda: C.fuzz_loop("chaos", read_back_every=3)},
        "exhausted_retries": {"chaos": lambda: C.fuzz_loop("chaos", max_attempts=1)},
        "guided_coverage": {"tor": C.guided_fuzz_loop},
    },
}


def record(name: str) -> dict:
    out = {}
    for group, items in FIXTURES[name]().items():
        out[group] = {}
        for item, run in items.items():
            start = time.perf_counter()
            out[group][item] = run()
            took = time.perf_counter() - start
            print(f"{name}/{group}/{item} {took:.2f}s", flush=True)
    return {"cases": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "names", nargs="*", metavar="NAME", help=f"fixtures to record: {', '.join(FIXTURES)}"
    )
    parser.add_argument(
        "--force", action="store_true", help="overwrite existing fixtures"
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(FIXTURES))
    if unknown:
        parser.error(f"unknown fixture(s): {', '.join(unknown)}")
    targets = {name: C.GOLDEN_DIR / f"{name}.json" for name in args.names or FIXTURES}
    existing = [str(p) for p in targets.values() if p.exists()]
    if existing and not args.force:
        print(
            "refusing to overwrite existing fixtures (pass --force): "
            + ", ".join(existing),
            file=sys.stderr,
        )
        return 1
    for name, target in targets.items():
        payload = record(name)
        tmp = target.with_suffix(".json.tmp")
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        os.replace(tmp, target)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
