"""Test-packet caching (§6.3 "Caching").

Generating packets — repeatedly invoking the SMT solver — is the slowest
SwitchV stage.  When the P4 program, the table entries, and the coverage
request are unchanged from a previous run, the generated packets are simply
looked up.  The cache key is a digest over exactly the inputs that affect
the SMT constraints; anything else (the switch build under test, which
changes far more often than the specification) leaves the cache valid.

Two granularities are supported:

* **Whole-run** (`lookup`/`store`): keyed by :func:`cache_key`, a digest of
  the complete generation request.  Any edit to the table state invalidates
  everything.
* **Per-goal** (`lookup_goal`/`store_goal`): keyed by a digest of the one
  goal's *solved formula* — the goal condition and profile constraints as
  materialised by the symbolic executor (see
  ``PacketGenerator._goal_cache_key``).  Editing one table entry only
  changes the conditions that structurally mention it, so untouched goals
  keep their digests and reuse their packets; only the affected goals are
  re-solved.  Unsatisfiable verdicts are cached too (``packet=None``).

Corrupt or version-skewed on-disk pickles are treated as misses: the bad
file is deleted and generation proceeds as if it never existed.  Writes go
to a temporary file in the same directory that is then renamed into place,
so a crash or a concurrent fleet shard never leaves a torn ``.pkl`` behind.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

from repro.bmv2.entries import InstalledEntry
from repro.p4.ast import P4Program
from repro.symbolic.coverage import CoverageMode
from repro.symbolic.packets import GeneratedPacket, GenerationResult, GenerationStats


def cache_key(
    program: P4Program,
    state: Mapping[str, Sequence[InstalledEntry]],
    mode: CoverageMode,
    valid_ports: Sequence[int],
) -> str:
    """A digest of everything that affects the generated SMT constraints."""
    h = hashlib.sha256()
    h.update(program.name.encode())
    # The dataclass reprs of the AST are deterministic and structural.
    h.update(repr(program.ingress).encode())
    h.update(repr(program.egress).encode())
    h.update(repr(program.metadata).encode())
    for table_name in sorted(state):
        h.update(table_name.encode())
        for entry in sorted(state[table_name], key=lambda e: repr(e.identity())):
            h.update(repr((entry.identity(), entry.action)).encode())
    h.update(mode.value.encode())
    h.update(repr(tuple(valid_ports)).encode())
    return h.hexdigest()


@dataclass
class CachedGoal:
    """One goal's cached outcome: its packet, or None if unsatisfiable."""

    goal: str
    packet: Optional[GeneratedPacket]


class PacketCache:
    """In-memory packet cache with optional on-disk persistence."""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self._memory: Dict[str, GenerationResult] = {}
        self._goal_memory: Dict[str, CachedGoal] = {}
        self._directory = Path(directory) if directory else None
        if self._directory:
            self._directory.mkdir(parents=True, exist_ok=True)
            (self._directory / "goals").mkdir(exist_ok=True)

    # ------------------------------------------------------------------
    # Whole-run granularity
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[GenerationResult]:
        hit = self._memory.get(key)
        if hit is not None:
            return self._mark_hit(hit)
        result = self._load(self._directory / f"{key}.pkl" if self._directory else None)
        if result is not None:
            self._memory[key] = result
            return self._mark_hit(result)
        return None

    def store(self, key: str, result: GenerationResult) -> None:
        if self._directory:
            self._write(self._directory / f"{key}.pkl", result)
        self._memory[key] = result

    # ------------------------------------------------------------------
    # Per-goal granularity
    # ------------------------------------------------------------------
    def lookup_goal(self, key: str) -> Optional[CachedGoal]:
        hit = self._goal_memory.get(key)
        if hit is not None:
            return hit
        cached = self._load(
            self._directory / "goals" / f"{key}.pkl" if self._directory else None
        )
        if isinstance(cached, CachedGoal):
            self._goal_memory[key] = cached
            return cached
        return None

    def store_goal(self, key: str, cached: CachedGoal) -> None:
        if self._directory:
            self._write(self._directory / "goals" / f"{key}.pkl", cached)
        self._goal_memory[key] = cached

    # ------------------------------------------------------------------
    @staticmethod
    def _write(path: Path, value) -> None:
        """Pickle ``value`` to ``path`` atomically.

        The pickle goes to a temporary file in the same directory, which
        ``os.replace`` then renames over ``path``: readers see the old entry
        or the new one, never a prefix.  If pickling fails midway the
        temporary file is removed and the previous entry stays intact.
        """
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def _load(path: Optional[Path]):
        """Unpickle ``path``, treating any failure as a cache miss.

        A truncated write (crashed run), a pickle produced by an
        incompatible code version, or plain disk corruption must not take
        down validation — the cache is an optimisation, never a dependency.
        The unreadable file is deleted so the subsequent store can replace
        it.
        """
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return None

    @staticmethod
    def _mark_hit(result: GenerationResult) -> GenerationResult:
        stats = GenerationStats(
            goals_total=result.stats.goals_total,
            goals_covered=result.stats.goals_covered,
            goals_unsatisfiable=result.stats.goals_unsatisfiable,
            solver_queries=0,
            elapsed_seconds=0.0,
            cache_hit=True,
        )
        return GenerationResult(
            packets=list(result.packets), uncovered=list(result.uncovered), stats=stats
        )

    def clear(self) -> None:
        self._memory.clear()
        self._goal_memory.clear()
        if self._directory:
            # Stray temporary files are left by writers killed mid-store.
            for directory in (self._directory, self._directory / "goals"):
                for pattern in ("*.pkl", "*.tmp"):
                    for path in directory.glob(pattern):
                        path.unlink()
