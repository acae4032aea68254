"""Greybox coverage feedback for the fuzzing loop (FP4's core idea).

The fuzzer's two halves finally talk to each other: ``repro.symbolic``
already knows exactly which tables, entries, and branch directions a table
state exercises, so after every judged batch the tracker re-derives the
model's symbolic trace for the oracle's installed state and scores it —
*without solver calls*.  Entry and miss trace keys are covered when their
guard is structurally reachable (not folded to FALSE); branch directions,
always structurally present, are covered when a compiled-term probe packet
(:mod:`repro.smt.compile`) witnesses the guard concretely.  Tables with an
``@entry_restriction`` additionally expose *boundary distance* regions: how
close (in key bits) the installed entries come to the constraint-aware
planner's sampled boundary models.

Coverage-increasing batches join a corpus keyed by the coverage delta they
unlocked; table and mutation selection is biased toward regions still
paying off — weighted by incremental coverage per unit of spend, decayed
as regions saturate.  Spend is measured in *deterministic* model-cost
units (updates attributed to the region), not wall-clock seconds: weights
feed the rng-driven selection, and a campaign must stay bit-for-bit
reproducible per seed across runs and fleet shards.  Actual scoring time
is still reported (``CoverageProgress.score_seconds``) for humans.

Pipelining stays sound because coverage accounting joins the deferred
in-order judging stage (:meth:`P4Fuzzer._judge_window`), never the
in-flight path: the tracker only ever sees the oracle's post-judging
state, in submission order, one judged batch at a time at every depth.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bmv2.entries import EntryDecodeError, InstalledEntry, decode_table_entry
from repro.p4.ast import P4Program
from repro.p4.p4info import P4Info, TableInfo
from repro.p4rt.messages import TableEntry, Update, UpdateType
from repro.smt import terms as T
from repro.smt.compile import compile_term
from repro.symbolic.coverage import entry_goal_name
from repro.symbolic.executor import SymbolicExecutor
from repro.symbolic.packets import PacketGenerator

# Probability that a guided wave slot re-seeds from the corpus instead of
# generating fresh (the greybox "mutate an interesting input" move).
CORPUS_SEED_PROBABILITY = 0.2
# Corpus size bound; oldest coverage-increasing batches are evicted first.
CORPUS_LIMIT = 64
# Region weights decay by this factor per gainless observation, floored so
# saturated regions keep a trickle of attention (they can desaturate when
# deletes open key space again).
REGION_DECAY = 0.7
REGION_FLOOR = 0.05
# Exploration bonus for tables with no covered entry yet.
EXPLORE_BONUS = 4.0


@dataclass
class CorpusEntry:
    """One coverage-increasing batch, keyed by the delta it unlocked."""

    updates: Tuple[Update, ...]
    unlocked: Tuple[str, ...]
    write_index: int


@dataclass
class CoverageProgress:
    """The feedback loop's campaign-level series (rendered by
    ``repro.switchv.report.render_coverage_progress``)."""

    # (cumulative updates observed, distinct trace keys covered) after each
    # scored batch — the coverage curve.
    samples: List[Tuple[int, int]] = field(default_factory=list)
    covered_keys: List[str] = field(default_factory=list)  # sorted
    corpus_size: int = 0
    batches_scored: int = 0
    batches_skipped: int = 0  # unchanged-state fast path
    score_seconds: float = 0.0
    # Distinct keys each table region unlocked (branch keys are global and
    # attributed to no table).
    table_gains: Dict[str, int] = field(default_factory=dict)

    @property
    def covered(self) -> int:
        return len(self.covered_keys)

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for key in self.covered_keys:
            kind = key.split(":", 1)[0]
            counts[kind] = counts.get(kind, 0) + 1
        return counts


@dataclass
class _Region:
    """Per-table feedback accounting."""

    gain: int = 0  # distinct keys this region unlocked
    spend: int = 0  # updates attributed to it (deterministic cost units)
    since_gain: int = 0  # consecutive gainless observations with spend


class CoverageTracker:
    """Per-batch model coverage over the oracle's installed state."""

    def __init__(
        self,
        program: P4Program,
        p4info: P4Info,
        valid_ports: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
        constraint_models: Optional[
            Callable[[], Dict[int, List[Dict[str, int]]]]
        ] = None,
    ) -> None:
        self.program = program
        self.p4info = p4info
        self.valid_ports = tuple(valid_ports)
        # The constraint-aware planner's cached boundary models (lazy: the
        # generator populates them on first use).
        self._constraint_models = constraint_models
        self.covered: Dict[str, None] = {}  # ordered set
        self.corpus: List[CorpusEntry] = []
        self._regions: Dict[str, _Region] = {}
        self._mutation_stats: Dict[str, _Region] = {}
        # Mutation attribution: id(update) -> (update, mutation name).  The
        # update reference keeps the id stable until the batch is observed.
        self._tags: Dict[int, Tuple[Update, str]] = {}
        self._decoded: Dict[TableEntry, Optional[InstalledEntry]] = {}
        self._state_digest: Optional[str] = None
        self._updates_seen = 0
        self._progress = CoverageProgress()

    # ------------------------------------------------------------------
    # Observation (called from the deferred, in-order judging stage)
    # ------------------------------------------------------------------
    def observe_batch(
        self,
        batch: Sequence[Update],
        entries: Sequence[TableEntry],
        write_index: int,
    ) -> List[str]:
        """Score one judged batch against the model; returns the keys it
        newly covered.  ``entries`` is the oracle's post-judging view."""
        start = time.perf_counter()
        self._updates_seen += len(batch)
        tables = self._batch_tables(batch)
        mutations = self._batch_mutations(batch)
        for name in tables:
            self._region(self._regions, name).spend += tables[name]
        for name in mutations:
            self._region(self._mutation_stats, name).spend += 1

        digest = self._digest_state(entries)
        if digest == self._state_digest:
            # The batch changed nothing (all rejected, or a no-op mix):
            # the trace is byte-identical, skip the symbolic re-execution.
            self._progress.batches_skipped += 1
            self._note_gains(tables, mutations, [])
            self._sample(start)
            return []
        self._state_digest = digest

        state = self._decode_state(entries)
        # Candidate keys repeat across the executor's per-profile executions;
        # marking covered as we collect dedupes them in one pass.
        new: List[str] = []
        for key in self._candidate_keys(state):
            if key not in self.covered:
                self.covered[key] = None
                new.append(key)
        if new:
            self.corpus.append(
                CorpusEntry(tuple(batch), tuple(new), write_index)
            )
            if len(self.corpus) > CORPUS_LIMIT:
                self.corpus.pop(0)
        self._progress.batches_scored += 1
        self._note_gains(tables, mutations, new)
        self._sample(start)
        return new

    def _sample(self, start: float) -> None:
        self._progress.score_seconds += time.perf_counter() - start
        self._progress.samples.append((self._updates_seen, len(self.covered)))

    def _note_gains(
        self,
        tables: Dict[str, int],
        mutations: Dict[str, int],
        new: Sequence[str],
    ) -> None:
        gained: Dict[str, int] = {}
        for key in new:
            table = self._key_table(key)
            if table is not None:
                gained[table] = gained.get(table, 0) + 1
        for name, count in gained.items():
            region = self._region(self._regions, name)
            region.gain += count
            region.since_gain = 0
            self._progress.table_gains[name] = (
                self._progress.table_gains.get(name, 0) + count
            )
        for name in tables:
            if name not in gained:
                self._region(self._regions, name).since_gain += 1
        for name in mutations:
            region = self._region(self._mutation_stats, name)
            if new:
                region.gain += len(new)
                region.since_gain = 0
            else:
                region.since_gain += 1

    # ------------------------------------------------------------------
    # Selection biasing (consumed by generator/mutations)
    # ------------------------------------------------------------------
    def table_weights(self, pool: Sequence[TableInfo]) -> List[float]:
        """Selection weights for the generator's table pick.

        Uncovered regions get an exploration bonus; regions that keep
        unlocking keys per unit spend stay hot; saturated ones decay."""
        weights = []
        for table in pool:
            region = self._regions.get(table.name, _Region())
            weight = (1.0 + region.gain) / (1.0 + region.spend)
            if f"table:{table.name}" not in self.covered:
                weight *= EXPLORE_BONUS
            weight *= max(REGION_DECAY**region.since_gain, REGION_FLOOR)
            weights.append(max(weight, 0.01))
        return weights

    def mutation_weights(self) -> Dict[str, float]:
        weights: Dict[str, float] = {}
        for name, region in self._mutation_stats.items():
            weight = (1.0 + region.gain) / (1.0 + region.spend)
            weight *= max(REGION_DECAY**region.since_gain, REGION_FLOOR)
            weights[name] = max(weight, 0.01)
        return weights

    def tag_update(self, update: Update, mutation: str) -> None:
        """Record which mutation produced an update (for gain attribution)."""
        self._tags[id(update)] = (update, mutation)

    def corpus_seed(self, rng) -> Optional[Update]:
        """Occasionally emit a *neighbour* of a coverage-increasing update.

        Verbatim replay of an installed insert only buys an ALREADY_EXISTS
        round-trip, so the greybox move is a one-bit flip in one match
        value: a fresh key in the same region of the same table, right
        where coverage last moved (and, for constrained tables, next to
        the boundary-distance bands the tracker scores).  Either way the
        oracle judges the result against its state tracking, so replay is
        always sound."""
        if not self.corpus or rng.random() >= CORPUS_SEED_PROBABILITY:
            return None
        entry = rng.choice(self.corpus)
        update = rng.choice(list(entry.updates))
        if update.type is not UpdateType.INSERT:
            return update
        return self._neighbour(rng, update)

    @staticmethod
    def _neighbour(rng, update: Update) -> Update:
        flippable = [i for i, m in enumerate(update.entry.matches) if m.value]
        if not flippable:
            return update
        index = rng.choice(flippable)
        match = update.entry.matches[index]
        data = bytearray(match.value)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        matches = list(update.entry.matches)
        matches[index] = replace(match, value=bytes(data))
        return replace(update, entry=replace(update.entry, matches=tuple(matches)))

    # ------------------------------------------------------------------
    # Result surface
    # ------------------------------------------------------------------
    def progress(self) -> CoverageProgress:
        self._progress.covered_keys = sorted(self.covered)
        self._progress.corpus_size = len(self.corpus)
        return self._progress

    # ------------------------------------------------------------------
    # Trace scoring (no solver calls)
    # ------------------------------------------------------------------
    def _candidate_keys(self, state: Dict[str, List[InstalledEntry]]) -> List[str]:
        keys: List[str] = [
            f"table:{table_name}"
            for table_name, installed in state.items()
            if installed
        ]
        executions = SymbolicExecutor(
            self.program, state, self.valid_ports
        ).execute()
        for execution in executions:
            probes = self._probes(execution)
            for trace_key, guard in execution.trace.items():
                if guard is T.FALSE:
                    continue
                kind = trace_key[0]
                if kind == "entry":
                    _kind, table, identity = trace_key
                    keys.append(entry_goal_name(table, identity))
                elif kind == "miss":
                    keys.append(f"miss:{trace_key[1]}")
                elif kind == "branch":
                    _kind, label, taken = trace_key
                    name = f"branch:{label}:{'t' if taken else 'f'}"
                    if name in self.covered:
                        continue
                    if self._witnessed(guard, probes):
                        keys.append(name)
        keys.extend(self._boundary_keys(state))
        return keys

    def _witnessed(self, guard: T.Term, probes: Sequence[Dict[str, int]]) -> bool:
        """Concrete probe evaluation via the compiled-term evaluator —
        branch guards are always structurally present, so coverage means a
        deterministic probe packet actually takes the direction."""
        if guard is T.TRUE:
            return True
        compiled = compile_term(guard)
        return any(compiled.evaluate(probe) for probe in probes)

    def _probes(self, execution) -> List[Dict[str, int]]:
        """Deterministic probe assignments over one profile's inputs:
        the realistic background packet (per valid port), all-zeros, and
        all-ones.  Fresh hash/selector variables evaluate as 0."""
        background: Dict[str, int] = {}
        ones: Dict[str, int] = {}
        port_var = None
        for path, term in execution.inputs.items():
            if term.is_const:
                continue
            width_mask = (1 << term.width) - 1
            background[term.name] = PacketGenerator._BACKGROUND.get(path, 0) & width_mask
            ones[term.name] = width_mask
            if path == "standard.ingress_port":
                port_var = term.name
        probes = []
        for port in self.valid_ports:
            probe = dict(background)
            if port_var is not None:
                probe[port_var] = port
            probes.append(probe)
        probes.append({})  # all-zeros (missing vars default to 0)
        probes.append(ones)
        return probes

    # ------------------------------------------------------------------
    # @entry_restriction boundary distance
    # ------------------------------------------------------------------
    def _boundary_keys(self, state: Dict[str, List[InstalledEntry]]) -> List[str]:
        """Distance-band regions: how close installed keys come to the
        planner's sampled constraint-boundary models, bucketed by bit
        count (bucket = distance.bit_length(); 0 = a model hit exactly)."""
        if self._constraint_models is None:
            return []
        keys: List[str] = []
        for table_id, models in self._constraint_models().items():
            table = self.p4info.tables.get(table_id)
            if table is None or not models:
                continue
            installed = state.get(table.name)
            if not installed:
                continue
            best: Optional[int] = None
            for entry in installed:
                for model in models:
                    distance = self._model_distance(table, entry, model)
                    if best is None or distance < best:
                        best = distance
            if best is not None:
                keys.append(f"boundary:{table.name}:{best.bit_length()}")
        return keys

    @staticmethod
    def _model_distance(
        table: TableInfo, entry: InstalledEntry, model: Dict[str, int]
    ) -> int:
        distance = 0
        for mf in table.match_fields:
            want = model.get(f"{table.name}.{mf.name}::value")
            if want is None:
                continue
            match = entry.match(mf.name)
            have = match.value if match is not None else 0
            distance += ((want ^ have) & ((1 << mf.bitwidth) - 1)).bit_count()
        return distance

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def _region(store: Dict[str, _Region], name: str) -> _Region:
        region = store.get(name)
        if region is None:
            region = store[name] = _Region()
        return region

    def _key_table(self, key: str) -> Optional[str]:
        kind, _, rest = key.partition(":")
        if kind in ("table", "miss"):
            return rest
        if kind in ("entry", "boundary"):
            return rest.rsplit(":", 1)[0]
        return None  # branch keys are global

    def _batch_tables(self, batch: Sequence[Update]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for update in batch:
            table = self.p4info.tables.get(update.entry.table_id)
            if table is not None:
                counts[table.name] = counts.get(table.name, 0) + 1
        return counts

    def _batch_mutations(self, batch: Sequence[Update]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for update in batch:
            tagged = self._tags.pop(id(update), None)
            if tagged is not None:
                counts[tagged[1]] = counts.get(tagged[1], 0) + 1
        return counts

    def _digest_state(self, entries: Sequence[TableEntry]) -> str:
        h = hashlib.sha256()
        for rep in sorted(repr(e) for e in entries):
            h.update(rep.encode())
        return h.hexdigest()

    def _decode_state(
        self, entries: Sequence[TableEntry]
    ) -> Dict[str, List[InstalledEntry]]:
        state: Dict[str, List[InstalledEntry]] = {}
        for entry in entries:
            if entry in self._decoded:
                decoded = self._decoded[entry]
            else:
                try:
                    decoded = decode_table_entry(self.p4info, entry)
                except EntryDecodeError:
                    # The oracle accepted an entry the decoder can't place
                    # (e.g. under an injected catalogue fault); it simply
                    # doesn't contribute coverage.
                    decoded = None
                self._decoded[entry] = decoded
            if decoded is not None:
                state.setdefault(decoded.table_name, []).append(decoded)
        return state
