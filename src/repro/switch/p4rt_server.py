"""The switch's P4Runtime application layer.

Receives controller requests, validates them against the pushed P4Info and
the P4-constraints annotations, keeps the entry store used by reads, and
drives the orchestration agent.  This is PINS's newest layer and — as
Table 1 shows — its buggiest: most of the catalogue's control-plane faults
are implemented at decision points in this file.

Validation here is written independently of the reference decoder in
:mod:`repro.bmv2.entries`; the fuzzer's oracle compares the two
behaviourally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.bmv2.entries import (
    DecodedAction,
    DecodedActionSet,
    DecodedMatch,
    InstalledEntry,
)
from repro.p4.ast import MatchKind
from repro.p4.constraints import parse_constraint
from repro.p4.constraints.evaluator import evaluate_constraint
from repro.p4.constraints.lang import ConstraintSyntaxError
from repro.p4.constraints.refs import ReferenceGraph, ReferenceIndex
from repro.p4.p4info import P4Info, TableInfo
from repro.p4rt import codec
from repro.p4rt.messages import (
    ActionInvocation,
    ActionProfileActionSet,
    FieldMatch,
    ReadRequest,
    ReadResponse,
    TableEntry,
    Update,
    UpdateType,
    WriteRequest,
    WriteResponse,
)
from repro.p4rt.status import (
    Code,
    Status,
    already_exists,
    failed_precondition,
    internal,
    invalid_argument,
    not_found,
    resource_exhausted,
)
from repro.switch.faults import FaultRegistry
from repro.switch.orchagent import OrchAgent, OrchAgentError
from repro.switch.sai import SaiStatus

_SAI_TO_GRPC = {
    SaiStatus.ITEM_ALREADY_EXISTS: Code.ALREADY_EXISTS,
    SaiStatus.ITEM_NOT_FOUND: Code.NOT_FOUND,
    SaiStatus.INSUFFICIENT_RESOURCES: Code.RESOURCE_EXHAUSTED,
    SaiStatus.NOT_SUPPORTED: Code.UNIMPLEMENTED,
    SaiStatus.FAILURE: Code.INTERNAL,
}


@dataclass
class _StoredEntry:
    wire: TableEntry
    decoded: InstalledEntry


class P4RuntimeServer:
    """The P4Runtime layer of the PINS stack.

    State bookkeeping is incremental: per-table entry counters, a
    reverse-reference index answering the dangling/orphan questions, and
    per-table read views, so per-update cost is independent of store size.
    The index mirrors the *store*, so seeded faults that desynchronise the
    store from hardware (``modify_keeps_old_params``) desynchronise the
    index with it.  Statuses and reads are held to golden fixtures recorded
    while a linear-recomputation twin was live and agreed with it
    (``tests/test_scale_differential.py``).
    """

    def __init__(self, orchagent: OrchAgent, faults: FaultRegistry) -> None:
        self._orchagent = orchagent
        self._faults = faults
        self._p4info: Optional[P4Info] = None
        self._refs: Optional[ReferenceGraph] = None
        self._store: Dict[Tuple, _StoredEntry] = {}
        self._constraints: Dict[int, object] = {}
        self._counts: Dict[str, int] = {}
        self._refindex: Optional[ReferenceIndex] = None
        self._by_table_wire: Dict[int, Dict[Tuple, TableEntry]] = {}

    # ------------------------------------------------------------------
    # Pipeline config
    # ------------------------------------------------------------------
    def set_pipeline_config(self, p4info: P4Info) -> Status:
        try:
            constraints = {}
            for tid, table in p4info.tables.items():
                if table.entry_restriction:
                    constraints[tid] = parse_constraint(table.entry_restriction)
        except ConstraintSyntaxError as exc:
            if self._faults.enabled("p4info_push_failure_swallowed"):
                return Status()  # failure silently swallowed
            return invalid_argument(f"bad entry restriction: {exc}")
        if self._faults.enabled("p4info_push_failure_swallowed"):
            # The push fails internally (the agent never receives the
            # config) but the error is not propagated to the controller.
            return Status()
        self._p4info = p4info
        self._refs = ReferenceGraph(p4info)
        self._constraints = constraints
        self._refindex = ReferenceIndex(self._refs)
        for key, stored in self._store.items():
            self._refindex.insert(key, stored.wire)
        return Status()

    @property
    def configured(self) -> bool:
        return self._p4info is not None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(self, request: WriteRequest) -> WriteResponse:
        if self._p4info is None:
            return WriteResponse(
                statuses=tuple(
                    failed_precondition("no forwarding pipeline config")
                    for _ in request.updates
                )
            )
        statuses: List[Status] = []
        abort_rest = False
        for update in request.updates:
            if abort_rest:
                statuses.append(Status(Code.ABORTED, "batch aborted"))
                continue
            status = self._apply_update(update)
            statuses.append(status)
            if (
                not status.ok
                and status.code is Code.NOT_FOUND
                and update.type is UpdateType.DELETE
                and self._faults.enabled("delete_nonexistent_fails_batch")
            ):
                # The buggy server wraps the whole batch in one transaction:
                # one bad delete poisons every other update, including the
                # ones already applied (which it does not roll back in
                # hardware — only in its own store).
                abort_rest = True
        if abort_rest:
            statuses = [
                s if not s.ok else Status(Code.ABORTED, "batch aborted") for s in statuses
            ]
        return WriteResponse(statuses=tuple(statuses))

    def _apply_update(self, update: Update) -> Status:
        entry = update.entry
        table = self._lookup_table(entry.table_id)
        if table is None:
            return invalid_argument(f"unknown table id 0x{entry.table_id:08x}")
        try:
            decoded = self._validate_entry(
                table, entry, check_constraint=update.type is not UpdateType.DELETE
            )
        except _ValidationFailure as exc:
            return exc.status
        key = decoded.identity()
        if update.type is UpdateType.INSERT:
            return self._insert(table, entry, decoded, key)
        if update.type is UpdateType.MODIFY:
            return self._modify(table, entry, decoded, key)
        return self._delete(table, decoded, key)

    def _insert(self, table, entry, decoded, key) -> Status:
        if key in self._store:
            if self._faults.enabled("duplicate_entry_wrong_error"):
                return internal("could not program entry")  # wrong code
            return already_exists(f"entry already exists in {table.name}")
        if self._counts.get(table.name, 0) >= table.size:
            # Rejecting beyond the guaranteed size is admissible.
            return resource_exhausted(f"table {table.name} is full ({table.size})")
        dangling = self._refs.dangling_references(entry, self._refindex.available)
        if dangling:
            ref = dangling[0]
            return invalid_argument(
                f"dangling reference {ref.source} -> "
                f"{ref.target_table}.{ref.target_key} = {ref.value}"
            )
        status = self._dispatch("insert", decoded)
        if status.ok:
            self._store[key] = _StoredEntry(wire=entry, decoded=decoded)
            self._counts[table.name] = self._counts.get(table.name, 0) + 1
            self._refindex.insert(key, entry)
            self._by_table_wire.setdefault(entry.table_id, {})[key] = entry
        return status

    def _modify(self, table, entry, decoded, key) -> Status:
        existing = self._store.get(key)
        if existing is None:
            return not_found(f"no such entry in {table.name}")
        dangling = self._refs.dangling_references(entry, self._refindex.available)
        if dangling:
            ref = dangling[0]
            return invalid_argument(
                f"dangling reference {ref.source} -> "
                f"{ref.target_table}.{ref.target_key} = {ref.value}"
            )
        status = self._dispatch("modify", decoded)
        if status.ok:
            if self._faults.enabled("modify_keeps_old_params"):
                # The new action parameters never reach the store or the
                # hardware; the write still reports success.  The index
                # mirrors the store, so it keeps the old entry too.
                pass
            else:
                self._store[key] = _StoredEntry(wire=entry, decoded=decoded)
                self._refindex.replace(key, entry)
                self._by_table_wire.setdefault(entry.table_id, {})[key] = entry
        return status

    def _delete(self, table, decoded, key) -> Status:
        existing = self._store.get(key)
        if existing is None:
            return not_found(f"no such entry in {table.name}")
        # Referential integrity: refuse to orphan existing references.
        referenced = self._refs.is_referenced_table(table.name)
        if referenced and self._refindex.would_orphan(key):
            return failed_precondition(f"entry in {table.name} is still referenced")
        status = self._dispatch("delete", decoded)
        if status.ok:
            wire = self._store.pop(key).wire
            count = self._counts.get(table.name, 0) - 1
            if count > 0:
                self._counts[table.name] = count
            else:
                self._counts.pop(table.name, None)
            self._refindex.delete(key)
            per_table = self._by_table_wire.get(wire.table_id)
            if per_table is not None:
                per_table.pop(key, None)
        return status

    def _dispatch(self, op: str, decoded: InstalledEntry) -> Status:
        try:
            self._orchagent.apply(op, decoded)
        except OrchAgentError as exc:
            return Status(_SAI_TO_GRPC.get(exc.status, Code.INTERNAL), exc.detail)
        return Status()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, request: ReadRequest) -> ReadResponse:
        if request.table_id:
            # Serve single-table reads from the per-table view instead of
            # scanning the whole store (its order — insertion order with
            # MODIFY in place — matches the store's filtered order).
            wires = self._by_table_wire.get(request.table_id, {}).values()
        else:
            wires = (stored.wire for stored in self._store.values())
        drop_ternary = self._faults.enabled("read_ternary_unsupported")
        entries = []
        for wire in wires:
            if drop_ternary and any(m.kind == "ternary" for m in wire.matches):
                continue  # silently omitted from the read-back
            entries.append(wire)
        return ReadResponse(entries=tuple(entries))

    # ------------------------------------------------------------------
    # Validation (independent of the reference decoder)
    # ------------------------------------------------------------------
    def _lookup_table(self, table_id: int) -> Optional[TableInfo]:
        if self._faults.enabled("zero_byte_id_mangled"):
            # IDs round-trip through a string layer that cannot represent
            # interior zero bytes; IDs containing one collapse and no longer
            # resolve.
            raw = table_id.to_bytes(4, "big")
            if b"\x00" in raw.lstrip(b"\x00"):
                return None
        return self._p4info.tables.get(table_id)

    def _validate_entry(
        self, table: TableInfo, entry: TableEntry, check_constraint: bool = True
    ) -> InstalledEntry:
        matches = self._validate_matches(table, entry)
        self._validate_priority(table, entry)
        action = self._validate_action(table, entry)
        decoded = InstalledEntry(
            table_name=table.name,
            matches=tuple(sorted(matches, key=lambda m: m.key_name)),
            action=action,
            priority=entry.priority,
        )
        # @entry_restriction governs what may be *installed*; a DELETE only
        # identifies an entry (which, if constraint-violating, simply cannot
        # exist and falls out as NOT_FOUND).
        if check_constraint:
            self._validate_constraint(table, decoded)
        self._validate_quirks(table, entry)
        return decoded

    def _validate_matches(self, table: TableInfo, entry: TableEntry) -> List[DecodedMatch]:
        seen: Set[int] = set()
        out: List[DecodedMatch] = []
        for fm in entry.matches:
            if fm.field_id in seen:
                raise _ValidationFailure(
                    invalid_argument(f"duplicate match field {fm.field_id}")
                )
            seen.add(fm.field_id)
            mf = table.match_field_by_id(fm.field_id)
            if mf is None:
                raise _ValidationFailure(
                    invalid_argument(f"unknown match field {fm.field_id} in {table.name}")
                )
            if fm.kind != mf.match_type.value:
                raise _ValidationFailure(
                    invalid_argument(
                        f"match kind {fm.kind} does not match {mf.match_type.value}"
                    )
                )
            out.append(self._decode_match(table, mf, fm))
        for mf in table.match_fields:
            if mf.id in seen:
                continue
            if mf.match_type is MatchKind.EXACT:
                raise _ValidationFailure(
                    invalid_argument(f"missing mandatory field {mf.name}")
                )
            out.append(
                DecodedMatch(
                    key_name=mf.name, kind=mf.match_type, value=0, mask=0, prefix_len=0,
                    present=False,
                )
            )
        return out

    def _decode_value(self, data: bytes, bitwidth: int, what: str) -> int:
        if self._faults.enabled("zero_byte_id_mangled"):
            # Interior zero bytes get dropped by the string layer before
            # decoding, silently corrupting the value.
            data = bytes(b for b in data if b != 0) or b"\x00"
        if not codec.is_canonical(data):
            raise _ValidationFailure(
                invalid_argument(f"{what}: non-canonical value {data.hex()}")
            )
        value = int.from_bytes(data, "big")
        if value >= 1 << bitwidth:
            raise _ValidationFailure(
                invalid_argument(f"{what}: value exceeds {bitwidth} bits")
            )
        return value

    def _decode_match(self, table: TableInfo, mf, fm: FieldMatch) -> DecodedMatch:
        what = f"{table.name}.{mf.name}"
        value = self._decode_value(fm.value, mf.bitwidth, what)
        if mf.match_type is MatchKind.EXACT:
            return DecodedMatch(
                key_name=mf.name, kind=mf.match_type, value=value,
                mask=(1 << mf.bitwidth) - 1, prefix_len=mf.bitwidth,
            )
        if mf.match_type is MatchKind.LPM:
            if not 0 < fm.prefix_len <= mf.bitwidth:
                raise _ValidationFailure(
                    invalid_argument(f"{what}: bad prefix length {fm.prefix_len}")
                )
            mask = codec.mask_for_prefix(fm.prefix_len, mf.bitwidth)
            if value & ~mask:
                raise _ValidationFailure(
                    invalid_argument(f"{what}: value bits outside prefix")
                )
            return DecodedMatch(
                key_name=mf.name, kind=mf.match_type, value=value, mask=mask,
                prefix_len=fm.prefix_len,
            )
        if mf.match_type is MatchKind.TERNARY:
            mask = self._decode_value(fm.mask, mf.bitwidth, f"{what} mask")
            if mask == 0:
                raise _ValidationFailure(
                    invalid_argument(f"{what}: wildcard must be omitted, not zero-masked")
                )
            if value & ~mask:
                raise _ValidationFailure(
                    invalid_argument(f"{what}: value bits outside mask")
                )
            return DecodedMatch(key_name=mf.name, kind=mf.match_type, value=value, mask=mask)
        return DecodedMatch(
            key_name=mf.name, kind=mf.match_type, value=value,
            mask=(1 << mf.bitwidth) - 1,
        )

    def _validate_priority(self, table: TableInfo, entry: TableEntry) -> None:
        if table.requires_priority and entry.priority <= 0:
            raise _ValidationFailure(
                invalid_argument(f"table {table.name} requires a positive priority")
            )
        if not table.requires_priority and entry.priority != 0:
            raise _ValidationFailure(
                invalid_argument(f"table {table.name} does not take priorities")
            )

    def _validate_invocation(self, table: TableInfo, inv: ActionInvocation) -> DecodedAction:
        action = self._p4info.actions.get(inv.action_id)
        if action is None:
            raise _ValidationFailure(
                invalid_argument(f"unknown action 0x{inv.action_id:08x}")
            )
        if action.id not in table.action_ids:
            raise _ValidationFailure(
                invalid_argument(f"action {action.name} not valid for {table.name}")
            )
        params: List[Tuple[str, int]] = []
        seen: Set[int] = set()
        for pid, data in inv.params:
            pinfo = action.param_by_id(pid)
            if pinfo is None:
                raise _ValidationFailure(
                    invalid_argument(f"{action.name}: unknown param {pid}")
                )
            if pid in seen:
                raise _ValidationFailure(
                    invalid_argument(f"{action.name}: duplicate param {pid}")
                )
            seen.add(pid)
            params.append(
                (pinfo.name, self._decode_value(data, pinfo.bitwidth, f"{action.name}.{pinfo.name}"))
            )
        for pinfo in action.params:
            if pinfo.id not in seen:
                raise _ValidationFailure(
                    invalid_argument(f"{action.name}: missing param {pinfo.name}")
                )
        return DecodedAction(name=action.name, params=tuple(sorted(params)))

    def _validate_action(self, table: TableInfo, entry: TableEntry):
        if entry.action is None:
            raise _ValidationFailure(invalid_argument("entry has no action"))
        if table.implementation_id:
            if not isinstance(entry.action, ActionProfileActionSet):
                raise _ValidationFailure(
                    invalid_argument(f"{table.name} requires a one-shot action set")
                )
            if not entry.action.actions:
                raise _ValidationFailure(invalid_argument("empty action set"))
            profile = self._p4info.action_profiles.get(table.implementation_id)
            members = []
            total = 0
            for m in entry.action.actions:
                if m.weight <= 0:
                    raise _ValidationFailure(
                        invalid_argument(f"non-positive action weight {m.weight}")
                    )
                total += m.weight
                members.append((self._validate_invocation(table, m.action), m.weight))
            if profile is not None and total > profile.max_group_size:
                raise _ValidationFailure(
                    invalid_argument(
                        f"group weight {total} exceeds max size {profile.max_group_size}"
                    )
                )
            return DecodedActionSet(members=tuple(members))
        if isinstance(entry.action, ActionProfileActionSet):
            raise _ValidationFailure(
                invalid_argument(f"{table.name} takes a single action, not a set")
            )
        return self._validate_invocation(table, entry.action)

    def _validate_constraint(self, table: TableInfo, decoded: InstalledEntry) -> None:
        constraint = self._constraints.get(table.id)
        if constraint is None:
            return
        try:
            ok = evaluate_constraint(constraint, decoded.key_values())
        except Exception as exc:  # constraint referencing unknown keys
            raise _ValidationFailure(internal(f"constraint evaluation error: {exc}")) from exc
        if not ok:
            raise _ValidationFailure(
                invalid_argument(f"entry violates @entry_restriction on {table.name}")
            )

    def _validate_quirks(self, table: TableInfo, entry: TableEntry) -> None:
        if self._faults.enabled("space_in_key_rejected") and table.name.startswith("acl_"):
            for fm in entry.matches:
                if b" " in fm.value or b" " in fm.mask:
                    raise _ValidationFailure(
                        internal("key serialization failed: unsupported character")
                    )


class _ValidationFailure(Exception):
    def __init__(self, status: Status) -> None:
        super().__init__(status.message)
        self.status = status
