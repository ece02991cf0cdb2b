"""Cross-question fragment cache: relaxation-unit id-sets kept live.

The shared-subplan engine (:mod:`repro.perf.subplan`) evaluates each
relaxation unit's WHERE fragment once *per question*.  Real workloads
repeat criteria across different questions — "price < 10000" and
"make = toyota" appear in thousands of distinct queries — so this
cache memoizes the id-sets themselves, looked up by::

    (table name, epoch tag, scoring unit)

:class:`~repro.ranking.rank_sim.ScoringUnit` is a frozen dataclass of
frozen :class:`~repro.qa.conditions.Condition` tuples, so the unit is
its own fingerprint: two questions that constrain the same column the
same way hit the same entry.

Entries live in **groups**, one per plain table (group ``None``,
tagged with the integer epoch) or per shard (group = shard index,
tagged ``(shard index, shard epoch)`` under the facade's table name),
so a mutation to one shard leaves the other shards' fragments alone.
Each group keeps a **single live tag** and a lookup hits only at that
tag; entries are not keyed by epoch, so a write re-keys nothing.

**A stale hit is structurally impossible.**  Every table mutation
bumps the table's epoch (:mod:`repro.db.table`), and a group moves to
a new tag only once it has been patched to that state.
:class:`~repro.qa.pipeline.CQAds` subscribes a mutation listener that
calls :meth:`FragmentCache.absorb` (delta maintenance, the default),
which touches only the entries whose membership the delta can change:

* an update re-evaluates the units that read one of its
  ``changed_columns`` (a per-group column index finds them), an
  insert every unit of the mutated group, and a remove only discards
  the id;
* membership changes are recorded as per-entry flips that
  :meth:`FragmentCache.get` folds into a **fresh** set on the entry's
  first read: a set handed to a consumer is never mutated (nor may the
  consumer mutate it), and an entry nobody reads costs no copy.  An
  entry whose flips reach the size of its set is folded at once, so
  copying stays amortized O(1) per flip;
* a group whose tag is not the delta's pre-mutation state (the cache
  missed a delta) is dropped instead of patched.

A ``put`` at an older tag than its group's (the set was computed
before a concurrent write landed) is dropped; one at a newer tag (the
cache missed deltas, e.g. after ``CQAds.close()``) resets the group.
A delta the cache cannot absorb (untyped events, batch deltas without
row payloads, bulk loads) falls back to :meth:`FragmentCache.invalidate`
/ :meth:`FragmentCache.invalidate_stale`, which drop whole groups; that
sweep is also the ``cache_maintenance="rebuild"`` parity oracle.

The per-record re-evaluation (:func:`condition_matches`) mirrors the
**SQL executor's** leaf semantics, not Rank_Sim's
``condition_satisfied`` — the two differ on NULLs under ``!=`` (the
executor's complement sets include NULL rows) — because the cached
sets were produced by ``eval_where``.  Stored values are schema-
normalized (lowercased strings, ``int``/``float`` numerics), which is
what makes an exact mirror tractable; the randomized mutation-storm
battery in ``tests/test_incremental.py`` holds patched sets
bit-identical to re-evaluated ones.

The ordered-window access path (:mod:`repro.perf.window`) changes
nothing here by design: ``eval_where`` materializes every cached
fragment into a plain id-set regardless of whether a leaf was
answered by a scan, an index lookup or a bisected window, so
window-computed range fragments enter the cache in the same shape as
always and :meth:`absorb` patches them identically.  The windows
themselves version by table/shard epoch on their own
(:class:`~repro.perf.window.TableWindows` splices the same typed
deltas this cache absorbs).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Collection, Hashable

from repro.db.table import (
    BatchDelta,
    InsertDelta,
    MutationEvent,
    RemoveDelta,
    UpdateDelta,
)
from repro.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.db.schema import TableSchema
    from repro.db.table import Record
    from repro.qa.conditions import Condition
    from repro.ranking.rank_sim import ScoringUnit

__all__ = ["FragmentCache", "condition_matches", "unit_matches"]

#: Generous default: a unit id-set is a few KB at paper scale, and
#: distinct criteria per domain number in the hundreds.
DEFAULT_CAPACITY = 4096

#: Bulk deltas beyond this many rows are not absorbed — patching is
#: O(cached entries x batch rows) on the mutating thread, so past this
#: point dropping the table's groups (and a lazy re-evaluation per
#: unit on next use) is strictly cheaper.  Mirrors
#: ``RankingResources.MAX_PENDING_DELTAS``: bulk loads invalidate
#: once instead of patching row-by-row, keeping ``insert_many``'s
#: "bulk loads stay linear" contract.
MAX_ABSORB_ROWS = 256


# ----------------------------------------------------------------------
# per-record mirror of the SQL executor's leaf semantics
# ----------------------------------------------------------------------
def condition_matches(
    schema: "TableSchema", condition: "Condition", record: "Record"
) -> bool | None:
    """Would ``eval_where`` include *record* in *condition*'s id-set?

    ``None`` means the mirror cannot answer (unknown column, a numeric
    target the executor would have rejected) — every such shape makes
    the executor *raise*, so a unit containing it can never have been
    cached; callers treat ``None`` as "drop the entry, recompute on
    miss".  Semantics mirrored exactly (``tests/test_incremental.py``):

    * numeric ``!=`` is the complement of the ``=`` range, so NULL
      rows **match** (unlike ``condition_satisfied``);
    * categorical ``!=`` complements ``matched | NULLs``, so NULL rows
      do not match;
    * every other operator fails on a NULL stored value;
    * a NULL *target* (``col = NULL`` / ``col != NULL``) matches the
      NULL-stored rows / their complement, before any numeric
      parsing — exactly the executor's dedicated NULL branch.
    """
    # Imported here, not at module top: the qa package's __init__ pulls
    # the pipeline, which imports this module — a load-time cycle.
    from repro.qa.conditions import ConditionOp

    try:
        column = schema.column(condition.column)
    except SchemaError:
        return None
    stored = record.get(column.name)
    op = condition.op
    if op is ConditionOp.BETWEEN:
        if not column.is_numeric:
            return None  # executor raises: BETWEEN needs numeric
        low, high = condition.value  # type: ignore[misc]
        try:
            low_f, high_f = float(low), float(high)
        except (TypeError, ValueError):
            return None  # executor raises: NULL/non-number bounds
        matched = stored is not None and low_f <= float(stored) <= high_f
    elif condition.value is None:
        # The executor's NULL branch runs before the numeric one:
        # `col = NULL` matches exactly the NULL-stored rows, `!=` their
        # complement, and any other operator raises (never cached).
        if op is ConditionOp.EQ:
            matched = stored is None
        elif op is ConditionOp.NE:
            matched = stored is not None
        else:
            return None
    elif column.is_numeric:
        try:
            target = float(condition.value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None  # executor raises: numeric column vs non-number
        number = None if stored is None else float(stored)  # type: ignore[arg-type]
        if op is ConditionOp.NE:
            matched = number is None or number != target
        elif number is None:
            matched = False
        elif op is ConditionOp.EQ:
            matched = number == target
        elif op is ConditionOp.LT:
            matched = number < target
        elif op is ConditionOp.LE:
            matched = number <= target
        elif op is ConditionOp.GT:
            matched = number > target
        else:
            matched = number >= target
    else:
        if op in (ConditionOp.EQ, ConditionOp.NE):
            target_text = str(condition.value).lower()
        else:
            # Range operators: condition_to_expr float-coerces the
            # value before the executor stringifies it, so the
            # lexicographic comparison runs against str(float(v)) —
            # "2010" becomes "2010.0".  Mirror that exactly; an
            # uncoercible value would have raised there (never cached).
            try:
                target_text = str(float(condition.value)).lower()  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return None
        if stored is None:
            matched = False
        else:
            text = str(stored)  # schema-normalized: already lowercase
            if op is ConditionOp.EQ:
                matched = text == target_text
            elif op is ConditionOp.NE:
                matched = text != target_text
            elif op is ConditionOp.LT:
                matched = text < target_text
            elif op is ConditionOp.LE:
                matched = text <= target_text
            elif op is ConditionOp.GT:
                matched = text > target_text
            else:
                matched = text >= target_text
    if condition.negated:
        matched = not matched
    return matched


def unit_matches(
    schema: "TableSchema", unit: "ScoringUnit", record: "Record"
) -> bool | None:
    """Would *record* be in *unit*'s cached id-set?

    Mirrors :func:`repro.perf.subplan.unit_expression`: an "any" unit
    is the OR of its branches, everything else the AND.  ``None``
    propagates from any branch the mirror cannot answer (no
    short-circuiting: an undecidable branch poisons the whole unit).
    """
    results = []
    for condition in unit.conditions:
        matched = condition_matches(schema, condition, record)
        if matched is None:
            return None
        results.append(matched)
    if unit.mode == "any":
        return any(results)
    return all(results)


def _consecutive(epochs: list) -> bool:
    """Are *epochs* a +1-stepped run?  (Anything else means the delta
    stream has a gap the patcher must not paper over.)"""
    return all(
        later == earlier + 1 for earlier, later in zip(epochs, epochs[1:])
    )


def _group_of(tag: Hashable) -> Hashable:
    """The group an epoch tag belongs to: the shard index of a sharded
    table's ``(shard index, shard epoch)`` tag, ``None`` for a plain
    table's integer epoch."""
    return tag[0] if isinstance(tag, tuple) else None  # type: ignore[index]


def _columns(unit: "ScoringUnit") -> set[str]:
    """The (schema-normalized) columns whose values decide *unit*."""
    return {condition.column.lower() for condition in unit.conditions}


class _Entry:
    """One cached id-set plus the membership flips not yet folded in."""

    __slots__ = ("unit", "ids", "flips")

    def __init__(self, unit: "ScoringUnit", ids: set[int]) -> None:
        self.unit = unit
        self.ids = ids
        #: record id -> membership, only where it differs from ``ids``.
        self.flips: dict[int, bool] = {}

    def mark(self, record_id: int, member: bool) -> None:
        """Record whether *record_id* belongs to the set from now on."""
        if (record_id in self.ids) == member:
            self.flips.pop(record_id, None)
            return
        self.flips[record_id] = member
        if len(self.flips) >= len(self.ids):
            self.fold()  # the copy now costs O(1) per pending flip

    def fold(self) -> set[int]:
        """The current id-set; pending flips land in a *new* set, so a
        set already handed to a consumer never changes."""
        if self.flips:
            ids = set(self.ids)
            for record_id, member in self.flips.items():
                if member:
                    ids.add(record_id)
                else:
                    ids.discard(record_id)
            self.ids = ids
            self.flips = {}
        return self.ids


class _Group:
    """The cached units of one plain table or one shard, all at ``tag``."""

    __slots__ = ("tag", "entries", "readers")

    def __init__(self, tag: Hashable) -> None:
        self.tag = tag
        self.entries: dict["ScoringUnit", _Entry] = {}
        #: column -> the cached units that read it.
        self.readers: dict[str, set["ScoringUnit"]] = {}


class FragmentCache:
    """Bounded LRU of ``(table, epoch tag, unit) -> id-set``, one live
    epoch tag per table or shard."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._groups: dict[str, dict[Hashable, _Group]] = {}
        #: Every live entry, least recently used first.
        self._order: OrderedDict[_Entry, _Group] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._order)

    # ------------------------------------------------------------------
    def get(
        self, table_name: str, epoch: Hashable, unit: "ScoringUnit"
    ) -> set[int] | None:
        """The cached id-set for *unit* at *epoch*, or ``None``."""
        with self._lock:
            group = self._groups.get(table_name, {}).get(_group_of(epoch))
            entry = (
                group.entries.get(unit)
                if group is not None and group.tag == epoch
                else None
            )
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._order.move_to_end(entry)
            return entry.fold()

    def put(
        self, table_name: str, epoch: Hashable, unit: "ScoringUnit", ids: set[int]
    ) -> None:
        key = _group_of(epoch)
        with self._lock:
            groups = self._groups.setdefault(table_name, {})
            group = groups.get(key)
            if group is not None and group.tag != epoch:
                if epoch < group.tag:  # type: ignore[operator]
                    return  # computed before a write this cache absorbed
                # The cache missed deltas (a detached engine): start over.
                self._unlink(groups.pop(key))
                group = None
            if group is None:
                group = groups[key] = _Group(epoch)
            entry = group.entries.get(unit)
            if entry is None:
                entry = group.entries[unit] = _Entry(unit, ids)
                for column in _columns(unit):
                    group.readers.setdefault(column, set()).add(unit)
            else:
                entry.ids, entry.flips = ids, {}
            self._order[entry] = group
            self._order.move_to_end(entry)
            while len(self._order) > self.capacity:
                evicted, owner = self._order.popitem(last=False)
                self._forget(owner, evicted)
                self.evictions += 1

    def invalidate(self, table_name: str | None = None) -> int:
        """Drop entries for *table_name* (all tables when ``None``).

        Returns the number of entries dropped.
        """
        with self._lock:
            if table_name is None:
                count = len(self._order)
                self._order.clear()
                self._groups.clear()
                return count
            groups = self._groups.pop(table_name, {})
            return sum(self._unlink(group) for group in groups.values())

    def invalidate_stale(
        self, table_name: str, live_epochs: Collection[Hashable]
    ) -> int:
        """Drop *table_name*'s groups whose tag is not in *live_epochs*.

        The shard-aware sweep: a sharded table passes the current
        ``(shard index, shard epoch)`` pair of every shard, so only the
        mutated shard's group is dropped and the sibling shards'
        fragments stay warm.  Returns the number of entries dropped.
        """
        live = set(live_epochs)
        with self._lock:
            groups = self._groups.get(table_name, {})
            stale = [key for key, group in groups.items() if group.tag not in live]
            return sum(self._unlink(groups.pop(key)) for key in stale)

    def absorb(self, event: MutationEvent) -> bool:
        """Patch *event*'s table (or, sharded, its mutated shards)
        forward to the post-mutation tag; ``False`` means the delta
        could not be absorbed and the caller should fall back to
        :meth:`invalidate` / :meth:`invalidate_stale`.

        Only entries whose membership the delta can change are
        visited: an update re-evaluates the units that read one of its
        changed columns, an insert every unit of the mutated group,
        and a remove discards the id from that group's sets.  Flips
        are recorded per entry and folded into a fresh set on the next
        :meth:`get`.  Batch deltas replay their per-row deltas
        (grouped per shard on a facade event).  Entries the per-record
        mirror cannot answer for are dropped, not guessed; a group
        whose tag is not the delta's pre-mutation state is dropped.
        """
        table = event.table
        if isinstance(event, BatchDelta):
            row_deltas: tuple[MutationEvent, ...] = event.deltas
        else:
            row_deltas = (event,)
        if not row_deltas or len(row_deltas) > MAX_ABSORB_ROWS:
            return False  # bulk load: dropping the groups is cheaper
        if not all(
            isinstance(delta, (InsertDelta, RemoveDelta, UpdateDelta))
            # Inserts/updates are re-evaluated against the record; a
            # hand-built delta without one cannot be replayed (mirrors
            # ColumnStore.apply's record-less fallback).
            and (isinstance(delta, RemoveDelta) or delta.record is not None)
            for delta in row_deltas
        ):
            return False
        sharded = getattr(table, "shards", None) is not None
        by_group: dict[Hashable, list[MutationEvent]] = {}
        for delta in row_deltas:
            if sharded != (delta.shard_index is not None) or (
                sharded and delta.shard_epoch is None
            ):
                return False  # a shard stamp that does not fit the table
            by_group.setdefault(delta.shard_index, []).append(delta)
        transitions: dict[Hashable, tuple[Hashable, Hashable]] = {}
        for key, deltas in by_group.items():
            epochs = [
                delta.shard_epoch if sharded else delta.epoch for delta in deltas
            ]
            if not _consecutive(epochs):
                return False
            before, after = epochs[0] - 1, epochs[-1]  # type: ignore[operator]
            transitions[key] = (
                ((key, before), (key, after)) if sharded else (before, after)
            )
        schema = table.schema
        with self._lock:
            groups = self._groups.get(table.name, {})
            for key, deltas in by_group.items():
                group = groups.get(key)
                if group is None:
                    continue  # nothing cached for this table/shard
                before, after = transitions[key]
                if group.tag != before:
                    self._unlink(groups.pop(key))  # missed a delta
                    continue
                self._patch(group, schema, deltas)
                group.tag = after
        return True

    # ------------------------------------------------------------------
    # internals (caller holds the lock)
    # ------------------------------------------------------------------
    def _patch(
        self, group: _Group, schema: "TableSchema", deltas: list[MutationEvent]
    ) -> None:
        for delta in deltas:
            record_id = delta.record_id
            if isinstance(delta, RemoveDelta):
                for entry in group.entries.values():
                    entry.mark(record_id, False)
                continue
            if isinstance(delta, UpdateDelta):
                units: set["ScoringUnit"] = set()
                for column in delta.changed_columns:
                    units.update(group.readers.get(column, ()))
            else:
                units = set(group.entries)
            for unit in units:
                entry = group.entries[unit]
                verdict = unit_matches(schema, unit, delta.record)  # type: ignore[attr-defined]
                if verdict is None:
                    del self._order[entry]
                    self._forget(group, entry)
                else:
                    entry.mark(record_id, verdict)

    def _forget(self, group: _Group, entry: _Entry) -> None:
        """Remove *entry* from *group* (and its column index)."""
        del group.entries[entry.unit]
        for column in _columns(entry.unit):
            readers = group.readers[column]
            readers.discard(entry.unit)
            if not readers:
                del group.readers[column]

    def _unlink(self, group: _Group) -> int:
        """Drop a group already removed from ``_groups``; returns its
        entry count."""
        for entry in group.entries.values():
            del self._order[entry]
        return len(group.entries)
