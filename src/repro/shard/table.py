"""`ShardedTable`: N partitioned tables behind the one-table surface.

The facade owns N real :class:`~repro.db.table.Table` shards over the
same schema and satisfies the full ``Table`` surface itself, so every
existing consumer — the SQL executor's index lookups, the relaxation
engine, the domain builder, the datagen bulk loader — works unchanged
against a partitioned store.  What changes is the *granularity* of
everything epoch-shaped:

* **ids are global, placement is local.**  The facade mints globally
  sequential record ids (bit-identical to a single table's) and a
  pluggable :class:`~repro.shard.partition.Partitioner` maps each id
  to its owning shard, so any layer holding an id can route to the
  shard without a directory.
* **epochs aggregate.**  ``ShardedTable.epoch`` is the sum of the
  shard epochs — still monotonic, still "any mutation moves it" — so
  facade-level caches (answer cache generations, plan cache hygiene)
  keep their contract, while shard-level caches (the fragment cache's
  per-shard unit id-sets, the per-shard column stores) key on each
  shard's **own** epoch and survive mutations to sibling shards.
  That locality is the single-core payoff of sharding: a point
  mutation invalidates 1/N of the cached state instead of all of it.
* **events relay.**  Listeners attach to the facade and receive every
  shard's typed mutation delta (:class:`~repro.db.table.InsertDelta` /
  :class:`~repro.db.table.RemoveDelta` /
  :class:`~repro.db.table.UpdateDelta`) re-stamped with the facade
  table, the aggregated epoch, the owning shard's index and that
  shard's own post-mutation epoch — so delta-aware caches know *which*
  shard and *which* rows moved and can patch shard-granular state in
  place.  Bulk operations (:meth:`insert_many`, :meth:`remove_many`)
  notify once per batch with a :class:`~repro.db.table.BatchDelta`
  wrapping the re-stamped per-row deltas, matching the single-table
  contract.

Scatter work (per-shard ranking in :mod:`repro.perf.colrank`) can run
on the facade's **dedicated** scatter executor — deliberately not the
:class:`~repro.api.service.AnswerService` batch pool, so a shard-sized
scatter issued from inside ``answer_batch`` can never deadlock the
pool it was issued from (every batch worker would otherwise be able to
block on sub-tasks queued behind other batch workers).  The executor
is created lazily and only when ``scatter_workers > 1``; the default
follows the machine (``min(shards, cpu_count)``, overridable via the
``REPRO_SCATTER_WORKERS`` env var), so a single-core box runs
scatters inline and pays no thread overhead.

**Placement is dynamic.**  The partitioner's verdict (frozen at the
construction-time modulus) is only the *base* placement; an
override map (per moved record) and a redirect map (per merged-away
shard) sit in front of it so :meth:`split_shard` / :meth:`merge_shard`
/ :meth:`rebalance` can move records between shards online.  A move
is an ordinary delete + insert under the write lock — downstream
caches, window indexes and WAL durability see plain typed deltas and
need no new invalidation machinery.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

from repro.db.schema import TableSchema
from repro.db.table import (
    BatchDelta,
    MutationEvent,
    Record,
    Table,
    batch_notifications,
)
from repro.obs.hooks import (
    record_rebalance_moves,
    register_shard_rows_gauge,
    shard_scatter_observe,
)
from repro.obs.trace import current_span, propagate, span
from repro.shard.partition import HashPartitioner, Partitioner

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.shard.rebalance import RebalancePlan

__all__ = ["ShardedTable"]

T = TypeVar("T")


class ShardedTable:
    """N partitioned :class:`Table` shards behind the ``Table`` surface.

    Parameters
    ----------
    schema:
        The shared schema; every shard indexes it identically.
    shard_count:
        How many shards to partition across (>= 1; 1 keeps the whole
        scatter-gather machinery live over a single shard, which is
        how the parity battery pins the facade to the plain table).
    partitioner:
        Record placement policy (default
        :class:`~repro.shard.partition.HashPartitioner`).  Must be
        deterministic — the facade routes every per-id operation
        through it.
    substring_gram:
        Passed through to each shard's substring indexes.
    scatter_workers:
        Thread count for parallel scatter operations.  ``None`` sizes
        to ``min(shard_count, cpu_count)`` — or to the
        ``REPRO_SCATTER_WORKERS`` env var when set, so CI machines
        with many cores don't oversubscribe the quick benches; values
        <= 1 run thread scatters inline (no executor is ever
        created).  The executor is dedicated to this facade — never a
        shared service pool.
    """

    def __init__(
        self,
        schema: TableSchema,
        shard_count: int,
        partitioner: Partitioner | None = None,
        substring_gram: int = 3,
        scatter_workers: int | None = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.schema = schema
        self.name = schema.table_name
        self.shard_count = shard_count
        self.partitioner = partitioner if partitioner is not None else HashPartitioner()
        self._substring_gram = substring_gram
        self.shards: list[Table] = []
        for index in range(shard_count):
            shard = Table(schema, substring_gram=substring_gram)
            # Distinct names keep shard-level diagnostics and cache keys
            # unambiguous; nothing resolves these through the catalog.
            shard.name = f"{self.name}::shard{index}"
            shard.add_listener(self._relay)
            self.shards.append(shard)
        self._next_id = 1
        #: Serializes facade mutations.  The seed's single table leaves
        #: concurrent writers to the caller; the scale-out layer takes
        #: the stronger position: id minting and shard routing are
        #: atomic, so concurrent writers cannot collide on an id or
        #: interleave inside one shard's index maintenance.  Readers
        #: never take it (scatter reads work off per-shard snapshots).
        self._write_lock = threading.RLock()
        self._listeners: list[Callable[[MutationEvent], None]] = []
        self._suppressed_notifications = 0
        #: Re-stamped row deltas collected while a bulk facade mutation
        #: suppresses notifications; emitted as one BatchDelta.
        self._pending_deltas: list[MutationEvent] = []
        if scatter_workers is None:
            base = os.cpu_count() or 1
            env_value = os.environ.get("REPRO_SCATTER_WORKERS", "").strip()
            if env_value:
                try:
                    parsed = int(env_value)
                except ValueError:
                    parsed = 0
                if parsed > 0:
                    base = parsed
            scatter_workers = min(shard_count, base)
        self.scatter_workers = scatter_workers
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._closed = False
        # -- dynamic placement (split/merge/rebalance) ----------------
        #: The partitioner modulus is frozen at construction: shards
        #: appended later (`add_shard`) receive records only through
        #: rebalancing, so adding capacity never silently reshuffles
        #: the id->shard map out from under routed lookups.
        self._placement_modulus = shard_count
        #: record_id -> shard index, for records moved off their base
        #: placement; checked before the partitioner.
        self._overrides: dict[int, int] = {}
        #: source shard -> target shard for merged-away shards; base
        #: placements are followed through this map transitively.
        self._redirects: dict[int, int] = {}
        #: Shards merged away: never receive inserts, excluded from
        #: rebalance targets.  Their Table objects stay (empty) so
        #: shard indexes remain stable for caches and metrics.
        self._retired: set[int] = set()
        # -- per-shard load gauges ------------------------------------
        #: Scatter-leaf latency EWMA per shard (None until observed);
        #: feeds latency-aware rebalance planning.
        self._scatter_ewma: list[float | None] = [None] * shard_count
        for index in range(shard_count):
            register_shard_rows_gauge(self, index)

    # ------------------------------------------------------------------
    # epoch and listeners (the Table contract, aggregated)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Sum of the shard epochs — monotonic, moved by any mutation.

        Facade-level caches key on this aggregate exactly as they
        would on a plain table's epoch; shard-level caches key on each
        shard's own epoch instead and keep 1 - 1/N of their entries
        live across a point mutation.
        """
        return sum(shard.epoch for shard in self.shards)

    def add_listener(self, listener: Callable[[MutationEvent], None]) -> None:
        """Call *listener* after every mutation of any shard."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[MutationEvent], None]) -> None:
        """Detach *listener*; unknown listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _relay(self, event: MutationEvent) -> None:
        """Re-emit a shard's delta as the facade's own.

        The forwarded delta keeps its concrete type and payload
        (inserted/removed record, changed columns) but is re-stamped
        with the facade table, the aggregated epoch, the owning shard's
        index and that shard's own post-mutation epoch — catalog-level
        listeners (answer cache generations, plan-cache hygiene) see
        exactly the single-table contract, while shard-granular caches
        (per-shard column stores, per-shard fragment id-sets) patch
        precisely the shard state that moved.  During a bulk facade
        mutation the re-stamped deltas accumulate and go out as one
        :class:`~repro.db.table.BatchDelta`.
        """
        if not self._listeners:
            return  # nobody to tell: skip the re-stamp allocation too
        stamped = self._stamp(event)
        if self._suppressed_notifications:
            self._pending_deltas.append(stamped)
            return
        self._notify(stamped)

    def _stamp(self, event: MutationEvent) -> MutationEvent:
        """Re-stamp a shard delta (recursively for shard-level batches)."""
        shard_index = self.shard_of(event.record_id)
        if isinstance(event, BatchDelta):
            # A shard-level bulk op (not issued by this facade, which
            # batches at its own level): the aggregate epoch of each
            # inner delta is unknowable after the fact, so consumers
            # fall back to rebuild maintenance for this event.
            return replace(
                event,
                table=self,
                epoch=self.epoch,
                shard_index=shard_index,
                shard_epoch=event.epoch,
                deltas=(),
            )
        return replace(
            event,
            table=self,
            epoch=self.epoch,
            shard_index=shard_index,
            shard_epoch=event.epoch,
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def shard_of(self, record_id: int) -> int:
        """The shard index owning *record_id* (whether stored or not).

        Rebalance overrides win over the partitioner's base placement;
        base placements landing on a merged-away shard follow its
        redirect chain.
        """
        override = self._overrides.get(record_id)
        if override is not None:
            return override
        return self._base_shard_of(record_id)

    def _base_shard_of(self, record_id: int) -> int:
        index = self.partitioner.shard_of(record_id, self._placement_modulus)
        redirects = self._redirects
        for _hop in range(len(redirects)):
            forwarded = redirects.get(index)
            if forwarded is None:
                break
            index = forwarded
        return index

    def shard_for(self, record_id: int) -> Table:
        """The shard table owning *record_id*."""
        return self.shards[self.shard_of(record_id)]

    def shard_sizes(self) -> list[int]:
        """Record count per shard (diagnostics and balance tests)."""
        return [len(shard) for shard in self.shards]

    @property
    def retired_shards(self) -> frozenset[int]:
        """Indexes merged away by :meth:`merge_shard` (always empty
        tables; never insert targets)."""
        return frozenset(self._retired)

    def scatter_latency(self) -> list[float | None]:
        """Per-shard scatter-leaf latency EWMA (None = never observed)."""
        return list(self._scatter_ewma)

    # ------------------------------------------------------------------
    # scatter execution
    # ------------------------------------------------------------------
    def map_shards(self, task: Callable[[int, Table], T]) -> list[T]:
        """Run ``task(index, shard)`` over every shard, in shard order.

        With ``scatter_workers > 1`` tasks fan out over the facade's
        dedicated executor; otherwise they run inline on the caller's
        thread.  Either way the result list is ordered by shard index.
        Tasks must not call :meth:`map_shards` recursively — leaf work
        only — which is what keeps the dedicated pool deadlock-free;
        they must also be idempotent reads, because a :meth:`close`
        racing the fan-out falls the whole scatter back to an inline
        pass (possibly re-running tasks already submitted).
        """
        if current_span() is not None:
            # Traced request: wrap each leaf in a per-shard span.  The
            # wrapper also carries the caller's span into the scatter
            # executor's worker threads (contextvars do not cross the
            # submit boundary on their own).
            inner = task

            def traced_task(index: int, shard: Table) -> T:
                with span("shard.scatter", shard=index, table=self.name):
                    return inner(index, shard)

            task = propagate(traced_task)
        leaf = task

        def timed_task(index: int, shard: Table) -> T:
            started = time.perf_counter()
            try:
                return leaf(index, shard)
            finally:
                self.observe_scatter(index, time.perf_counter() - started)

        task = timed_task
        if self.scatter_workers <= 1 or self.shard_count == 1:
            return [task(index, shard) for index, shard in enumerate(self.shards)]
        executor = self._scatter_executor()
        if executor is not None:
            try:
                futures = [
                    executor.submit(task, index, shard)
                    for index, shard in enumerate(self.shards)
                ]
            except RuntimeError:
                # close() shut the executor down between the submits;
                # scoring tasks are idempotent reads, so rerun inline.
                pass
            else:
                return [future.result() for future in futures]
        return [task(index, shard) for index, shard in enumerate(self.shards)]

    def _scatter_executor(self) -> ThreadPoolExecutor | None:
        """The dedicated executor, or ``None`` after :meth:`close`."""
        with self._executor_lock:
            if self._closed:
                return None
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.scatter_workers,
                    thread_name_prefix=f"shard-{self.name}",
                )
            return self._executor

    def observe_scatter(self, shard_index: int, seconds: float) -> None:
        """Record one scatter-leaf duration: histogram + planning EWMA."""
        shard_scatter_observe(self.name, shard_index, seconds)
        if shard_index < len(self._scatter_ewma):
            previous = self._scatter_ewma[shard_index]
            self._scatter_ewma[shard_index] = (
                seconds if previous is None else previous * 0.8 + seconds * 0.2
            )

    def close(self) -> None:
        """Release the scatter executor (idempotent).

        The table remains fully usable afterwards — scatters simply run
        inline, the way a ``scatter_workers=1`` facade always does.
        """
        with self._executor_lock:
            executor = self._executor
            self._executor = None
            self._closed = True
            self.scatter_workers = 1
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ShardedTable":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # mutation (globally sequential ids, routed placement)
    # ------------------------------------------------------------------
    def insert(
        self, values: dict[str, object], record_id: int | None = None
    ) -> Record:
        """Validate, assign the next global id, and store on one shard."""
        with self._write_lock:
            if record_id is None:
                record_id = self._next_id
            record = self.shard_for(record_id).insert(
                values, record_id=record_id
            )
            self._next_id = max(self._next_id, record_id + 1)
            return record

    def insert_many(self, rows: Iterable[dict[str, object]]) -> list[Record]:
        """Insert *rows*, notifying facade listeners **once** (the
        :meth:`Table.insert_many` contract; shard epochs still advance
        per row).  The emitted :class:`~repro.db.table.BatchDelta`
        wraps the re-stamped per-row deltas."""
        inserted: list[Record] = []
        with self._write_lock:
            with batch_notifications(self, "insert") as batch:
                for row in rows:
                    inserted.append(self.insert(row))
                    batch.last_id = inserted[-1].record_id
        return inserted

    def delete(self, record_id: int) -> None:
        """Remove *record_id* from its owning shard; raise if absent."""
        with self._write_lock:
            self.shard_for(record_id).delete(record_id)

    def remove_many(self, record_ids: Iterable[int]) -> int:
        """Bulk :meth:`delete` with one facade notification for the batch."""
        removed = 0
        with self._write_lock:
            with batch_notifications(self, "delete") as batch:
                for record_id in record_ids:
                    self.delete(record_id)
                    removed += 1
                    batch.last_id = record_id
        return removed

    def update(self, record_id: int, values: dict[str, object]) -> Record:
        """Merge *values* into the record on its owning shard."""
        with self._write_lock:
            return self.shard_for(record_id).update(record_id, values)

    # ------------------------------------------------------------------
    # online shard topology: split / merge / rebalance
    # ------------------------------------------------------------------
    def _move_one_locked(self, record_id: int, target: int) -> bool:
        """Move one record to *target* (write lock held by the caller).

        A move is a plain delete off the source shard followed by a
        plain insert into the target — the relay stamps the
        ``RemoveDelta`` with the source shard (the override map is
        updated *between* the two mutations) and the ``InsertDelta``
        with the target, so every delta-following cache patches
        exactly the two shard streams that changed.
        """
        source = self.shard_of(record_id)
        if source == target:
            return False
        record = self.shards[source].get(record_id)
        if record is None:
            return False
        values = dict(record)
        self.shards[source].delete(record_id)
        if self._base_shard_of(record_id) == target:
            self._overrides.pop(record_id, None)
        else:
            self._overrides[record_id] = target
        self.shards[target].insert(values, record_id=record_id)
        return True

    def move_records(self, record_ids: Iterable[int], target: int) -> int:
        """Move *record_ids* onto shard *target*; returns moved count.

        Records already on *target* (or absent) are skipped.  Raises
        for an out-of-range or retired target.
        """
        if not 0 <= target < len(self.shards):
            raise ValueError(f"target shard {target} out of range")
        if target in self._retired:
            raise ValueError(f"target shard {target} is retired")
        moved = 0
        with self._write_lock:
            for record_id in record_ids:
                if self._move_one_locked(record_id, target):
                    moved += 1
        if moved:
            record_rebalance_moves(self.name, moved)
        return moved

    def add_shard(self) -> int:
        """Append an empty shard; returns its index.

        The partitioner modulus stays frozen, so the new shard fills
        only through :meth:`move_records` / :meth:`rebalance` — adding
        capacity never reshuffles existing placements.
        """
        with self._write_lock:
            index = len(self.shards)
            shard = Table(self.schema, substring_gram=self._substring_gram)
            shard.name = f"{self.name}::shard{index}"
            shard.add_listener(self._relay)
            self.shards.append(shard)
            self.shard_count = len(self.shards)
            self._scatter_ewma.append(None)
            register_shard_rows_gauge(self, index)
            return index

    def split_shard(self, source: int) -> int:
        """Split *source*: append a shard, move its top half of record
        ids there.  Returns the new shard's index."""
        with self._write_lock:
            if not 0 <= source < len(self.shards):
                raise ValueError(f"source shard {source} out of range")
            if source in self._retired:
                raise ValueError(f"source shard {source} is retired")
            target = self.add_shard()
            ids = sorted(
                record.record_id for record in self.shards[source].snapshot()
            )
            self.move_records(ids[len(ids) // 2 :], target)
            return target

    def merge_shard(self, source: int, target: int) -> int:
        """Merge *source* into *target* and retire it; returns moved count.

        The retired shard's Table stays in ``shards`` (empty) so shard
        indexes — and everything keyed on them: fragment-cache tags,
        per-shard column stores, metrics labels — remain stable.  Its
        base placements are redirected to *target*, so future inserts
        whose partitioner verdict lands on the retired shard route
        through without per-record overrides.
        """
        with self._write_lock:
            if source == target:
                raise ValueError("cannot merge a shard into itself")
            for index in (source, target):
                if not 0 <= index < len(self.shards):
                    raise ValueError(f"shard {index} out of range")
                if index in self._retired:
                    raise ValueError(f"shard {index} is retired")
            ids = [
                record.record_id for record in self.shards[source].snapshot()
            ]
            moved = self.move_records(ids, target)
            self._retired.add(source)
            self._redirects[source] = target
            # Moves recorded before the redirect may now agree with the
            # (redirected) base placement: drop the redundant overrides.
            for record_id in [
                record_id
                for record_id, override in self._overrides.items()
                if override == self._base_shard_of(record_id)
            ]:
                del self._overrides[record_id]
            return moved

    def rebalance(
        self,
        plan: "RebalancePlan | None" = None,
        chunk: int = 64,
        tolerance: float = 0.1,
        use_latency: bool = False,
    ) -> int:
        """Apply *plan* (default: freshly computed) in lock-released
        chunks; returns records moved.

        Chunking keeps the rebalance *online*: between chunks the
        write lock is released, so concurrent inserts/queries
        interleave with the migration instead of stalling behind one
        long exclusive section.  Every move is an ordinary typed-delta
        pair, so a query racing the rebalance sees each record on
        exactly one shard at every instant the lock is free.
        """
        if plan is None:
            from repro.shard.rebalance import plan_rebalance

            plan = plan_rebalance(
                self, tolerance=tolerance, use_latency=use_latency
            )
        moved = 0
        moves = list(plan.moves)
        for start in range(0, len(moves), max(1, chunk)):
            with self._write_lock:
                for move in moves[start : start + max(1, chunk)]:
                    if move.target in self._retired or not (
                        0 <= move.target < len(self.shards)
                    ):
                        continue
                    if self._move_one_locked(move.record_id, move.target):
                        moved += 1
        if moved:
            record_rebalance_moves(self.name, moved)
        return moved

    def _notify(self, event: MutationEvent) -> None:
        if not self._listeners:
            return
        for listener in list(self._listeners):
            listener(event)

    #: How :func:`repro.db.table.batch_notifications` dispatches the
    #: batch event: straight to the facade listeners (suppression is
    #: handled in :meth:`_relay`, which stopped collecting by the time
    #: the batch scope emits).
    _emit_batch = _notify

    # ------------------------------------------------------------------
    # access (gather; ordering matches the single table bit-for-bit)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __iter__(self) -> Iterator[Record]:
        # A single table iterates in insertion order, which — ids being
        # minted monotonically and updates mutating in place — is
        # ascending-id order, so an N-way id merge reproduces the order
        # exactly.  Each shard snapshot is re-sorted first: normally a
        # no-op O(n) pass, but it keeps the facade's documented
        # id-ascending contract even after out-of-order explicit-id
        # inserts (heapq.merge silently mis-orders unsorted inputs).
        return heapq.merge(
            *(
                sorted(shard.snapshot(), key=lambda record: record.record_id)
                for shard in self.shards
            ),
            key=lambda record: record.record_id,
        )

    def get(self, record_id: int) -> Record | None:
        return self.shard_for(record_id).get(record_id)

    def snapshot(self) -> list[Record]:
        """Point-in-time records, ascending by id (see :meth:`__iter__`).

        Each shard's snapshot is individually atomic; the facade-level
        list is assembled from those per-shard copies, so a concurrent
        mutation can never crash the merge (it may land between two
        shard copies, which is the same visibility a single table's
        ``snapshot()`` gives a mutation landing just after the copy).
        """
        return list(self)

    def fetch(self, record_ids: Iterable[int]) -> list[Record]:
        """Records for *record_ids*, sorted by id for determinism."""
        result: list[Record] = []
        for record_id in sorted(record_ids):
            record = self.shard_for(record_id).get(record_id)
            if record is not None:
                result.append(record)
        return result

    def all_ids(self) -> set[int]:
        ids: set[int] = set()
        for shard in self.shards:
            ids |= shard.all_ids()
        return ids

    def null_ids(self, column_name: str) -> set[int]:
        """Ids whose column is NULL, unioned across shards (fresh set)."""
        return self._union(lambda shard: shard.null_ids(column_name))

    # ------------------------------------------------------------------
    # index-backed lookups (scatter to every shard, union the gathers)
    # ------------------------------------------------------------------
    def lookup_equal(self, column_name: str, value: object) -> set[int]:
        return self._union(
            lambda shard: shard.lookup_equal(column_name, value)
        )

    def lookup_range(
        self,
        column_name: str,
        low: float | None,
        high: float | None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> set[int]:
        return self._union(
            lambda shard: shard.lookup_range(
                column_name, low, high, include_low, include_high
            )
        )

    def lookup_substring(self, column_name: str, needle: str) -> set[int]:
        return self._union(
            lambda shard: shard.lookup_substring(column_name, needle)
        )

    def scan(self, predicate: Callable[[Record], bool]) -> set[int]:
        # Scanned off per-shard snapshots rather than shard.scan(): the
        # plain table's scan iterates its record dict live, which a
        # concurrent (serialized) writer could resize mid-predicate.
        # The snapshot copy is atomic per shard, keeping full scans
        # safe under the facade's writer-friendly contract.
        return self._union(
            lambda shard: {
                record.record_id
                for record in shard.snapshot()
                if predicate(record)
            }
        )

    def _union(self, lookup: Callable[[Table], set[int]]) -> set[int]:
        # Shards partition the records, so the union over per-shard
        # answers is exactly the single-table answer for any
        # per-record predicate.
        ids: set[int] = set()
        for shard in self.shards:
            ids |= lookup(shard)
        return ids

    def column_extreme(self, column_name: str, maximum: bool) -> set[int]:
        """Ids holding the global extreme: gather per-shard extremes,
        keep the shards whose local extreme equals the global one."""
        winners: list[tuple[float, set[int]]] = []
        for shard in self.shards:
            ids = shard.column_extreme(column_name, maximum)  # raises uniformly
            bounds = shard.column_bounds(column_name)
            if bounds is None:
                continue
            winners.append((bounds[1] if maximum else bounds[0], ids))
        if not winners:
            return set()
        best = max(value for value, _ in winners) if maximum else min(
            value for value, _ in winners
        )
        result: set[int] = set()
        for value, ids in winners:
            if value == best:
                result |= ids
        return result

    def column_bounds(self, column_name: str) -> tuple[float, float] | None:
        minimum: float | None = None
        maximum: float | None = None
        for shard in self.shards:
            bounds = shard.column_bounds(column_name)
            if bounds is None:
                continue
            low, high = bounds
            minimum = low if minimum is None else min(minimum, low)
            maximum = high if maximum is None else max(maximum, high)
        if minimum is None or maximum is None:
            return None
        return minimum, maximum

    def distinct_values(self, column_name: str) -> list[object]:
        seen: set[object] = set()
        for shard in self.shards:
            seen.update(shard.distinct_values(column_name))
        return sorted(seen, key=str)
