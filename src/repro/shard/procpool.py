"""Process-backed scatter tier: shared-memory column stores + workers.

The thread scatter executor (:meth:`~repro.shard.table.ShardedTable.
map_shards`) keeps per-shard work off the service pools, but the GIL
serializes the hot scoring loops, so 4-shard scatters top out well
short of the hardware.  This module moves the per-shard compute into a
persistent pool of **worker processes** that read each shard's
columnar image out of :mod:`multiprocessing.shared_memory` — no
per-query pickling of rows, no per-query store rebuild in the parent:

* :class:`ProcessScatterPool` (parent side) exports each shard's
  column arrays into one shared-memory **segment** per shard — raw
  ``array('d')`` numeric columns with a NULL byte-mask,
  dictionary-coded categorical columns (``array('q')`` codes), the
  Type I key tuples dictionary-coded the same way, and the sorted
  record-id array — behind an epoch-stamped header.  The segment is
  **republished incrementally** from the facade's typed-delta relay:
  a numeric-only :class:`~repro.db.table.UpdateDelta` is patched into
  the live segment in place under a seqlock (writer bumps the header
  sequence to odd, patches, stamps the new epoch, bumps back to
  even); anything else (inserts, removes, categorical or Type I
  changes, bulk batches) marks the segment dirty and the next
  ``publish()`` re-exports it into a fresh segment.
* Workers (:func:`_worker_main`, spawned lazily, recycled on close)
  attach the segments read-only and materialize a
  :class:`_ShadowStore` — duck-typed to the parts of
  :class:`~repro.perf.colrank.ColumnStore` the scoring kernels use —
  so :func:`repro.perf.colrank._score_rows` / ``_supports`` and
  :func:`repro.ranking.pool.select` run **unchanged** in the worker and every float is
  bit-identical to the thread path's.  Relaxation-unit id-sets are
  evaluated columnar-ly against the same shadow, mirroring
  :func:`repro.perf.fragment_cache.condition_matches` (the SQL
  executor's leaf semantics) exactly.
* **Generation handshake**: every request names the segment and the
  epoch the parent just published; a worker that observes a different
  header epoch (or a seqlock torn read, or an unlinked segment name)
  answers ``stale`` instead of serving old rows, and the parent
  republishes and retries once before falling back to the thread
  path.  The thread path remains the parity oracle and the automatic
  fallback for everything: pool death, unexportable layouts,
  platforms without ``shared_memory``, scoring shapes the columnar
  planner rejects.

Nothing here is load-bearing for correctness — every return path the
parent cannot fully validate degrades to the thread scatter, which
``tests/test_sharding.py`` and ``tests/test_procpool.py`` hold
bit-identical to the unsharded oracle.
"""

from __future__ import annotations

import pickle
import struct
import threading
import time
from array import array
from typing import TYPE_CHECKING, Sequence

from repro.perf.window import parse_numeric

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.db.table import MutationEvent, Table
    from repro.ranking.rank_sim import RankingResources, ScoringUnit

__all__ = ["ProcessScatterPool", "process_scatter_supported"]

#: Segment header: magic, seqlock counter, epoch, rows, layout length.
_HEADER = struct.Struct("<8sQqQQ")
_MAGIC = b"RPSHM10\x00"
_SEQ_OFFSET = 8  # byte offset of the seqlock counter within the header
_EPOCH_OFFSET = 16

#: Distinct conditions memoized per shadow store before a cheap reset
#: (mirrors ``ColumnStore.MAX_SLOT_MEMOS``'s bounded-memo stance).
_MAX_CONDITION_SETS = 256

#: How long the parent waits for one worker reply before declaring the
#: pool dead.  Worker tasks are sub-100ms columnar loops; anything near
#: this bound means a wedged or killed process.
_REPLY_TIMEOUT_S = 30.0

#: Seqlock read retries before a torn read reports ``stale``.
_SEQLOCK_RETRIES = 8

#: Distinct units tuples tokenized before the token space restarts.
#: Real workloads cycle a bounded set of question shapes; the cap is a
#: leak guard, not a working-set bound.
_MAX_UNITS_TOKENS = 4096


def process_scatter_supported() -> bool:
    """Can this platform run the process scatter tier at all?

    Needs POSIX/Windows shared memory and a spawn context; platforms
    without either (or stripped-down pythons) fall back to threads.
    """
    try:
        import multiprocessing
        from multiprocessing import shared_memory  # noqa: F401

        multiprocessing.get_context("spawn")
    except (ImportError, ValueError):  # pragma: no cover - platform gate
        return False
    return True


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _attach_segment(name: str):
    """Attach an existing segment without taking tracker ownership.

    Python 3.13 grew ``track=False`` for exactly this; on older
    versions the attach registers with the resource tracker too — but
    spawn children share the *parent's* tracker process (the fd is
    inherited), whose name cache is a set, so the duplicate
    registration collapses and the parent's unlink at republish
    unregisters the name exactly once.  Deliberately NOT calling
    ``resource_tracker.unregister`` here: with the shared tracker
    that would drop the parent's own registration and its later
    unlink would hit a KeyError in the tracker loop.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on python version
        return shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# parent side: per-shard segment images
# ----------------------------------------------------------------------
class _ShardImage:
    """Parent-side handle on one shard's live shared-memory segment."""

    __slots__ = (
        "shm",
        "name",
        "epoch",
        "rows",
        "row_of",
        "numeric_offsets",
        "null_offsets",
        "dirty",
    )

    def __init__(self, shm, epoch, rows, row_of, numeric_offsets, null_offsets):
        self.shm = shm
        self.name = shm.name
        self.epoch = epoch
        self.rows = rows
        self.row_of = row_of
        self.numeric_offsets = numeric_offsets
        self.null_offsets = null_offsets
        self.dirty = False

    def destroy(self) -> None:
        try:
            self.shm.close()
            self.shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - races
            pass


def _export_shard(
    table_name: str,
    shard_index: int,
    shard: "Table",
    type_i_columns: Sequence[str],
) -> _ShardImage | None:
    """Export one shard's columnar image into a fresh segment.

    ``None`` means the layout is unexportable (pickling failed, exotic
    schema) and the pool must fall back to threads.  The epoch is read
    *before* the snapshot — the ColumnStore convention: a mutation
    landing mid-export tags newer data with the older epoch, which the
    next publish supersedes.
    """
    import array as array_module
    from multiprocessing import shared_memory

    try:
        epoch = shard.epoch
        records = sorted(shard.snapshot(), key=lambda record: record.record_id)
        rows = len(records)
        record_ids = array_module.array(
            "q", (record.record_id for record in records)
        )
        row_of = {
            record.record_id: row for row, record in enumerate(records)
        }

        numeric_data: dict[str, bytes] = {}
        null_data: dict[str, bytes] = {}
        categorical_data: dict[str, tuple[bytes, tuple[str, ...]]] = {}
        for column in shard.schema.columns:
            name = column.name
            if column.is_numeric:
                values = array_module.array("d", bytes(8 * rows))
                nulls = bytearray(rows)
                for row, record in enumerate(records):
                    parsed = parse_numeric(record.get(name))
                    if parsed is None:
                        nulls[row] = 1
                    else:
                        values[row] = parsed
                numeric_data[name] = values.tobytes()
                null_data[name] = bytes(nulls)
            else:
                codebook: dict[str, int] = {}
                codes = array_module.array("q", bytes(8 * rows))
                for row, record in enumerate(records):
                    value = record.get(name)
                    if value is None:
                        codes[row] = -1
                        continue
                    text = str(value)
                    code = codebook.get(text)
                    if code is None:
                        code = codebook[text] = len(codebook)
                    codes[row] = code
                categorical_data[name] = (codes.tobytes(), tuple(codebook))

        key_book: dict[tuple, int] = {}
        key_codes = array_module.array("q", bytes(8 * rows))
        for row, record in enumerate(records):
            key = tuple(
                str(record.get(column, "") or "") for column in type_i_columns
            )
            code = key_book.get(key)
            if code is None:
                code = key_book[key] = len(key_book)
            key_codes[row] = code

        # Lay the regions out: the pickled layout names every offset,
        # so workers never parse the data region blind.
        regions: list[tuple[str, bytes]] = [("__record_ids__", record_ids.tobytes())]
        regions.extend(
            (f"num:{name}", data) for name, data in numeric_data.items()
        )
        regions.extend(
            (f"null:{name}", data) for name, data in null_data.items()
        )
        regions.extend(
            (f"cat:{name}", data) for name, (data, _book) in categorical_data.items()
        )
        regions.append(("__keys__", key_codes.tobytes()))

        layout = {
            "table": table_name,
            "shard_index": shard_index,
            "type_i_columns": tuple(type_i_columns),
            "categorical_books": {
                name: book for name, (_data, book) in categorical_data.items()
            },
            "key_book": tuple(key_book),
            "offsets": {},
        }
        layout_probe = pickle.dumps(layout, protocol=pickle.HIGHEST_PROTOCOL)
        # Offsets depend on the layout length, which depends on the
        # offsets — sidestep the fixpoint by padding the layout region
        # to its probed size plus slack for the offset integers.
        layout_capacity = _align8(len(layout_probe) + 64 * (len(regions) + 2))
        cursor = _align8(_HEADER.size) + layout_capacity
        for region_name, data in regions:
            layout["offsets"][region_name] = cursor
            cursor = _align8(cursor + len(data))
        layout_bytes = pickle.dumps(layout, protocol=pickle.HIGHEST_PROTOCOL)
        if len(layout_bytes) > layout_capacity:  # pragma: no cover - slack
            return None

        shm = shared_memory.SharedMemory(create=True, size=max(cursor, 64))
        buffer = shm.buf
        _HEADER.pack_into(
            buffer, 0, _MAGIC, 0, epoch, rows, len(layout_bytes)
        )
        buffer[_align8(_HEADER.size) : _align8(_HEADER.size) + len(layout_bytes)] = (
            layout_bytes
        )
        for region_name, data in regions:
            offset = layout["offsets"][region_name]
            buffer[offset : offset + len(data)] = data

        numeric_offsets = {
            name: layout["offsets"][f"num:{name}"] for name in numeric_data
        }
        null_offsets = {
            name: layout["offsets"][f"null:{name}"] for name in null_data
        }
        return _ShardImage(
            shm, epoch, rows, row_of, numeric_offsets, null_offsets
        )
    except Exception:  # unexportable layout: fall back to threads
        return None


class _PoolBroken(Exception):
    """Internal: a worker pipe died or timed out mid-session."""


class ProcessScatterPool:
    """A persistent worker-process pool scoring shards off shared memory.

    Owned by one :class:`~repro.shard.table.ShardedTable`
    (``scatter_mode="process"``), which registers
    :meth:`on_mutation` as a facade listener and calls
    :meth:`rank` / :meth:`unit_ids` from the ranking and relaxation
    scatter paths.  Workers spawn lazily on the first dispatch and are
    recycled by :meth:`close`.  Every failure mode returns ``None`` to
    the caller — the thread path is always the fallback.
    """

    def __init__(self, table, workers: int) -> None:
        self._table = table
        self._worker_count = max(1, workers)
        self._workers: list[dict] = []
        self._started = False
        self._broken = False
        self._unsupported = False
        self._images: dict[int, _ShardImage] = {}
        self._images_lock = threading.Lock()
        self._spawn_lock = threading.Lock()
        #: Resources payloads shipped once per (worker, token); the
        #: keepalive list pins each resources object so a recycled
        #: ``id()`` can never alias a dead token.
        self._resources_tokens: dict[int, int] = {}
        self._resources_payloads: dict[int, object] = {}
        self._resources_keepalive: list[object] = []
        self._next_token = 1
        #: Units tuples shipped once per worker behind small-int tokens
        #: (the pickled conditions dominate a score/units message).
        self._units_tokens: dict[tuple, int] = {}
        self._next_units_token = 1
        self._closed = False

    # -- health -------------------------------------------------------
    @property
    def broken(self) -> bool:
        return self._broken

    @property
    def unsupported(self) -> bool:
        return self._unsupported

    def worker_pids(self) -> list[int]:
        """Live worker pids (diagnostics and tests)."""
        return [
            worker["process"].pid
            for worker in self._workers
            if worker["process"].is_alive()
        ]

    # -- incremental republication ------------------------------------
    def on_mutation(self, event: "MutationEvent") -> None:
        """Fold one facade-stamped delta into the live segments.

        Numeric-only updates patch the owning shard's segment in place
        under the seqlock; everything else marks that segment dirty so
        the next :meth:`publish` re-exports it.  Runs on the mutating
        thread (inside the facade's write lock), so patches are
        serialized against each other; the seqlock serializes them
        against concurrent worker reads.
        """
        from repro.db.table import BatchDelta

        with self._images_lock:
            if isinstance(event, BatchDelta):
                if not event.deltas:
                    self._mark_all_dirty()
                    return
                for delta in event.deltas:
                    self._absorb_locked(delta)
                return
            self._absorb_locked(event)

    def _mark_all_dirty(self) -> None:
        for image in self._images.values():
            image.dirty = True

    def _absorb_locked(self, delta: "MutationEvent") -> None:
        from repro.db.table import UpdateDelta

        index = delta.shard_index
        if index is None:
            self._mark_all_dirty()
            return
        image = self._images.get(index)
        if image is None or image.dirty:
            return  # nothing live to maintain; publish() exports fresh
        if (
            isinstance(delta, UpdateDelta)
            and delta.shard_epoch == image.epoch + 1
            and delta.record_id in image.row_of
            and all(
                column in image.numeric_offsets
                and column not in self._type_i_set()
                for column in delta.changed_columns
            )
        ):
            self._patch_numeric(image, delta)
        else:
            image.dirty = True

    def _type_i_set(self) -> frozenset:
        cached = getattr(self, "_type_i_cache", None)
        if cached is None:
            cached = self._type_i_cache = frozenset(self._type_i_columns())
        return cached

    def _patch_numeric(self, image: _ShardImage, delta) -> None:
        """Seqlock-protected in-place patch of changed numeric cells."""
        buffer = image.shm.buf
        row = image.row_of[delta.record_id]
        (seq,) = struct.unpack_from("<Q", buffer, _SEQ_OFFSET)
        struct.pack_into("<Q", buffer, _SEQ_OFFSET, seq + 1)  # odd: writing
        try:
            for column in delta.changed_columns:
                parsed = parse_numeric(delta.new_values.get(column))
                value_offset = image.numeric_offsets[column] + 8 * row
                null_offset = image.null_offsets[column] + row
                if parsed is None:
                    struct.pack_into("<d", buffer, value_offset, 0.0)
                    buffer[null_offset] = 1
                else:
                    struct.pack_into("<d", buffer, value_offset, parsed)
                    buffer[null_offset] = 0
            struct.pack_into("<q", buffer, _EPOCH_OFFSET, delta.shard_epoch)
            image.epoch = delta.shard_epoch
        finally:
            struct.pack_into("<Q", buffer, _SEQ_OFFSET, seq + 2)  # even

    def publish(self) -> list[tuple[str, int]] | None:
        """Bring every shard's segment current; return (name, epoch) per
        shard, or ``None`` when any shard's layout is unexportable."""
        if self._unsupported or self._closed:
            return None
        table = self._table
        with self._images_lock:
            published: list[tuple[str, int]] = []
            for index, shard in enumerate(table.shards):
                image = self._images.get(index)
                if (
                    image is None
                    or image.dirty
                    or image.epoch != shard.epoch
                ):
                    fresh = _export_shard(
                        table.name, index, shard, self._type_i_columns()
                    )
                    if fresh is None:
                        self._unsupported = True
                        return None
                    if image is not None:
                        image.destroy()
                    self._images[index] = image = fresh
                published.append((image.name, image.epoch))
            return published

    def _type_i_columns(self) -> Sequence[str]:
        # Same order ColumnStore keys are built in (RankingResources
        # derives its ``type_i_columns`` from this schema property).
        return [column.name for column in self._table.schema.type_i_columns]

    # -- worker lifecycle ---------------------------------------------
    def _ensure_started(self) -> bool:
        if self._started:
            return not self._broken
        with self._spawn_lock:
            if self._started:
                return not self._broken
            try:
                import multiprocessing
                import os
                import sys

                context = multiprocessing.get_context("spawn")
                # Spawn re-runs the parent's __main__ by path in the
                # child; a REPL/stdin parent advertises a path that
                # does not exist and every worker would die importing
                # it.  The workers never need the parent's main —
                # drop the attribute around the spawns in that case.
                main_module = sys.modules.get("__main__")
                main_path = getattr(main_module, "__file__", None)
                hide_main = main_path is not None and not os.path.exists(
                    main_path
                )
                if hide_main:
                    del main_module.__file__
                try:
                    for _ in range(self._worker_count):
                        parent_conn, child_conn = context.Pipe()
                        process = context.Process(
                            target=_worker_main,
                            args=(child_conn,),
                            daemon=True,
                        )
                        process.start()
                        child_conn.close()
                        self._workers.append(
                            {
                                "process": process,
                                "conn": parent_conn,
                                "lock": threading.Lock(),
                                "tokens": set(),
                                "units": set(),
                            }
                        )
                finally:
                    if hide_main:
                        main_module.__file__ = main_path
            except Exception:
                self._broken = True
            self._started = True
            return not self._broken

    def _mark_broken(self) -> None:
        self._broken = True
        for worker in self._workers:
            process = worker["process"]
            try:
                if process.is_alive():
                    process.terminate()
            except Exception:  # pragma: no cover - teardown races
                pass
            try:
                worker["conn"].close()
            except Exception:  # pragma: no cover - teardown races
                pass

    def close(self) -> None:
        """Recycle the workers and reclaim every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                with worker["lock"]:
                    worker["conn"].send(("exit",))
            except Exception:
                pass
        for worker in self._workers:
            process = worker["process"]
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=1.0)
            try:
                worker["conn"].close()
            except Exception:  # pragma: no cover - teardown races
                pass
        self._workers.clear()
        with self._images_lock:
            for image in self._images.values():
                image.destroy()
            self._images.clear()

    # -- resources shipping -------------------------------------------
    def _token_for(self, resources: "RankingResources") -> int:
        key = id(resources)
        token = self._resources_tokens.get(key)
        if token is None:
            token = self._next_token
            self._next_token += 1
            self._resources_tokens[key] = token
            self._resources_keepalive.append(resources)
            self._resources_payloads[token] = {
                "ws": resources.ws_matrix,
                "ti": resources.ti_matrix,
                "value_ranges": dict(resources.value_ranges),
            }
        return token

    def _units_ref(self, worker_index: int, units: tuple):
        """Wire form of *units* toward one worker: ``def`` or ``ref``.

        Each worker caches every units tuple it has been sent behind a
        small integer token, so repeat dispatches of the same question
        shape ship ``("ref", token)`` instead of re-pickling the
        condition objects.  The worker mark is set eagerly (before the
        send): any failed session marks the pool broken and discards
        the workers, so a mark can never outlive a worker that missed
        the matching ``def``.
        """
        token = self._units_tokens.get(units)
        if token is None:
            if len(self._units_tokens) >= _MAX_UNITS_TOKENS:
                # Restart the token space rather than evict: the
                # workers keep the (now unreachable) old defs — a few
                # KB each — instead of risking a ref racing an
                # eviction.
                self._units_tokens.clear()
                for worker in self._workers:
                    worker["units"].clear()
            token = self._next_units_token
            self._next_units_token += 1
            self._units_tokens[units] = token
        marks = self._workers[worker_index]["units"]
        if token in marks:
            return ("ref", token)
        marks.add(token)
        return ("def", token, units)

    # -- dispatch ------------------------------------------------------
    def _session(self, messages: dict[int, tuple]) -> dict[int, object] | None:
        """Send one message per worker, gather one reply per worker.

        Worker locks are acquired in ascending index order (the same
        order on every calling thread), so concurrent ``answer_batch``
        scatters interleave without deadlock.  Any pipe failure or
        timeout marks the whole pool broken — callers fall back to the
        thread path and :meth:`~repro.shard.table.ShardedTable.
        process_pool` respawns a bounded number of fresh pools.
        """
        order = sorted(messages)
        acquired: list[int] = []
        try:
            for index in order:
                self._workers[index]["lock"].acquire()
                acquired.append(index)
            for index in order:
                self._workers[index]["conn"].send(messages[index])
            replies: dict[int, object] = {}
            for index in order:
                conn = self._workers[index]["conn"]
                if not conn.poll(_REPLY_TIMEOUT_S):
                    raise _PoolBroken("worker reply timeout")
                replies[index] = conn.recv()
            return replies
        except (
            _PoolBroken,
            BrokenPipeError,
            EOFError,
            OSError,
            pickle.PicklingError,
        ):
            self._mark_broken()
            return None
        finally:
            for index in acquired:
                self._workers[index]["lock"].release()

    def _install_resources(self, token: int, worker_indices) -> bool:
        messages = {
            index: ("resources", token, self._resources_payloads[token])
            for index in worker_indices
            if token not in self._workers[index]["tokens"]
        }
        if not messages:
            return True
        replies = self._session(messages)
        if replies is None:
            return False
        for index in messages:
            self._workers[index]["tokens"].add(token)
        return True

    def rank(
        self,
        resources: "RankingResources",
        group_ids: list[list[int]],
        units: Sequence["ScoringUnit"],
        top_k: int | None,
        type_i_fp: tuple,
        query_keys: list,
    ):
        """Score each shard's pool slice in a worker.

        Returns a per-shard list aligned with *group_ids*: ``()`` for
        an empty slice, else the worker's bounded selection as
        ``(local_index, score, slot_sat_tuple)`` rows in presentation
        order.  ``"legacy"`` means a pool record vanished mid-flight
        (the caller must re-score on the legacy per-record path, like
        the thread scatter does); ``None`` means use the thread path.
        """
        outcome = self._dispatch("score", resources, group_ids, units, top_k, type_i_fp, query_keys)
        return outcome

    def unit_ids(
        self,
        units: Sequence["ScoringUnit"],
        requests: dict[int, Sequence[int]],
    ) -> tuple[dict[int, list], list[tuple[str, int]]] | None:
        """Evaluate relaxation units columnar-ly in the workers.

        *units* is the question's full unit sequence (shipped at most
        once per worker, see :meth:`_units_ref`); *requests* maps
        shard index -> indexes into *units* to evaluate there.
        Returns ``(results, published)`` where ``results[shard]`` is a
        list aligned with the requested indexes — each entry a fresh
        ``set`` of matching record ids, or ``None`` when that unit's
        shape has no columnar mirror (the caller falls back to the
        executor for it) — and *published* carries the per-shard
        publish epoch the sets were computed at (the fragment-cache
        tag).  ``None`` means use the sequential path.
        """
        if self._broken or self._unsupported or self._closed or not requests:
            return None
        published = self.publish()
        if published is None or not self._ensure_started():
            return None
        units_key = tuple(units)
        for _attempt in range(2):
            messages: dict[int, tuple] = {}
            for shard_index, unit_indexes in requests.items():
                worker = shard_index % len(self._workers)
                name, epoch = published[shard_index]
                messages.setdefault(worker, ("units", []))[1].append(
                    (
                        shard_index,
                        name,
                        epoch,
                        self._units_ref(worker, units_key),
                        tuple(unit_indexes),
                    )
                )
            replies = self._session(messages)
            if replies is None:
                return None
            results: dict[int, list] = {}
            stale = False
            for worker, reply in replies.items():
                if reply[0] != "ok":
                    self._unsupported = True
                    return None
                for task, outcome in zip(messages[worker][1], reply[1]):
                    shard_index = task[0]
                    if outcome[0] == "stale":
                        stale = True
                    elif outcome[0] == "ok":
                        results[shard_index] = [
                            None if blob is None else set(_unpack_ids(blob))
                            for blob in outcome[1]
                        ]
                        self._observe(shard_index, outcome[2])
                    else:
                        self._unsupported = True
                        return None
            if not stale:
                return results, published
            published = self.publish()
            if published is None:
                return None
        return None

    def _dispatch(
        self, kind, resources, group_ids, units, top_k, type_i_fp, query_keys
    ):
        if self._broken or self._unsupported or self._closed:
            return None
        published = self.publish()
        if published is None or not self._ensure_started():
            return None
        token = self._token_for(resources)
        involved = {
            index % len(self._workers)
            for index, ids in enumerate(group_ids)
            if ids
        }
        if not involved:
            return [() for _ in group_ids]
        if not self._install_resources(token, involved):
            return None
        units_key = tuple(units)
        query_keys_key = tuple(query_keys)
        for _attempt in range(2):
            messages: dict[int, tuple] = {}
            for shard_index, ids in enumerate(group_ids):
                if not ids:
                    continue
                worker = shard_index % len(self._workers)
                name, epoch = published[shard_index]
                message = messages.get(worker)
                if message is None:
                    common = (
                        token,
                        self._units_ref(worker, units_key),
                        top_k,
                        type_i_fp,
                        query_keys_key,
                    )
                    message = messages[worker] = (kind, common, [])
                message[2].append(
                    (shard_index, name, epoch, array("q", ids).tobytes())
                )
            replies = self._session(messages)
            if replies is None:
                return None
            gathered: list = [() for _ in group_ids]
            stale = False
            missing = False
            for worker, reply in replies.items():
                if reply[0] != "ok":
                    self._unsupported = True
                    return None
                for task, outcome in zip(messages[worker][2], reply[1]):
                    shard_index = task[0]
                    status = outcome[0]
                    if status == "ok":
                        gathered[shard_index] = outcome[1]
                        self._observe(shard_index, outcome[2])
                    elif status == "stale":
                        stale = True
                    elif status == "missing":
                        missing = True
                    elif status == "unsupported":
                        return None
                    else:
                        self._unsupported = True
                        return None
            if missing:
                return "legacy"
            if not stale:
                return gathered
            published = self.publish()
            if published is None:
                return None
        return None

    def _observe(self, shard_index: int, seconds) -> None:
        observe = getattr(self._table, "observe_scatter", None)
        if observe is not None and seconds is not None:
            observe(shard_index, seconds)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _WorkerResources:
    """The slice of :class:`RankingResources` the scoring kernels read."""

    __slots__ = ("ws_matrix", "ti_matrix", "value_ranges")

    def __init__(self, payload: dict) -> None:
        self.ws_matrix = payload["ws"]
        self.ti_matrix = payload["ti"]
        self.value_ranges = payload["value_ranges"]


class _ShadowStore:
    """A worker-local ColumnStore view rebuilt from segment bytes.

    Provides exactly the attribute surface
    :func:`repro.perf.colrank._score_rows` / ``_supports`` touch
    (``numeric``/``categorical``/``keys``/``row_of``/
    ``_type_i_index``/``memo``), decoded at C speed from the raw
    arrays.  The static regions (record ids, categorical codes, keys)
    are immutable for a segment's lifetime — only the numeric arrays
    and the header epoch are ever patched in place, so
    :meth:`refresh` re-reads just those under the seqlock and keeps
    every value-keyed memo (slot memos, categorical condition sets)
    warm across numeric point mutations.
    """

    def __init__(self, shm) -> None:
        import array as array_module

        self.shm = shm
        buffer = shm.buf
        magic, _seq, epoch, rows, layout_len = _HEADER.unpack_from(buffer, 0)
        if magic != _MAGIC:
            raise ValueError("bad segment magic")
        layout_start = _align8(_HEADER.size)
        layout = pickle.loads(
            bytes(buffer[layout_start : layout_start + layout_len])
        )
        self.table_name = layout["table"]
        self.shard_index = layout["shard_index"]
        self.rows = rows
        self.offsets = layout["offsets"]
        self.type_i_columns = list(layout["type_i_columns"])
        self._type_i_index = {
            column: index for index, column in enumerate(self.type_i_columns)
        }

        def read_q(region: str) -> list[int]:
            offset = self.offsets[region]
            values = array_module.array("q")
            values.frombytes(bytes(buffer[offset : offset + 8 * rows]))
            return values.tolist()

        self.record_ids = read_q("__record_ids__")
        self.row_of = {
            record_id: row for row, record_id in enumerate(self.record_ids)
        }
        self.categorical: dict[str, list[str | None]] = {}
        for name, book in layout["categorical_books"].items():
            codes = read_q(f"cat:{name}")
            self.categorical[name] = [
                book[code] if code >= 0 else None for code in codes
            ]
        key_book = layout["key_book"]
        self.keys = [key_book[code] for code in read_q("__keys__")]
        self.numeric: dict[str, list[float | None]] = {}
        self._numeric_names = [
            region[4:] for region in self.offsets if region.startswith("num:")
        ]
        self._slot_memo: dict[object, dict] = {}
        self._condition_sets_static: dict[object, set[int]] = {}
        self._condition_sets_numeric: dict[object, set[int]] = {}
        #: Raw (values, nulls) bytes per numeric column as of the last
        #: refresh — the change detector that keeps untouched columns'
        #: decoded lists and condition memos warm across point patches.
        self._numeric_raw: dict[str, tuple[bytes, bytes]] = {}
        self.epoch: int | None = None
        self.refresh(epoch)

    MAX_SLOT_MEMOS = 512  # the ColumnStore bound, for memo() parity

    def memo(self, memo_key: object) -> dict:
        memo = self._slot_memo.get(memo_key)
        if memo is None:
            if len(self._slot_memo) >= self.MAX_SLOT_MEMOS:
                self._slot_memo = {}
            memo = self._slot_memo[memo_key] = {}
        return memo

    def refresh(self, epoch: int) -> bool:
        """Bring the numeric arrays to *epoch*; ``False`` = stale.

        A consistent read brackets the byte copies with two seqlock
        reads: an odd counter means a patch is in flight, a changed
        counter means one landed mid-copy — both retry.  A header
        epoch that settles on anything but *epoch* is the generation
        handshake firing: this worker's view is behind (or ahead of)
        the parent's publish, so the caller reports ``stale`` and the
        parent republishes rather than serving misversioned rows.
        """
        import array as array_module

        if self.epoch == epoch:
            return True
        buffer = self.shm.buf
        for _retry in range(_SEQLOCK_RETRIES):
            (seq_before,) = struct.unpack_from("<Q", buffer, _SEQ_OFFSET)
            if seq_before % 2:
                time.sleep(0.0002)
                continue
            (header_epoch,) = struct.unpack_from("<q", buffer, _EPOCH_OFFSET)
            fresh_raw: dict[str, tuple[bytes, bytes]] = {}
            for name in self._numeric_names:
                offset = self.offsets[f"num:{name}"]
                null_offset = self.offsets[f"null:{name}"]
                fresh_raw[name] = (
                    bytes(buffer[offset : offset + 8 * self.rows]),
                    bytes(buffer[null_offset : null_offset + self.rows]),
                )
            (seq_after,) = struct.unpack_from("<Q", buffer, _SEQ_OFFSET)
            if seq_after != seq_before:
                continue  # a patch landed mid-copy: retry
            if header_epoch != epoch:
                return False  # generation mismatch: request a republish
            # Column-level change detection: a point patch touches one
            # or two columns, so decode only the columns whose raw
            # bytes actually moved — everything else (decoded lists
            # and condition memos alike) stays warm.  The memcmp is
            # exact, so a kept memo can never be stale.  Memoized
            # id-sets on a changed column are repaired at the changed
            # rows instead of dropped.
            changed = [
                name
                for name in self._numeric_names
                if self._numeric_raw.get(name) != fresh_raw[name]
            ]
            for name in changed:
                values = array_module.array("d")
                values.frombytes(fresh_raw[name][0])
                fresh_column = [
                    None if null else value
                    for value, null in zip(values, fresh_raw[name][1])
                ]
                old_raw = self._numeric_raw.get(name)
                if old_raw is not None:
                    self._repair_numeric_memos(
                        name, old_raw, fresh_raw[name], fresh_column
                    )
                self.numeric[name] = fresh_column
            self._numeric_raw = fresh_raw
            self.epoch = epoch
            return True
        return False

    def _repair_numeric_memos(
        self, name: str, old_raw, new_raw, new_column
    ) -> None:
        """Patch *name*'s memoized id-sets at the changed rows only.

        A point patch moves a handful of cells; re-evaluating the
        scalar predicate on just those rows keeps every memoized
        condition set exact across epochs, so repeat questions skip
        the full-column rescan entirely.
        """
        conditions = [
            condition
            for condition in self._condition_sets_numeric
            if condition.column == name
        ]
        if not conditions:
            return
        old_values, old_nulls = old_raw
        new_values, new_nulls = new_raw
        changed_rows = [
            row
            for row in range(self.rows)
            if old_nulls[row] != new_nulls[row]
            or old_values[8 * row : 8 * row + 8]
            != new_values[8 * row : 8 * row + 8]
        ]
        record_ids = self.record_ids
        for condition in conditions:
            scalar = self._numeric_scalar(condition)
            if scalar is None:  # pragma: no cover - memoized => mirrorable
                del self._condition_sets_numeric[condition]
                continue
            ids = self._condition_sets_numeric[condition]
            negated = condition.negated
            for row in changed_rows:
                if scalar(new_column[row]) != negated:
                    ids.add(record_ids[row])
                else:
                    ids.discard(record_ids[row])

    def _numeric_scalar(self, condition):
        """``value -> bool`` mirror of :meth:`_condition_rows`'s
        numeric branches (keep the two in lockstep); ``None`` = no
        mirror for this shape."""
        from repro.qa.conditions import ConditionOp

        op = condition.op
        if op is ConditionOp.BETWEEN:
            try:
                low, high = condition.value  # type: ignore[misc]
                low_f, high_f = float(low), float(high)
            except (TypeError, ValueError):
                return None
            return lambda value: value is not None and low_f <= value <= high_f
        if condition.value is None:
            if op is ConditionOp.EQ:
                return lambda value: value is None
            if op is ConditionOp.NE:
                return lambda value: value is not None
            return None
        try:
            target = float(condition.value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
        if op is ConditionOp.NE:
            return lambda value: value is None or value != target
        if op is ConditionOp.EQ:
            return lambda value: value is not None and value == target
        if op is ConditionOp.LT:
            return lambda value: value is not None and value < target
        if op is ConditionOp.LE:
            return lambda value: value is not None and value <= target
        if op is ConditionOp.GT:
            return lambda value: value is not None and value > target
        return lambda value: value is not None and value >= target

    # -- relaxation-unit evaluation (condition_matches mirror) --------
    def condition_id_set(self, condition) -> set[int] | None:
        """Ids matching *condition* — the exact columnar mirror of
        :func:`repro.perf.fragment_cache.condition_matches` (the SQL
        executor's leaf semantics).  ``None`` = no mirror for this
        shape (the parent falls back to ``eval_where``)."""
        numeric_column = condition.column in self.numeric
        memo = (
            self._condition_sets_numeric
            if numeric_column
            else self._condition_sets_static
        )
        cached = memo.get(condition)
        if cached is not None:
            return cached
        matched = self._condition_rows(condition, numeric_column)
        if matched is None:
            return None
        if condition.negated:
            record_ids = self.record_ids
            ids = {
                record_ids[row]
                for row, hit in enumerate(matched)
                if not hit
            }
        else:
            record_ids = self.record_ids
            ids = {record_ids[row] for row, hit in enumerate(matched) if hit}
        if len(memo) >= _MAX_CONDITION_SETS:
            memo.clear()
        memo[condition] = ids
        return ids

    def _condition_rows(self, condition, numeric_column: bool):
        from repro.qa.conditions import ConditionOp

        op = condition.op
        name = condition.column
        if not numeric_column and name not in self.categorical:
            return None  # unknown column: executor would have raised
        if op is ConditionOp.BETWEEN:
            if not numeric_column:
                return None
            try:
                low, high = condition.value  # type: ignore[misc]
                low_f, high_f = float(low), float(high)
            except (TypeError, ValueError):
                return None
            column = self.numeric[name]
            return [
                value is not None and low_f <= value <= high_f
                for value in column
            ]
        if condition.value is None:
            column = (
                self.numeric[name] if numeric_column else self.categorical[name]
            )
            if op is ConditionOp.EQ:
                return [value is None for value in column]
            if op is ConditionOp.NE:
                return [value is not None for value in column]
            return None
        if numeric_column:
            try:
                target = float(condition.value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return None
            column = self.numeric[name]
            if op is ConditionOp.NE:
                # The executor's numeric != is the complement of the =
                # range, so NULL rows match (see condition_matches).
                return [value is None or value != target for value in column]
            if op is ConditionOp.EQ:
                return [
                    value is not None and value == target for value in column
                ]
            if op is ConditionOp.LT:
                return [
                    value is not None and value < target for value in column
                ]
            if op is ConditionOp.LE:
                return [
                    value is not None and value <= target for value in column
                ]
            if op is ConditionOp.GT:
                return [
                    value is not None and value > target for value in column
                ]
            return [value is not None and value >= target for value in column]
        if op in (ConditionOp.EQ, ConditionOp.NE):
            target_text = str(condition.value).lower()
        else:
            # Range ops on categorical columns compare against the
            # float-coerced stringification (condition_to_expr's shape).
            try:
                target_text = str(float(condition.value)).lower()  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return None
        column = self.categorical[name]
        if op is ConditionOp.EQ:
            return [value is not None and value == target_text for value in column]
        if op is ConditionOp.NE:
            # Categorical != complements matched | NULLs: NULL rows out.
            return [value is not None and value != target_text for value in column]
        if op is ConditionOp.LT:
            return [value is not None and value < target_text for value in column]
        if op is ConditionOp.LE:
            return [value is not None and value <= target_text for value in column]
        if op is ConditionOp.GT:
            return [value is not None and value > target_text for value in column]
        return [value is not None and value >= target_text for value in column]

    def unit_id_set(self, unit) -> set[int] | None:
        """The unit's id-set (AND of conditions; OR for "any" units) —
        mirrors :func:`repro.perf.subplan.unit_expression`."""
        sets: list[set[int]] = []
        for condition in unit.conditions:
            ids = self.condition_id_set(condition)
            if ids is None:
                return None
            sets.append(ids)
        if unit.mode == "any":
            merged: set[int] = set()
            for ids in sets:
                merged |= ids
            return merged
        sets.sort(key=len)
        merged = set(sets[0])
        for ids in sets[1:]:
            merged &= ids
        return merged

    def close(self) -> None:
        try:
            self.shm.close()
        except Exception:  # pragma: no cover - teardown races
            pass


def _shadow_for(
    shadows: dict, segment_name: str, epoch: int
) -> _ShadowStore | None:
    """The worker's shadow for *segment_name* at *epoch*, or ``None``
    (stale/unlinked — the parent should republish)."""
    shadow = shadows.get(segment_name)
    if shadow is None:
        try:
            shm = _attach_segment(segment_name)
            shadow = _ShadowStore(shm)
        except (FileNotFoundError, OSError, ValueError, pickle.PickleError):
            return None
        # A fresh segment supersedes this (table, shard)'s previous
        # generation — drop the dead shadow so re-exports don't pile up.
        for name, old in list(shadows.items()):
            if (
                (old.table_name, old.shard_index)
                == (shadow.table_name, shadow.shard_index)
            ):
                old.close()
                del shadows[name]
        shadows[segment_name] = shadow
    if not shadow.refresh(epoch):
        return None
    return shadow


def _unpack_ids(blob: bytes) -> "array":
    """Decode a packed ``array('q')`` id payload."""
    ids = array("q")
    ids.frombytes(blob)
    return ids


def _resolve_units(units_defs: dict, ref):
    """Install a ``def`` / look up a ``ref`` from the units-token wire
    form (see :meth:`ProcessScatterPool._units_ref`)."""
    if ref[0] == "def":
        units_defs[ref[1]] = ref[2]
        return ref[2]
    return units_defs.get(ref[1])


def _score_task(shadows: dict, resources: dict, units_defs: dict, common, task):
    """One shard's columnar top-k in the worker; compact reply."""
    from repro.perf import colrank
    from repro.ranking.pool import select

    token, units_ref, top_k, type_i_fp, query_keys = common
    shard_index, segment_name, epoch, ids_blob = task
    worker_resources = resources.get(token)
    if worker_resources is None:
        return ("error", "unknown resources token")
    units = _resolve_units(units_defs, units_ref)
    if units is None:
        return ("error", "unknown units token")
    ids = _unpack_ids(ids_blob)
    started = time.perf_counter()
    shadow = _shadow_for(shadows, segment_name, epoch)
    if shadow is None:
        return ("stale",)
    if not colrank._supports(shadow, units):
        return ("unsupported",)
    rows = []
    for record_id in ids:
        row = shadow.row_of.get(record_id)
        if row is None:
            return ("missing",)  # pool record vanished mid-flight
        rows.append(row)
    scores, slots = colrank._score_rows(
        shadow, worker_resources, rows, units, type_i_fp, list(query_keys)
    )
    order = select(scores, list(ids), top_k)
    selection = [
        (
            local,
            scores[local],
            tuple(sat[local] for _conditions, _kind, sat in slots),
        )
        for local in order
    ]
    return ("ok", selection, time.perf_counter() - started)


def _units_task(shadows: dict, units_defs: dict, task):
    """One shard's relaxation-unit id-sets in the worker."""
    shard_index, segment_name, epoch, units_ref, indexes = task
    units_all = _resolve_units(units_defs, units_ref)
    if units_all is None:
        return ("error", "unknown units token")
    started = time.perf_counter()
    shadow = _shadow_for(shadows, segment_name, epoch)
    if shadow is None:
        return ("stale",)
    out = []
    for index in indexes:
        ids = shadow.unit_id_set(units_all[index])
        out.append(None if ids is None else array("q", list(ids)).tobytes())
    return ("ok", out, time.perf_counter() - started)


def _worker_main(conn) -> None:  # pragma: no cover - exercised in child
    """The worker process loop: attach, score, answer, repeat."""
    shadows: dict[str, _ShadowStore] = {}
    resources: dict[int, _WorkerResources] = {}
    units_defs: dict[int, tuple] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "exit":
                break
            try:
                if kind == "ping":
                    conn.send(("ok", None))
                elif kind == "resources":
                    resources[message[1]] = _WorkerResources(message[2])
                    conn.send(("ok", None))
                elif kind == "score":
                    _kind, common, tasks = message
                    replies = []
                    for task in tasks:
                        try:
                            replies.append(
                                _score_task(
                                    shadows, resources, units_defs, common, task
                                )
                            )
                        except Exception as error:
                            replies.append(("error", repr(error)))
                    conn.send(("ok", replies))
                elif kind == "units":
                    replies = []
                    for task in message[1]:
                        try:
                            replies.append(
                                _units_task(shadows, units_defs, task)
                            )
                        except Exception as error:
                            replies.append(("error", repr(error)))
                    conn.send(("ok", replies))
                else:
                    conn.send(("error", f"unknown message kind {kind!r}"))
            except Exception as error:
                try:
                    conn.send(("error", repr(error)))
                except Exception:
                    break
    finally:
        for shadow in shadows.values():
            shadow.close()
        try:
            conn.close()
        except Exception:
            pass
