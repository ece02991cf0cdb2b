"""The ranked pool: one question's answers, ordered and built on read.

CQAds presents at most ``max_answers`` answers (Section 4.3.1), yet the
partial pool behind them can be the whole table — a single-criterion or
superlative question relaxes to every row.  Ordering and materializing
that pool eagerly spends nearly all of the relax time on entries nobody
reads.  :class:`RankedPool` keeps what ranking produced instead:

* a backing of ``fixed`` already-ordered entries (the exact matches, in
  evaluation order) followed by scored candidates — their Eq. 5 scores,
  record ids, and an ``emit(index)`` callback that builds the entry for
  one backing index (a :class:`~repro.ranking.rank_sim.ScoredRecord`
  from the columnar slot arrays, an ``Answer``, ...);
* the scored part's presentation order, the legacy ``(-score,
  record_id)`` key, selected lazily by :func:`select`: the first read
  takes a bounded heap over just the ranks it needs, deeper reads widen
  it (doubling, then one full sort).  The key is a total order (ids are
  unique), so every selected prefix is bit-identical to the full sort;
* a memo of built entries: each position is built at most once, so a
  reader that walks the pool twice pays once.

The pool is a read-only :class:`~typing.Sequence` and compares equal to
the list it replaces.  It is safe to share across threads (the answer
cache and single-flight waiters hand one result to many readers):
ordering and building run under one lock, and a built entry is never
replaced.  :meth:`RankedPool.map` and :meth:`RankedPool.after` derive
pools over the same backing at construction time — mapping entries on
read, or placing the exact matches in front — without building anything.
"""

from __future__ import annotations

import heapq
import operator
import threading
from typing import Callable, Sequence, TypeVar

from repro.obs.hooks import stage_timer

__all__ = ["RankedPool", "select"]

T = TypeVar("T")
U = TypeVar("U")


def select(
    scores: Sequence[float], record_ids: Sequence[int], top_k: int | None
) -> list[int]:
    """Pool indices in the legacy ``(-score, record_id)`` order, bounded
    by *top_k* — exactly ``sorted(range(n), key=...)[:top_k]``.

    Two stable C-keyed sorts replace the tuple key: ascending ids, then
    descending scores (``reverse=True`` keeps equal scores in id
    order).  A bound first cuts the candidates to the scores at or above
    the *top_k*-th best (``heapq.nlargest`` on the bare floats): every
    index outside them ranks below *top_k* others, and ties at the
    threshold stay in, so the prefix is unchanged.
    """
    with stage_timer("rank.select"):
        indices: Sequence[int] = range(len(scores))
        if top_k is not None and top_k < len(scores):
            if top_k <= 0:
                return []
            threshold = heapq.nlargest(top_k, scores)[-1]
            indices = [index for index in indices if scores[index] >= threshold]
        order = sorted(indices, key=record_ids.__getitem__)
        order.sort(key=scores.__getitem__, reverse=True)
        return order if top_k is None else order[:top_k]


class RankedPool(Sequence[T]):
    """A lazily ordered, memoized view over one question's ranking.

    Positions ``[0, fixed)`` hold ``emit_fixed(position)`` as given (the
    exact matches); position ``fixed + p`` holds ``emit(i)`` for the
    scored candidate ``i`` at rank ``p`` of the ``(-score, record_id)``
    order over ``scores``/``record_ids``.  ``limit`` bounds the scored
    part (the ``top_k`` knob): ranks past it do not exist.
    """

    __slots__ = (
        "_emit",
        "_emit_fixed",
        "_fixed",
        "_scores",
        "_record_ids",
        "_size",
        "_order",
        "_items",
        "_built",
        "_lock",
    )

    def __init__(
        self,
        emit: Callable[[int], T] | None,
        scores: Sequence[float] = (),
        record_ids: Sequence[int] = (),
        *,
        limit: int | None = None,
        fixed: int = 0,
        emit_fixed: Callable[[int], T] | None = None,
    ) -> None:
        ranked = len(scores) if limit is None else min(len(scores), limit)
        self._emit = emit
        self._emit_fixed = emit_fixed
        self._fixed = fixed
        self._scores = scores
        self._record_ids = record_ids
        self._size = fixed + ranked
        #: Scored-part order prefix; replaced (never mutated) as it
        #: widens, so a reader holding an older prefix stays correct.
        self._order: list[int] = []
        self._items: list[T | None] = [None] * self._size
        self._built = 0
        self._lock = threading.Lock()

    @classmethod
    def of(cls, items: Sequence[T]) -> "RankedPool[T]":
        """A pool over an already-ordered list (nothing left to rank)."""
        return cls(None, fixed=len(items), emit_fixed=items.__getitem__)

    # -- derivation (construction time: nothing is built) --------------
    def map(
        self, fn: Callable[[T], U], *, limit: int | None = None
    ) -> "RankedPool[U]":
        """The same ranking with each entry passed through *fn* on read,
        optionally bounded to *limit* scored entries."""
        emit, emit_fixed = self._emit, self._emit_fixed
        ranked = self._size - self._fixed
        mapped = RankedPool(
            None if emit is None else lambda index: fn(emit(index)),
            self._scores,
            self._record_ids,
            limit=ranked if limit is None else min(limit, ranked),
            fixed=self._fixed,
            emit_fixed=(
                None
                if emit_fixed is None
                else lambda position: fn(emit_fixed(position))
            ),
        )
        mapped._order = self._order
        return mapped

    def after(self, count: int, emit_first: Callable[[int], T]) -> "RankedPool[T]":
        """This ranking behind *count* ordered entries ``emit_first(i)``."""
        emit_fixed = emit_first
        if self._fixed:
            inner = self._emit_fixed

            def emit_fixed(position: int) -> T:
                if position < count:
                    return emit_first(position)
                return inner(position - count)

        pool = RankedPool(
            self._emit,
            self._scores,
            self._record_ids,
            limit=self._size - self._fixed,
            fixed=count + self._fixed,
            emit_fixed=emit_fixed,
        )
        pool._order = self._order
        return pool

    # -- lazy ordering and building ------------------------------------
    def _ranked_order(self, needed: int) -> list[int]:
        """The scored-part order, covering at least *needed* ranks."""
        order = self._order
        if len(order) >= needed:
            return order
        with self._lock:
            order = self._order
            if len(order) < needed:
                total = len(self._scores)
                want = max(needed, 2 * len(order))
                order = select(
                    self._scores,
                    self._record_ids,
                    want if 2 * want < total else None,
                )
                self._order = order
            return order

    def _fill(self, start: int, stop: int) -> None:
        """Build every unbuilt position in ``[start, stop)``."""
        if self._built >= self._size:
            return
        fixed = self._fixed
        order = self._ranked_order(stop - fixed) if stop > fixed else []
        items = self._items
        with self._lock:
            missing = [
                position
                for position in range(start, stop)
                if items[position] is None
            ]
            if not missing:
                return
            emit, emit_fixed = self._emit, self._emit_fixed
            with stage_timer("rank.materialize", entries=len(missing)):
                for position in missing:
                    if position < fixed:
                        items[position] = emit_fixed(position)
                    else:
                        items[position] = emit(order[position - fixed])
            self._built += len(missing)

    # -- the Sequence protocol -----------------------------------------
    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._size)
            if step != 1:
                return [self[position] for position in range(start, stop, step)]
            if start >= stop:
                return []
            self._fill(start, stop)
            return self._items[start:stop]
        index = operator.index(index)
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError("ranked pool index out of range")
        item = self._items[index]
        if item is None:
            self._fill(index, index + 1)
            item = self._items[index]
        return item

    def __iter__(self):
        self._fill(0, self._size)
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RankedPool, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RankedPool({self._size} entries, {self._built} built)"
