"""Outside-in span tracing for the end-to-end bench.

The engine is never edited: :class:`Tracer` replaces public entry
points of each layer with wrappers that record a span (name, start,
end, parent, operation id) into an in-memory list, and puts the
originals back on :meth:`Tracer.restore`.  A name bound with
``from ... import`` is patched where it is looked up (for example
``repro.api.stages.build_interpretation``), not where it is defined.

A span's *self time* is its duration minus the durations of its
direct children; summed over every span of one operation it equals
the operation's root span exactly, so the per-layer numbers add up by
construction and ``layers.coverage`` checks the spans against the
engine's own ``QuestionResult.timings`` instead.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

#: (owner import path, attribute, span name, size function name).
#: The size function, if any, is applied to the return value and the
#: result is stored on the span (rows retrieved, pool size).
QUESTION_POINTS = (
    ("repro.api.stages:ClassifyStage", "run", "stage.classify", None),
    ("repro.api.stages:TagStage", "run", "stage.tag", None),
    ("repro.api.stages:InterpretStage", "run", "stage.interpret", None),
    ("repro.api.stages:ExecuteStage", "run", "stage.execute", None),
    ("repro.api.stages:RelaxStage", "run", "stage.relax", None),
    ("repro.qa.pipeline:CQAds", "classify_question", "classify", None),
    ("repro.qa.tagger:QuestionTagger", "tag", "tag", None),
    ("repro.api.stages", "build_interpretation", "interpret", None),
    ("repro.api.stages", "evaluate_interpretation", "execute", "len"),
    ("repro.perf.window:TableWindows", "window", "window", None),
    ("repro.qa.pipeline:CQAds", "partial_candidates", "candidates", "len"),
    ("repro.ranking.rank_sim:RankSimRanker", "rank_units", "rank", None),
    ("repro.ranking.rank_sim:RankingResources", "column_store", "store_catchup", None),
)
WRITE_POINTS = tuple(
    ("repro.db.table:Table", method, f"table.{method}", None)
    for method in ("update", "insert", "delete", "insert_many", "remove_many")
) + (
    ("repro.perf.fragment_cache:FragmentCache", "absorb", "absorb", None),
    ("repro.perf.fragment_cache:FragmentCache", "invalidate", "invalidate", None),
    # The catalog drops the shared plan cache's plans for the mutated
    # table on every write: the one invalidation every write pays.
    ("repro.db.sql.plan_cache:PlanCache", "invalidate_table", "invalidate", None),
)

#: Question layers: metric name -> span names whose self time it sums.
QUESTION_LAYERS = {
    "classify.ms": ("stage.classify", "classify"),
    "tag.ms": ("stage.tag", "tag"),
    "interpret.ms": ("stage.interpret", "interpret"),
    "execute.ms": ("stage.execute", "execute"),
    "execute.window_fold.ms": ("window",),
    "relax.candidates.ms": ("candidates",),
    "relax.store_catchup.ms": ("store_catchup",),
    "relax.rank.ms": ("rank",),
    "relax.materialize.ms": ("stage.relax",),
}
#: Write layers: metric name -> span names (the Table methods' self
#: time excludes the wrapped cache maintenance, which runs inside them).
WRITE_LAYERS = {
    "write.table.us": tuple(
        f"table.{m}" for m in ("update", "insert", "delete", "insert_many", "remove_many")
    ),
    "write.absorb.us": ("absorb",),
    "write.invalidate.us": ("invalidate",),
}


def resolve(path: str):
    """The object named by ``"package.module"`` or ``"package.module:Attr"``."""
    import importlib

    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, make):
        """Set ``owner.attribute = make(original)``; returns the original."""
        # Read the raw attribute (not the bound or descriptor-resolved
        # one) so restore() puts back exactly what was there.
        raw = vars(owner)[attribute]
        self._saved.append((owner, attribute, raw))
        setattr(owner, attribute, make(getattr(owner, attribute)))
        return raw

    def restore(self) -> None:
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)


class Tracer:
    """In-memory span recorder over patched entry points.

    Spans are tuples ``(name, start, end, parent, op, size)`` in
    ``self.spans``; ``parent`` is the index of the enclosing span (-1
    for a root) and ``op`` the operation id set by :meth:`root`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.op = -1
        self._patches = Patches()

    # -- recording -----------------------------------------------------
    def _wrap(self, function, name: str, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (
                    name,
                    start,
                    end,
                    parent,
                    self.op,
                    size(result) if size is not None and result is not None else None,
                )

        return traced

    def root(self, name: str, op: int, call, *args):
        """Run ``call(*args)`` as the root span *name* of operation *op*."""
        self.op = op
        return self._wrap(call, name, None)(*args)

    # -- patching ------------------------------------------------------
    def install(self, points=QUESTION_POINTS + WRITE_POINTS) -> None:
        for owner_path, attribute, name, size in points:
            size_fn = len if size == "len" else None
            self._patches.replace(
                resolve(owner_path),
                attribute,
                lambda original, n=name, s=size_fn: self._wrap(original, n, s),
            )

    def restore(self) -> None:
        self._patches.restore()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[tuple[int, str], float]:
        """Seconds of self time per (operation, span name)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _size in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[tuple[int, str], float] = defaultdict(float)
        for index, (name, start, end, _parent, op, _size) in enumerate(self.spans):
            totals[(op, name)] += (end - start) - child_time[index]
        return totals

    def roots(self) -> dict[int, tuple[str, float]]:
        """(root span name, seconds) per operation."""
        return {
            op: (name, end - start)
            for name, start, end, parent, op, _size in self.spans
            if parent < 0
        }

    def sizes(self, name: str) -> list[int]:
        return [s[5] for s in self.spans if s[0] == name and s[5] is not None]

    def write(self, path) -> None:
        """All spans as gzip'd JSON lines."""
        with gzip.open(path, "wt") as out:
            for index, (name, start, end, parent, op, size) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "size": size}
                    )
                    + "\n"
                )
