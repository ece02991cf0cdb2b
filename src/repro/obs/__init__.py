"""Unified observability: metrics registry, request tracing, exporters.

One import point for the whole layer::

    from repro.obs import Observability, InMemoryTraceSink

    obs = Observability(slow_threshold_s=0.25)
    obs.tracer.add_sink(InMemoryTraceSink())
    service = (
        SystemBuilder.from_rows(...)
        .observability(obs)
        .build_async_service()
    )
    ...
    print(render_prometheus(obs.registry))

Three submodules:

- :mod:`repro.obs.registry` — counters / gauges / fixed-bucket latency
  histograms in a snapshot-to-frozen :class:`MetricsRegistry`, with a
  process-default registry backing the always-on hooks.
- :mod:`repro.obs.trace` — the ``contextvars``-carried :class:`Span`
  tree, :func:`span`/:func:`propagate` primitives, the
  :class:`Tracer` with sinks and slow-query log.
- :mod:`repro.obs.export` — Prometheus text rendering + the minimal
  parser the CI smoke step uses.

:class:`Observability` bundles a registry and a tracer into the single
object ``SystemBuilder.observability()`` and the service constructors
accept.
"""

from __future__ import annotations

from .export import parse_prometheus_text, render_prometheus
from .hooks import (
    CACHE_FAMILIES,
    cache_event,
    observe_stage,
    record_recovery_damage,
    record_recovery_timings,
    stage_timer,
    wal_op,
)
from .registry import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    get_default_registry,
    set_default_registry,
)
from .trace import (
    InMemoryTraceSink,
    JsonLinesTraceSink,
    Span,
    Tracer,
    current_span,
    propagate,
    span,
)

__all__ = [
    "CACHE_FAMILIES",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemoryTraceSink",
    "JsonLinesTraceSink",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observability",
    "Span",
    "Tracer",
    "cache_event",
    "current_span",
    "get_default_registry",
    "observe_stage",
    "parse_prometheus_text",
    "propagate",
    "record_recovery_damage",
    "record_recovery_timings",
    "render_prometheus",
    "set_default_registry",
    "span",
    "stage_timer",
    "wal_op",
]


class Observability:
    """Bundle of one metrics registry + one tracer.

    *registry* defaults to the process-default registry (so service
    latency histograms land next to the hook-fed cache/WAL metrics);
    pass a fresh :class:`MetricsRegistry` and call :meth:`install` to
    isolate everything, e.g. per test.

    *trace_path* / *slow_log_path* configure JSON-lines sinks without
    constructing a :class:`Tracer` by hand.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        *,
        trace_path=None,
        slow_threshold_s: float | None = None,
        slow_log_path=None,
    ) -> None:
        self.registry = registry if registry is not None else get_default_registry()
        if tracer is None:
            sinks = [JsonLinesTraceSink(trace_path)] if trace_path is not None else []
            tracer = Tracer(
                sinks,
                slow_threshold_s=slow_threshold_s,
                slow_log_path=slow_log_path,
            )
        self.tracer = tracer

    def install(self) -> MetricsRegistry:
        """Make :attr:`registry` the process default (hooks feed it).

        Returns the previous default so callers can restore it.
        """
        return set_default_registry(self.registry)

    def trace(self, name: str, **attributes):
        """Shorthand for ``self.tracer.trace(name, **attributes)``."""
        return self.tracer.trace(name, **attributes)

    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()

    def render_prometheus(self) -> str:
        return render_prometheus(self.registry)
