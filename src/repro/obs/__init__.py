"""Zero-dependency telemetry: tracing, metrics and profiling hooks.

The PQE pipeline is instrumented at every hot path — decomposition
search, reduction builds, lineage construction, Karp–Luby and
Monte-Carlo sampling, CountNFTA DP and sampling, cache traffic, budget
ticks, retries and degradation rungs — through two primitives that cost
one context-variable read when telemetry is off:

- :func:`metric_inc` (and friends) update the active
  :class:`~repro.obs.metrics.MetricsRegistry`;
- :func:`span` opens a timed, nested
  :class:`~repro.obs.spans.SpanRecord` on the active
  :class:`~repro.obs.spans.Tracer`.

Both resolve the per-thread *active telemetry* — an
:class:`EvaluationTelemetry` installed via :func:`telemetry_scope`, the
same ContextVar discipline as :func:`repro.core.budget.budget_scope` —
and short-circuit to shared no-ops when none is installed, so the
instrumented code needs no conditional plumbing and the disabled cost is
negligible (asserted by ``tests/test_telemetry.py`` and measured by
``benchmarks/bench_telemetry_overhead.py``).

Entry points that enable collection:

- ``engine.probability(..., telemetry=True)`` /
  ``engine.uniform_reliability(..., telemetry=True)`` — the answer's
  ``telemetry`` attribute carries the evaluation's telemetry;
- ``engine.evaluate_batch(..., telemetry=True)`` — every item gets its
  own telemetry (attached to its answer, or to its structured error
  record when the item faults) and ``BatchResult.telemetry`` holds the
  merged view;
- CLI ``repro eval --profile`` / ``--metrics-out FILE`` and
  ``repro trace-summary FILE``.

See ``docs/observability.md`` for the span and counter catalogue and
the JSONL trace schema.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar

from repro.obs.metrics import (
    HistogramStats,
    MetricsRegistry,
    REPLAY_SENSITIVE_PREFIXES,
    SCHEDULING_SENSITIVE,
    SCHEDULING_SENSITIVE_PREFIXES,
)
from repro.obs.spans import SpanRecord, Tracer

__all__ = [
    "EvaluationTelemetry",
    "HistogramStats",
    "MetricsRegistry",
    "REPLAY_SENSITIVE_PREFIXES",
    "SCHEDULING_SENSITIVE",
    "SCHEDULING_SENSITIVE_PREFIXES",
    "SpanRecord",
    "Tracer",
    "active_telemetry",
    "metric_gauge",
    "metric_inc",
    "metric_observe",
    "span",
    "telemetry_scope",
]


class EvaluationTelemetry:
    """One evaluation's tracer + metrics registry, merged as a unit.

    The batch evaluator creates one per item and merges them (in item
    order, so the result is deterministic) into the batch-level
    telemetry exposed as ``BatchResult.telemetry``.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        return self.tracer.records

    def counter(self, name: str, default: int = 0) -> int:
        return self.metrics.counter(name, default)

    def merge(self, other: "EvaluationTelemetry") -> None:
        self.metrics.merge(other.metrics)
        self.tracer.absorb(other.tracer.records)

    def as_dict(self) -> dict:
        payload = self.metrics.as_dict()
        payload["spans"] = [record.as_dict() for record in self.spans]
        return payload

    def __repr__(self) -> str:
        return (
            f"EvaluationTelemetry(spans={len(self.tracer)}, "
            f"counters={len(self.metrics.counters)})"
        )


_ACTIVE: ContextVar[EvaluationTelemetry | None] = ContextVar(
    "repro-active-telemetry", default=None
)


def active_telemetry() -> EvaluationTelemetry | None:
    """The telemetry governing the current thread, or ``None``."""
    return _ACTIVE.get()


@contextlib.contextmanager
def telemetry_scope(telemetry: EvaluationTelemetry | None):
    """Install ``telemetry`` as the current thread's collector.

    ``None`` is a no-op scope so call sites can wrap unconditionally.
    Scopes nest; the inner scope shadows the outer for its duration
    (the batch evaluator relies on this to keep per-item telemetry
    separate from any caller-level collection).
    """
    if telemetry is None:
        yield None
        return
    token = _ACTIVE.set(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.reset(token)


class _NoopSpan:
    """Shared do-nothing context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def tag(self, **tags) -> None:
        pass

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


def span(name: str, **tags):
    """A timed span around a pipeline phase.

    Usage: ``with span("lineage.build", atoms=3): ...``.  Returns a
    shared no-op context manager when no telemetry is active — one
    context-variable read, no allocation.
    """
    telemetry = _ACTIVE.get()
    if telemetry is None:
        return _NOOP_SPAN
    return telemetry.tracer.start(name, tags)


def metric_inc(name: str, value: int = 1) -> None:
    """Add ``value`` to counter ``name`` (no-op when disabled)."""
    telemetry = _ACTIVE.get()
    if telemetry is not None:
        telemetry.metrics.inc(name, value)


def metric_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op when disabled)."""
    telemetry = _ACTIVE.get()
    if telemetry is not None:
        telemetry.metrics.gauge(name, value)


def metric_observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op when disabled)."""
    telemetry = _ACTIVE.get()
    if telemetry is not None:
        telemetry.metrics.observe(name, value)
