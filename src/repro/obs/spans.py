"""Structured tracing: nested spans over the evaluation pipeline.

A :class:`Tracer` records a tree of :class:`SpanRecord` objects, one per
pipeline phase the evaluation passed through (decomposition search,
reduction build, lineage construction, counting, sampling, …).  The
*current* span is tracked per-thread through a
:class:`contextvars.ContextVar` — the same scoping discipline as
:func:`repro.core.budget.budget_scope` — so nesting is correct even when
the batch evaluator runs many items concurrently: each worker thread
sees only its own span stack.

Timing uses ``time.perf_counter`` for wall intervals (monotonic, so the
containment invariant ``child ⊆ parent`` holds exactly: the parent's
start is read before the child's, and the child's end before the
parent's) and ``time.thread_time`` for per-thread CPU seconds.  A span
additionally records the absolute wall-clock time at which it started
(``wall``) so exported traces can be correlated with external logs.

Spans are cheap but not free; production code never calls
``Tracer.start`` directly.  It goes through :func:`repro.obs.span`,
which short-circuits to a shared no-op context manager when no telemetry
is active — a single context-variable read.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = ["SpanRecord", "Tracer"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    ``span_id``/``parent_id`` encode the tree (ids are unique within one
    tracer; roots have ``parent_id`` ``None``).  ``started``/``ended``
    are ``perf_counter`` readings, ``cpu`` is the thread-CPU seconds
    consumed between them, and ``wall`` is the epoch time at start.
    """

    span_id: int
    parent_id: int | None
    name: str
    tags: tuple[tuple[str, object], ...]
    started: float
    ended: float
    cpu: float
    wall: float

    @property
    def duration(self) -> float:
        return self.ended - self.started

    @property
    def tag_dict(self) -> dict:
        return dict(self.tags)

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "tags": dict(self.tags),
            "started": self.started,
            "ended": self.ended,
            "duration": self.duration,
            "cpu": self.cpu,
            "wall": self.wall,
        }


#: The id of the span enclosing the current thread's work (``None`` at
#: the root).  Per-thread by construction, like the budget scope.
_CURRENT_SPAN: ContextVar[int | None] = ContextVar(
    "repro-current-span", default=None
)


class _ActiveSpan:
    """Context manager for one open span; records on exit."""

    __slots__ = (
        "_tracer", "_name", "_tags", "_span_id", "_parent_id",
        "_started", "_cpu_started", "_wall", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, tags: dict):
        self._tracer = tracer
        self._name = name
        self._tags = tags
        self._span_id = tracer._allocate_id()
        self._parent_id = _CURRENT_SPAN.get()

    def tag(self, **tags) -> None:
        """Add tags known only once the span's work has run."""
        self._tags.update(tags)

    def __enter__(self) -> "_ActiveSpan":
        self._token = _CURRENT_SPAN.set(self._span_id)
        self._wall = time.time()
        self._cpu_started = time.thread_time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ended = time.perf_counter()
        cpu = time.thread_time() - self._cpu_started
        _CURRENT_SPAN.reset(self._token)
        self._tracer._record(
            SpanRecord(
                span_id=self._span_id,
                parent_id=self._parent_id,
                name=self._name,
                tags=tuple(sorted(self._tags.items())),
                started=self._started,
                ended=ended,
                cpu=cpu,
                wall=self._wall,
            )
        )
        return False


class Tracer:
    """Thread-safe collector of finished spans.

    Span ids are allocated from a per-tracer counter under a lock, so
    they are deterministic whenever the traced evaluation is
    single-threaded (which per-item evaluations are — the batch
    evaluator gives every item its own tracer and merges afterwards).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._next_id = 1

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    def start(self, name: str, tags: dict) -> _ActiveSpan:
        """Open a span; use as a context manager."""
        return _ActiveSpan(self, name, tags)

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        """Finished spans, ordered by span id (creation order)."""
        with self._lock:
            return tuple(
                sorted(self._records, key=lambda r: r.span_id)
            )

    @classmethod
    def from_records(cls, records) -> "Tracer":
        """Rebuild a tracer from finished spans, **preserving ids**.

        The transport path for process-isolated batch workers: a
        subprocess ships its item tracer's records back as plain data,
        and the supervisor rebuilds an equivalent tracer — ids intact,
        so the result is indistinguishable from the thread backend's.
        (Contrast :meth:`absorb`, which re-bases ids to merge two live
        tracers.)
        """
        tracer = cls()
        tracer._records.extend(records)
        tracer._next_id = (
            max((r.span_id for r in records), default=0) + 1
        )
        return tracer

    def absorb(self, records: tuple[SpanRecord, ...]) -> None:
        """Merge another tracer's finished spans into this one.

        Ids are re-based past this tracer's counter so merged trees stay
        disjoint; parent links are remapped with the same offset.  The
        batch evaluator merges item tracers in index order, which keeps
        the combined record sequence deterministic.
        """
        if not records:
            return
        with self._lock:
            offset = self._next_id
            max_id = 0
            for record in records:
                max_id = max(max_id, record.span_id)
                self._records.append(
                    dataclasses.replace(
                        record,
                        span_id=record.span_id + offset,
                        parent_id=(
                            record.parent_id + offset
                            if record.parent_id is not None
                            else None
                        ),
                    )
                )
            self._next_id = offset + max_id + 1

    def roots(self) -> tuple[SpanRecord, ...]:
        """Spans with no parent, in id order."""
        return tuple(r for r in self.records if r.parent_id is None)

    def children_of(self, span_id: int) -> tuple[SpanRecord, ...]:
        return tuple(
            r for r in self.records if r.parent_id == span_id
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
