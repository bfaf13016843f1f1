"""Benchmark-side tracing: spans around calls into the program's layers.

The benchmark measures every layer from outside.  :class:`Tracer`
wraps a fixed set of the program's public functions (``interpose``):
each call becomes a span with a name, start, end, parent span and the
trace id of the benchmark operation it belongs to.  Spans are kept in
memory and written out once, at the end of the traced run.

A layer's *self time* is its spans' duration minus the part of each
interval that its child spans cover, so a reduction build that
triggers a decomposition search is not charged for the search.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass

#: (span name, defining module, attribute) for every interposed
#: function.  Interposition replaces the attribute in *every* loaded
#: ``repro`` module that holds the original object, so call sites that
#: imported the function by name are traced too.
INTERPOSED = (
    ("queries.classify", "repro.queries.lifted", "classify_query"),
    ("queries.lifted_eval", "repro.queries.lifted", "evaluate_lifted_plan"),
    ("queries.lifted_eval", "repro.queries.lifted", "lifted_probability"),
    ("decomposition.search", "repro.decomposition", "decompose"),
    ("reduction.build", "repro.core.pqe_estimate", "build_pqe_reduction"),
    ("reduction.build", "repro.core.ur_reduction", "build_ur_reduction"),
    ("compile.dense", "repro.core.kernels", "dense_automaton"),
    ("compile.dense", "repro.automata.optimize", "optimize_nfta"),
    ("count.sample", "repro.automata.nfta_counting", "count_nfta"),
    ("dp.count", "repro.automata.nfta_counting", "count_nfta_exact"),
    ("lineage.build", "repro.lineage.build", "build_lineage"),
    ("lineage.wmc", "repro.lineage.exact_wmc", "dnf_probability"),
    ("lineage.karp_luby", "repro.lineage.karp_luby", "karp_luby_probability"),
    ("rpq.product", "repro.graphs.product", "build_rpq_nfa"),
    ("rpq.count", "repro.graphs.estimate", "rpq_probability_estimate"),
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; one benchmark operation at a time.

    The operation's trace id is process-wide (``operation``) rather
    than per thread, because a batch call fans one operation out
    over worker threads.  A span with no traced caller on its own
    thread is parented to the operation's root span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._trace_id: int | None = None
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        #: Reduction sizes seen by ``reduction.build`` spans.
        self.reductions: list[tuple[int, int, int]] = []

    def reset(self) -> None:
        """Forget recorded spans (interposition stays in place)."""
        with self._lock:
            self.spans = []
            self.reductions = []

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, self._trace_id)
                )

    def operation(self, trace_id: int, fn, *args, **kwargs):
        """Run one benchmark operation under its own trace id."""
        self._trace_id = trace_id
        span_id = self._root = next(self._ids)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans.append(
                    Span(span_id, "operation", start, end, None, trace_id)
                )
            self._root = None
            self._trace_id = None

    # -- interposition --------------------------------------------------

    def interpose(self) -> None:
        """Wrap every function in :data:`INTERPOSED` and the reduction
        cache's builder calls.  Undone by :meth:`restore`."""
        import importlib

        for name, module_name, attribute in INTERPOSED:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                if getattr(loaded, attribute, None) is original:
                    self._patch(loaded, attribute, wrapper)
        self._interpose_cache()

    def _wrap(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name != "reduction.build":
                return tracer.record(name, original, *args, **kwargs)
            # Sizes are those of the outermost build: a Theorem 1
            # reduction, not the Proposition 1 step inside it.
            outermost = not getattr(tracer._local, "building", False)
            tracer._local.building = True
            try:
                result = tracer.record(name, original, *args, **kwargs)
            finally:
                tracer._local.building = not outermost
            if outermost:
                with tracer._lock:
                    tracer.reductions.append((
                        len(result.nfta.states),
                        result.nfta.num_transitions,
                        result.tree_size,
                    ))
            return result

        return traced

    def _interpose_cache(self) -> None:
        from repro.core.cache import ReductionCache

        original = ReductionCache.get_or_build
        tracer = self

        @functools.wraps(original)
        def get_or_build(cache, key, builder, *args, **kwargs):
            def timed_builder():
                return tracer.record("cache.build", builder)

            return original(cache, key, timed_builder, *args, **kwargs)

        self._patch(ReductionCache, "get_or_build", get_or_build)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Σ self time per span name (children's coverage subtracted)."""
        children: dict[int, list[Span]] = {}
        for record in self.spans:
            if record.parent is not None:
                children.setdefault(record.parent, []).append(record)
        totals: dict[str, float] = {}
        for record in self.spans:
            covered = _covered(record, children.get(record.span_id, ()))
            totals[record.name] = (
                totals.get(record.name, 0.0) + record.duration - covered
            )
        return totals

    def inclusive_times(self) -> dict[str, float]:
        """Σ span duration per name, without nesting double counts."""
        by_id = {record.span_id: record for record in self.spans}
        totals: dict[str, float] = {}
        for record in self.spans:
            if _has_ancestor_named(record, by_id, record.name):
                continue
            totals[record.name] = (
                totals.get(record.name, 0.0) + record.duration
            )
        return totals

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in sorted(self.spans, key=lambda r: r.start):
                out.write(json.dumps({
                    "id": record.span_id,
                    "name": record.name,
                    "start": record.start,
                    "end": record.end,
                    "parent": record.parent,
                    "trace_id": record.trace_id,
                }) + "\n")


def _covered(record: Span, kids) -> float:
    """Length of the union of the children's intervals within ``record``."""
    intervals = sorted(
        (max(kid.start, record.start), min(kid.end, record.end))
        for kid in kids
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def _has_ancestor_named(record: Span, by_id: dict, name: str) -> bool:
    parent = by_id.get(record.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False
