"""Optimized counting kernels: backend knob, shared layer DP, batching.

This module is the process-wide home of the ``optimized`` counting
backend (see ``docs/performance.md``):

- :func:`resolve_backend` — the
  ``backend="auto"|"reference"|"optimized"|"vectorized"`` knob of
  ``count_nfta_exact``, the sampler, Karp–Luby and the PQE/UR
  estimators, where differential tests and benchmarks force a tier.
  The ``vectorized`` backend (numpy; the optional ``[vectorized]``
  extra — see :mod:`repro.core.vectorized`) swaps the scalar layer DP
  for a batched array one and reuses the optimized machinery everywhere
  else.  ``auto`` (the default) runs the optimized machinery and lets
  the exact DP pick its tier per automaton (:data:`VECTOR_MIN_STATES`).
  :class:`~repro.core.estimator.PQEEngine` and the CLI accept only
  :data:`ENGINE_BACKENDS`: the engine picks the tier itself;
- :func:`dense_exact_count` — a layer-at-a-time bottom-up DP over the
  :class:`~repro.automata.optimize.DenseNFTA` bitmask indexes.  Its
  per-size layers are memoized under the automaton
  :attr:`~repro.automata.nfta.NFTA.fingerprint` (plus the symbol-weight
  vector) and *extended in place*, so repeated counts — across
  ``count_nfta`` repetitions, batch items, and whatever the
  :class:`~repro.core.cache.ReductionCache`/disk tier did not already
  absorb — pay only for sizes never seen before.  Integer and
  :class:`fractions.Fraction` weights sum order-independently, which is
  what makes the reorganized DP *bitwise* equal to the reference;
  float weights are order-sensitive, so they signal
  :data:`FLOAT_WEIGHTS` and the caller falls back to the reference DP;
- :func:`shared_plan` — fingerprint-keyed seed-independent sampling
  plans (size masks, needed pairs, split tables, membership mask tables)
  built once and reused by every ``_TreeCounter`` run over the same
  automaton.  The sampling loops themselves are untouched: they must
  consume the per-item SHA-256 seed streams in exactly the reference
  order to stay bitwise-identical at any worker count;
- :class:`TickBatcher` — chunked budget/metric accounting for the
  sampling hot loops (one ``budget_tick(phase, n)`` per chunk instead
  of ``n`` calls).  Totals are unchanged; with an active budget scope
  the chunk size drops to 1 so deadline/work enforcement keeps its
  per-sample granularity.

All caches here deduplicate concurrent builds the same way the
reduction cache does (one builder per key, waiters block then count
hits), but they are *global to the process* — their hit/miss counters
depend on process history, not on the item, so every ``kernels.*``
counter sits outside the bitwise determinism contract (see
:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

from repro.automata.nfta import NFTA
from repro.automata.optimize import DenseNFTA, optimize_nfta
from repro.core.budget import active_budget, budget_tick
from repro.errors import ReproError
from repro.obs import metric_inc

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ENGINE_BACKENDS",
    "FLOAT_WEIGHTS",
    "TickBatcher",
    "VECTOR_MIN_STATES",
    "clear_kernel_caches",
    "dense_automaton",
    "dense_exact_count",
    "evict_fingerprints",
    "resolve_backend",
    "shared_plan",
    "vectorized_available",
]

BACKENDS = ("auto", "reference", "optimized", "vectorized")
DEFAULT_BACKEND = "auto"
#: The backends an engine (and ``repro eval --kernel-backend``) may be
#: set to: the default, and the paper transcription for triage.
ENGINE_BACKENDS = ("auto", "reference")

#: Under ``backend="auto"`` the exact layer DP runs the numpy tier on
#: automata with at least this many dense states (and the scalar tier
#: below it, or without numpy).  Measured cold: numpy loses below ~57
#: states (0.2-0.75x), breaks even around 57-69 and wins 1.5-5x from
#: ~97 up; see the crossover table in ``docs/performance.md``.
VECTOR_MIN_STATES = 64

#: Sentinel returned by :func:`dense_exact_count` when the weight
#: vector contains floats: float addition is order-dependent, so only
#: the reference summation order reproduces the seed results bitwise.
FLOAT_WEIGHTS = object()


def vectorized_available() -> bool:
    """Whether the ``vectorized`` backend can run (numpy importable)."""
    from repro.core import vectorized

    return vectorized.available()


def resolve_backend(backend: str | None) -> str:
    """Normalise a backend knob (``None`` means ``'auto'``).

    Raises a contextual :class:`~repro.errors.ReproError` for unknown
    names, and for ``'vectorized'`` when numpy (the ``[vectorized]``
    optional extra) is not installed.
    """
    if backend is None:
        return DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown kernel backend {backend!r}; choose from {BACKENDS}"
        )
    if backend == "vectorized" and not vectorized_available():
        raise ReproError(
            "kernel backend 'vectorized' requires numpy, which is not "
            "installed; install the optional extra "
            "(pip install 'repro[vectorized]') or choose from "
            "('auto', 'reference', 'optimized')"
        )
    return backend


# ----------------------------------------------------------------------
# Process-wide keyed stores with build deduplication
# ----------------------------------------------------------------------

class _InFlight:
    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class _KernelStore:
    """A small LRU of compiled kernel artefacts, keyed by fingerprint.

    Mirrors the reduction cache's build deduplication (exactly one
    concurrent builder per key; waiters block then take the hit path)
    but stays metric-light: one ``kernels.<prefix>_hits`` or
    ``kernels.<prefix>_misses`` increment per lookup.
    """

    def __init__(self, prefix: str, maxsize: int):
        self._prefix = prefix
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._inflight: dict[Hashable, _InFlight] = {}

    def get_or_build(self, key: Hashable, builder: Callable[[], object]):
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    metric_inc(f"kernels.{self._prefix}_hits")
                    return self._entries[key]
                pending = self._inflight.get(key)
                if pending is None:
                    pending = _InFlight()
                    self._inflight[key] = pending
                    owner = True
                else:
                    owner = False
            if not owner:
                pending.event.wait()
                continue
            try:
                value = builder()
            except BaseException:
                with self._lock:
                    del self._inflight[key]
                pending.event.set()
                raise
            with self._lock:
                metric_inc(f"kernels.{self._prefix}_misses")
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self._maxsize:
                    self._entries.popitem(last=False)
                del self._inflight[key]
            pending.event.set()
            return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def evict_fingerprints(self, fingerprints: frozenset) -> int:
        """Drop entries whose key names one of ``fingerprints``.

        Every store key is a tuple carrying the automaton fingerprint
        (``("dense", fp)``, ``("plan", fp, size)``,
        ``("layers", fp, weights)``, ``("vlayers", fp, weights)``), so
        membership anywhere in the tuple identifies the artefacts
        compiled from that automaton.
        """
        dropped = 0
        with self._lock:
            for key in list(self._entries):
                if isinstance(key, tuple) and any(
                    part in fingerprints for part in key
                ):
                    del self._entries[key]
                    dropped += 1
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_dense_store = _KernelStore("plan_cache", maxsize=256)
_plan_store = _KernelStore("plan_cache", maxsize=256)
_layer_store = _KernelStore("layer_cache", maxsize=128)


def clear_kernel_caches() -> None:
    """Drop every compiled automaton, sampling plan and layer table.

    Benchmarks call this to measure cold passes; tests call it to make
    kernel-cache counter assertions independent of ordering."""
    _dense_store.clear()
    _plan_store.clear()
    _layer_store.clear()


def evict_fingerprints(fingerprints) -> int:
    """Drop kernel memos compiled from the given automaton fingerprints.

    The structure-aware arm of delta invalidation
    (:meth:`repro.core.cache.ReductionCache.invalidate_relations`):
    when a reduction over touched relations is evicted, the dense
    automaton, sampling plans and DP layer tables compiled from its
    NFTA go with it; kernels for untouched automata survive.  Returns
    the number of entries dropped across the three stores.
    """
    wanted = frozenset(fingerprints)
    if not wanted:
        return 0
    dropped = (
        _dense_store.evict_fingerprints(wanted)
        + _plan_store.evict_fingerprints(wanted)
        + _layer_store.evict_fingerprints(wanted)
    )
    if dropped:
        metric_inc("kernels.delta_evicted", dropped)
    return dropped


def dense_automaton(nfta: NFTA) -> DenseNFTA:
    """The compiled (pruned/deduped/interned) form of ``nfta``, shared
    process-wide under its fingerprint."""
    return _dense_store.get_or_build(
        ("dense", nfta.fingerprint), lambda: optimize_nfta(nfta)
    )


def shared_plan(key: Hashable, builder: Callable[[], object]):
    """Memoize a seed-independent sampling plan under ``key``.

    The caller (``nfta_counting``) owns the plan contents; this module
    only provides the fingerprint-keyed sharing and build dedup."""
    return _plan_store.get_or_build(key, builder)


# ----------------------------------------------------------------------
# Layer-at-a-time exact DP over dense bitmasks
# ----------------------------------------------------------------------

class _LayerTable:
    """Memoized DP layers for one (automaton, weight vector).

    ``layers[s]`` maps a dense state bitmask to the total weight of
    size-``s`` trees evaluating to exactly that subset — the dense
    mirror of the reference DP's ``table[s]`` — and is extended on
    demand: a request for a larger size resumes from the last computed
    layer instead of starting over.
    """

    __slots__ = (
        "_dense", "_weights", "_lock", "_layers", "_items",
        "_leaf_groups", "_by_arity",
    )

    def __init__(self, dense: DenseNFTA, weights: tuple):
        self._dense = dense
        self._weights = weights
        self._lock = threading.Lock()
        self._layers: list[dict[int, object]] = [{}]  # size 0 is empty
        self._items: list[list] = [[]]  # snapshot lists for enumeration
        # Zero-weight symbols contribute nothing; drop their groups once.
        self._leaf_groups: list = []
        self._by_arity: dict[int, list] = {}
        for group in dense.groups:
            weight = weights[group.symbol_id]
            if not weight:
                continue
            if group.arity == 0:
                self._leaf_groups.append((group, weight))
            else:
                self._by_arity.setdefault(group.arity, []).append(
                    (group, weight)
                )

    def count(self, size: int, checkpoint: Callable[[], None]):
        """Total weight of size-``size`` trees accepted from the initial
        state.  ``checkpoint`` runs once per newly computed layer so the
        caller's budget scope keeps its deadline granularity."""
        with self._lock:
            while len(self._layers) <= size:
                checkpoint()
                self._append_layer()
            layer = self._layers[size]
        initial_bit = self._dense.initial_bit
        total = 0
        for mask, weight in layer.items():
            if mask & initial_bit:
                total += weight
        return total

    def _append_layer(self) -> None:
        """Compute the next DP layer.

        Child-subset combinations are enumerated once per *arity* with
        the (symbol, arity) groups iterated innermost — the reference
        DP re-enumerates them per group — and combo evaluation memoizes
        per group.  Exact arithmetic keeps the regrouped summation
        bitwise-equal to the reference.
        """
        s = len(self._layers)
        items = self._items
        cell: dict[int, object] = {}
        if s == 1:
            for group, weight in self._leaf_groups:
                mask = group.leaf_mask
                cell[mask] = cell.get(mask, 0) + weight
        for arity, groups in self._by_arity.items():
            if s < arity + 1:
                continue
            total = s - 1
            if arity == 1:
                for mask, count in items[total]:
                    for group, weight in groups:
                        evaluated = group.evaluated1(mask)
                        if evaluated:
                            cell[evaluated] = (
                                cell.get(evaluated, 0) + weight * count
                            )
                continue
            if arity == 2:
                for left in range(1, total):
                    left_items = items[left]
                    right_items = items[total - left]
                    for mask_a, count_a in left_items:
                        for mask_b, count_b in right_items:
                            count = count_a * count_b
                            for group, weight in groups:
                                evaluated = group.evaluated2(mask_a, mask_b)
                                if evaluated:
                                    cell[evaluated] = (
                                        cell.get(evaluated, 0)
                                        + weight * count
                                    )
                continue
            for combo, count in self._combinations(arity, total):
                for group, weight in groups:
                    evaluated = group.evaluated_mask(combo)
                    if evaluated:
                        cell[evaluated] = (
                            cell.get(evaluated, 0) + weight * count
                        )
        self._layers.append(cell)
        self._items.append(list(cell.items()))
        metric_inc("kernels.layers_computed")

    def _combinations(self, arity: int, total: int):
        """Ordered mask tuples with sizes summing to ``total`` (arity
        ≥ 3) — the dense mirror of the reference
        ``_subset_combinations``."""
        items = self._items

        def rec(position: int, remaining: int):
            slots_left = arity - position
            if slots_left == 0:
                if remaining == 0:
                    yield (), 1
                return
            for part in range(1, remaining - (slots_left - 1) + 1):
                for mask, count in items[part]:
                    for rest, rest_count in rec(position + 1, remaining - part):
                        yield (mask,) + rest, count * rest_count

        yield from rec(0, total)


def _exact_tier(dense: DenseNFTA, backend: str) -> str:
    """The layer DP tier that counts ``dense``: an explicit tier forces
    itself; ``'auto'`` takes ``'vectorized'`` from
    :data:`VECTOR_MIN_STATES` dense states up when numpy is importable,
    else ``'optimized'``.  The state count is checked first, so small
    automata never import numpy."""
    if backend != "auto":
        return backend
    if dense.num_states >= VECTOR_MIN_STATES and vectorized_available():
        return "vectorized"
    return "optimized"


def dense_exact_count(
    nfta: NFTA, size: int, weigh, checkpoint: Callable[[], None],
    backend: str = "auto",
):
    """``(tier, count)``: the exact weighted count of size-``size``
    accepted trees and the layer DP tier (``'optimized'`` or
    ``'vectorized'``) that computed it — or ``('reference',``
    :data:`FLOAT_WEIGHTS` ``)`` when the weight vector forces the
    reference summation order, which the caller then runs.

    Bitwise-equal to the reference DP for int/Fraction weights: both
    tiers sum exactly the same per-tree weight terms, and exact
    arithmetic makes the grouping irrelevant.  The tier comes from
    ``backend`` (see :func:`_exact_tier`); the numpy tier's layer
    tables are memoized under ``("vlayers", …)`` and the scalar tier's
    under ``("layers", …)``, keyed by the tier that ran, so ``'auto'``
    and an explicit tier share memos and the two artefact families
    never shadow each other.
    """
    dense = dense_automaton(nfta)
    weights = tuple(weigh(symbol) for symbol in dense.symbols)
    for weight in weights:
        if isinstance(weight, float):
            return "reference", FLOAT_WEIGHTS
    tier = _exact_tier(dense, backend)
    if tier == "vectorized":
        from repro.core import vectorized

        table = _layer_store.get_or_build(
            ("vlayers", dense.fingerprint, weights),
            lambda: vectorized.VectorLayerTable(dense, weights),
        )
    else:
        table = _layer_store.get_or_build(
            ("layers", dense.fingerprint, weights),
            lambda: _LayerTable(dense, weights),
        )
    return tier, table.count(size, checkpoint)


# ----------------------------------------------------------------------
# Batched budget/metric ticks for the sampling loops
# ----------------------------------------------------------------------

class TickBatcher:
    """Accumulate per-sample ticks and flush them in chunks.

    ``tick()`` replaces a ``budget_tick(phase) + metric_inc(metric)``
    pair in a sampling loop; ``flush()`` (call it on every loop exit,
    including error paths) emits the pending units in one call each, so
    counter *totals* and budget *charges* are identical to the
    per-sample reference — only the call count changes.  A flush also
    records one ``kernels.batch_draws`` and the flushed
    ``kernels.batched_samples``.

    When a budget scope is active the chunk size is 1: work-limit and
    deadline checks then run per sample, exactly like the reference.
    """

    __slots__ = ("_phase", "_metric", "_chunk", "_pending")

    def __init__(self, phase: str, metric: str, chunk: int = 512):
        self._phase = phase
        self._metric = metric
        self._chunk = 1 if active_budget() is not None else chunk
        self._pending = 0

    def tick(self) -> None:
        self._pending += 1
        if self._pending >= self._chunk:
            self.flush()

    def flush(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = 0
        budget_tick(self._phase, pending)
        metric_inc(self._metric, pending)
        metric_inc("kernels.batch_draws")
        metric_inc("kernels.batched_samples", pending)
