"""Metrics-invariant tests for the observability layer (:mod:`repro.obs`).

The telemetry contract locked down here:

- **conservation** — ``cache.hits + cache.misses == cache.lookups`` in
  every registry, per item and merged;
- **nesting** — every child span's interval lies inside its parent's
  (exact, not epsilon-tolerant: the tracer orders its clock reads);
- **merge = sum** — the batch registry equals the fold of the per-item
  registries, at workers 1, 4 and 8;
- **determinism** — deterministic counters are bitwise-identical for a
  fixed seed across runs and worker counts (only
  :data:`repro.obs.SCHEDULING_SENSITIVE` may differ);
- **coverage** — per-item span trees cover ≥ 95 % of measured item wall
  time on a 16-item batch;
- **isolation** — telemetry never changes an answer, and disabled hooks
  cost < 5 % of a batch's runtime;
- **fault capture** — an item that faults still carries the telemetry
  recorded before the fault (exercised per injection site).

The polynomial-growth checks on sampling counters live at the bottom
under ``-m statistical``.
"""

from __future__ import annotations

import io
import time

import pytest

from repro.bench.harness import fit_growth_exponent, telemetry_table
from repro.core.estimator import PQEEngine
from repro.core.parallel import BatchItem
from repro.core.pqe_estimate import pqe_estimate
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import ReproError
from repro.lineage.build import build_lineage
from repro.lineage.karp_luby import karp_luby_probability
from repro.obs import (
    EvaluationTelemetry,
    SCHEDULING_SENSITIVE,
    active_telemetry,
    metric_inc,
    span,
    telemetry_scope,
)
from repro.obs.export import (
    read_trace,
    summarize_trace,
    telemetry_records,
    write_trace,
)
from repro.queries import parse_query, path_query
from repro.testing.faults import FAULT_SITES, FaultSpec, inject_faults
from repro.workloads import complete_layered_path_instance, uniform_half

RS_QUERY = parse_query("Q :- R(x, y), S(y, z)")
RST_QUERY = parse_query("Q :- R(x, y), S(y, z), T(z, w)")


def _path_pdb(paths: int = 4) -> ProbabilisticDatabase:
    labels: dict[Fact, str] = {}
    for i in range(paths):
        labels[Fact("R", (f"a{i}", f"a{i + 1}"))] = "1/2"
        labels[Fact("S", (f"a{i + 1}", f"b{i}"))] = "1/3"
        labels[Fact("T", (f"b{i}", f"c{i}"))] = "2/5"
    return ProbabilisticDatabase(labels)


def _mixed_items(count: int = 16) -> list[BatchItem]:
    """FPRAS-heavy items over two query shapes, sharing one cache."""
    pdb = _path_pdb()
    items = []
    for i in range(count):
        query = RS_QUERY if i % 2 == 0 else RST_QUERY
        items.append(BatchItem(query, pdb, method="fpras"))
    return items


def _item_telemetries(batch) -> list[EvaluationTelemetry]:
    collected = []
    for result in batch.results:
        telemetry = (
            result.answer.telemetry
            if result.answer is not None
            else result.error.telemetry
        )
        assert telemetry is not None
        collected.append(telemetry)
    return collected


# ---------------------------------------------------------------------------
# conservation


def _assert_conservation(metrics) -> None:
    lookups = metrics.counter("cache.lookups")
    hits = metrics.counter("cache.hits")
    misses = metrics.counter("cache.misses")
    assert hits + misses == lookups


@pytest.mark.parametrize("workers", [1, 4, 8])
def test_cache_counter_conservation(workers):
    engine = PQEEngine(seed=11)
    batch = engine.evaluate_batch(
        _mixed_items(), seed=11, max_workers=workers, telemetry=True
    )
    assert batch.telemetry.counter("cache.lookups") > 0
    _assert_conservation(batch.telemetry.metrics)
    for telemetry in _item_telemetries(batch):
        _assert_conservation(telemetry.metrics)


# ---------------------------------------------------------------------------
# span nesting


def _assert_nested(telemetry: EvaluationTelemetry) -> None:
    by_id = {record.span_id: record for record in telemetry.spans}
    for record in telemetry.spans:
        if record.parent_id is None:
            continue
        parent = by_id[record.parent_id]
        assert parent.started <= record.started
        assert record.ended <= parent.ended


def test_span_nesting_single_call():
    engine = PQEEngine(seed=5)
    answer = engine.probability(
        RS_QUERY, _path_pdb(), method="fpras", telemetry=True
    )
    telemetry = answer.telemetry
    assert telemetry is not None
    names = [record.name for record in telemetry.spans]
    assert "probability" in names
    assert "route.fpras" in names
    roots = telemetry.tracer.roots()
    assert len(roots) == 1 and roots[0].name == "probability"
    _assert_nested(telemetry)


@pytest.mark.parametrize("workers", [1, 4, 8])
def test_span_nesting_batch_items(workers):
    engine = PQEEngine(seed=5)
    batch = engine.evaluate_batch(
        _mixed_items(8), seed=5, max_workers=workers, telemetry=True
    )
    for telemetry in _item_telemetries(batch):
        roots = telemetry.tracer.roots()
        assert len(roots) == 1 and roots[0].name == "item"
        _assert_nested(telemetry)
    # Merged view keeps the per-item trees disjoint and well-formed.
    _assert_nested(batch.telemetry)
    assert len(batch.telemetry.tracer.roots()) == 8


# ---------------------------------------------------------------------------
# merge = sum of per-item registries


@pytest.mark.parametrize("workers", [1, 4, 8])
def test_batch_merge_equals_sum_of_items(workers):
    engine = PQEEngine(seed=3)
    batch = engine.evaluate_batch(
        _mixed_items(), seed=3, max_workers=workers, telemetry=True
    )
    folded = EvaluationTelemetry()
    for telemetry in _item_telemetries(batch):
        folded.merge(telemetry)
    assert folded.metrics.counters == batch.telemetry.metrics.counters
    assert folded.metrics.gauges == batch.telemetry.metrics.gauges
    assert (
        folded.metrics.histograms.keys()
        == batch.telemetry.metrics.histograms.keys()
    )
    for name, stats in folded.metrics.histograms.items():
        assert stats == batch.telemetry.metrics.histograms[name]
    assert len(folded.tracer) == len(batch.telemetry.tracer)


# ---------------------------------------------------------------------------
# determinism


def _counters_at(workers: int, seed: int = 23) -> dict:
    engine = PQEEngine(seed=seed)
    batch = engine.evaluate_batch(
        _mixed_items(), seed=seed, max_workers=workers, telemetry=True
    )
    return batch.telemetry.metrics.deterministic_counters()


def test_counters_identical_across_runs_and_worker_counts():
    baseline = _counters_at(1)
    assert baseline  # the workload must actually record counters
    for workers in (1, 4, 8):
        assert _counters_at(workers) == baseline
    # Repeat run, same seed: bitwise-identical again.
    assert _counters_at(4) == baseline


def _sampler_counters_at(workers: int, seed: int = 5) -> dict:
    """Gadget and native-weight FPRAS items whose small exact-set cap
    mixes exact nodes with sampled unions."""
    pdb = _path_pdb()
    items = [
        BatchItem(query, pdb, method=method)
        for query in (RS_QUERY, RST_QUERY)
        for method in ("fpras", "fpras-weighted")
    ]
    engine = PQEEngine(seed=seed, exact_set_cap=64)
    batch = engine.evaluate_batch(
        items, seed=seed, max_workers=workers, telemetry=True
    )
    return batch.telemetry.metrics.deterministic_counters()


def test_sampler_work_counters_identical_across_worker_counts():
    """``count_nfta.trees_built`` and ``count_nfta.membership_checks``
    are per-run counts, added once per run: nothing from the
    process-global plan memos, so they sit inside the contract."""
    baseline = _sampler_counters_at(1)
    assert baseline["count_nfta.trees_built"] > 0
    assert baseline["count_nfta.membership_checks"] > 0
    for workers in (1, 4):
        assert _sampler_counters_at(workers) == baseline


def test_scheduling_sensitive_counters_are_catalogued():
    # inflight waits cannot occur at workers=1; the name must therefore
    # be excluded from the determinism contract, and is.
    assert "cache.inflight_waits" in SCHEDULING_SENSITIVE
    engine = PQEEngine(seed=23)
    batch = engine.evaluate_batch(
        _mixed_items(), seed=23, max_workers=1, telemetry=True
    )
    assert batch.telemetry.counter("cache.inflight_waits") == 0
    assert (
        "cache.inflight_waits"
        not in batch.telemetry.metrics.deterministic_counters()
    )


def test_delta_counters_are_classified_history_dependent():
    """``delta.*`` instruments database mutation: how many artifacts a
    delta invalidates or spares depends on what earlier traffic warmed,
    so the family sits outside both the bitwise-determinism and the
    replay-stability contracts."""
    from repro.obs import (
        REPLAY_SENSITIVE_PREFIXES,
        SCHEDULING_SENSITIVE_PREFIXES,
        EvaluationTelemetry,
        telemetry_scope,
    )

    assert "delta." in SCHEDULING_SENSITIVE_PREFIXES
    assert "delta." in REPLAY_SENSITIVE_PREFIXES

    from repro.db import Delta, DeltaOp, Fact, VersionedDatabase

    telemetry = EvaluationTelemetry()
    vdb = VersionedDatabase(_path_pdb())
    some_fact = next(iter(vdb.pdb.probabilities))
    with telemetry_scope(telemetry):
        vdb.apply(Delta([DeltaOp.reweight(some_fact, "1/13")]))
    counters = telemetry.metrics.counters
    assert counters["delta.applied"] == 1
    assert counters["delta.ops"] == 1
    for name in counters:
        if name.startswith("delta."):
            assert (
                name not in telemetry.metrics.deterministic_counters()
            )
            assert (
                name not in telemetry.metrics.replay_stable_counters()
            )


def test_telemetry_does_not_change_answers():
    engine = PQEEngine(seed=7)
    plain = engine.evaluate_batch(_mixed_items(), seed=7)
    profiled = engine.evaluate_batch(_mixed_items(), seed=7, telemetry=True)
    assert plain.values == profiled.values
    assert plain.methods == profiled.methods
    # PQEAnswer equality ignores the telemetry attachment.
    assert plain.answers == profiled.answers


def test_no_collection_without_opt_in():
    engine = PQEEngine(seed=7)
    answer = engine.probability(RS_QUERY, _path_pdb(), method="fpras")
    assert answer.telemetry is None
    assert active_telemetry() is None
    batch = engine.evaluate_batch(_mixed_items(4), seed=7)
    assert batch.telemetry is None
    assert all(r.answer.telemetry is None for r in batch.results)


# ---------------------------------------------------------------------------
# coverage (acceptance gate)


def test_batch_span_coverage_at_least_95_percent():
    engine = PQEEngine(seed=41)
    batch = engine.evaluate_batch(
        _mixed_items(16), seed=41, max_workers=4, telemetry=True
    )
    items = [
        {"index": r.index, "ok": r.ok, "elapsed": r.elapsed}
        for r in batch.results
    ]
    summary = summarize_trace(
        list(telemetry_records(batch.telemetry, {"items": 16}, items))
    )
    assert summary["items"] == 16
    assert summary["coverage"] is not None
    assert summary["coverage"] >= 0.95


# ---------------------------------------------------------------------------
# export round-trip


def test_trace_roundtrip_and_summary():
    engine = PQEEngine(seed=13)
    batch = engine.evaluate_batch(
        _mixed_items(6), seed=13, max_workers=2, telemetry=True
    )
    items = [
        {"index": r.index, "ok": r.ok, "elapsed": r.elapsed}
        for r in batch.results
    ]
    buffer = io.StringIO()
    lines = write_trace(
        buffer, batch.telemetry, meta={"seed": 13}, items=items
    )
    buffer.seek(0)
    records = read_trace(buffer)
    assert len(records) == lines
    assert records[0]["type"] == "meta" and records[0]["seed"] == 13
    span_records = [r for r in records if r["type"] == "span"]
    assert len(span_records) == len(batch.telemetry.spans)
    counter_records = {
        r["name"]: r["value"] for r in records if r["type"] == "counter"
    }
    assert counter_records == batch.telemetry.metrics.counters
    summary = summarize_trace(records)
    assert summary["items"] == 6
    assert summary["phases"]["item"]["spans"] == 6
    assert summary["counters"] == counter_records


def test_read_trace_rejects_malformed_lines():
    with pytest.raises(ReproError):
        read_trace(io.StringIO("not json\n"))
    with pytest.raises(ReproError):
        read_trace(io.StringIO('{"no_type": 1}\n'))
    with pytest.raises(ReproError):
        read_trace(io.StringIO('[1, 2]\n'))


def test_telemetry_table_renders_phases():
    engine = PQEEngine(seed=2)
    answer = engine.probability(
        RS_QUERY, _path_pdb(), method="fpras", telemetry=True
    )
    rendered = telemetry_table(answer.telemetry).render()
    assert "route.fpras" in rendered
    assert "phase" in rendered


# ---------------------------------------------------------------------------
# fault capture: partial telemetry survives the fault


@pytest.mark.faults
def test_faulted_item_carries_partial_telemetry():
    # exact_set_cap=0 keeps the counter in its sampled regime, so every
    # item runs CountNFTA itself (sampled counts are never cached) and
    # the scoped fault deterministically hits item 2 only.
    engine = PQEEngine(seed=17, exact_set_cap=0)
    items = [
        BatchItem(RS_QUERY, _path_pdb(), method="fpras-weighted")
        for _ in range(6)
    ]
    with inject_faults(FaultSpec("counting.nfta", scope=2)):
        batch = engine.evaluate_batch(
            items, seed=17, max_workers=4, on_error="skip", telemetry=True
        )
    failed = [r for r in batch.results if not r.ok]
    assert [r.index for r in failed] == [2]
    error = failed[0].error
    assert error.telemetry is not None
    # The item root span closed on unwind and covers the fault window.
    roots = error.telemetry.tracer.roots()
    assert len(roots) == 1 and roots[0].name == "item"
    _assert_nested(error.telemetry)
    # Work done before the fault survives in the error record: the item
    # looked up its (possibly sibling-built) reduction before counting
    # faulted, and its route span closed around the failure.
    assert error.telemetry.counter("cache.lookups") > 0
    span_names = {record.name for record in error.telemetry.spans}
    assert "route.fpras-weighted" in span_names
    # The merged batch telemetry includes the faulted item's partial data.
    assert len(batch.telemetry.tracer.roots()) == 6
    # Healthy siblings are unaffected.
    for result in batch.results:
        if result.ok:
            assert result.answer.telemetry is not None


# One batch item whose evaluation passes through each injection site
# (``sampling.trees`` is only reachable via repro.core.sampling,
# ``decomposition.search`` needs a cyclic query, and ``serve.request``
# sits in the daemon's request path above the engine — covered
# elsewhere).
_SITE_ITEMS = {
    "reduction.pqe": ("fpras", "probability"),
    "reduction.ur": ("fpras", "reliability"),
    "lineage.build": ("karp-luby", "probability"),
    "lineage.karp_luby": ("karp-luby", "probability"),
    "counting.nfta": ("fpras", "probability"),
    "monte_carlo.sample": ("monte-carlo", "probability"),
    "rpq.count": ("exact", "rpq"),
}


def test_site_items_cover_engine_reachable_sites():
    unreachable = {
        "sampling.trees", "decomposition.search", "serve.request",
        "db.delta",
    }
    assert set(_SITE_ITEMS) == set(FAULT_SITES) - unreachable


@pytest.mark.faults
@pytest.mark.parametrize("site", sorted(_SITE_ITEMS))
def test_fault_matrix_partial_telemetry_every_site(site):
    """Whatever phase faults, the error record keeps what was measured."""
    method, task = _SITE_ITEMS[site]
    if task == "rpq":
        from repro.graphs import Edge, ProbabilisticGraph, RPQQuery

        database = ProbabilisticGraph.uniform(
            [Edge("s", "a", "m"), Edge("m", "b", "t")]
        )
        query = RPQQuery("a b", "s", "t")
    else:
        pdb = _path_pdb()
        database = pdb.instance if task == "reliability" else pdb
        query = RS_QUERY
    engine = PQEEngine(seed=29, exact_set_cap=0)
    items = [BatchItem(query, database, task=task, method=method)]
    with inject_faults(FaultSpec(site)):
        batch = engine.evaluate_batch(
            items, seed=29, max_workers=1, on_error="skip", telemetry=True
        )
    assert not batch.ok
    error = batch.results[0].error
    assert error.phase == site
    assert error.telemetry is not None
    roots = error.telemetry.tracer.roots()
    assert len(roots) == 1 and roots[0].name == "item"
    _assert_nested(error.telemetry)


# ---------------------------------------------------------------------------
# overhead guard (<5% when disabled)


def test_disabled_hooks_cost_under_five_percent():
    engine = PQEEngine(seed=19)
    items = _mixed_items(8)
    engine.evaluate_batch(items, seed=19, max_workers=1)  # warm caches

    started = time.perf_counter()
    engine.evaluate_batch(items, seed=19, max_workers=1)
    disabled_seconds = time.perf_counter() - started

    # Per-call cost of the disabled primitives, measured directly.
    calls = 50_000
    started = time.perf_counter()
    for _ in range(calls):
        with span("telemetry.noop"):
            pass
    span_cost = (time.perf_counter() - started) / calls
    started = time.perf_counter()
    for _ in range(calls):
        metric_inc("telemetry.noop")
    inc_cost = (time.perf_counter() - started) / calls

    # Estimate the event volume from an enabled run of the same batch.
    enabled = engine.evaluate_batch(
        items, seed=19, max_workers=1, telemetry=True
    )
    counters = enabled.telemetry.metrics.counters
    inc_events = sum(counters.values())
    span_events = len(enabled.telemetry.spans)

    projected = span_events * span_cost + inc_events * inc_cost
    assert projected < 0.05 * disabled_seconds, (
        f"disabled instrumentation projected at {projected:.6f}s "
        f"({span_events} spans, {inc_events} increments) vs "
        f"{disabled_seconds:.6f}s batch time"
    )


# ---------------------------------------------------------------------------
# scope plumbing


def test_telemetry_scope_nests_and_restores():
    outer = EvaluationTelemetry()
    inner = EvaluationTelemetry()
    assert active_telemetry() is None
    with telemetry_scope(outer):
        metric_inc("scope.outer")
        with telemetry_scope(inner):
            assert active_telemetry() is inner
            metric_inc("scope.inner")
        assert active_telemetry() is outer
    assert active_telemetry() is None
    assert outer.counter("scope.outer") == 1
    assert outer.counter("scope.inner") == 0
    assert inner.counter("scope.inner") == 1


def test_nested_engine_call_contributes_to_enclosing_scope():
    engine = PQEEngine(seed=31)
    enclosing = EvaluationTelemetry()
    with telemetry_scope(enclosing):
        answer = engine.probability(
            RS_QUERY, _path_pdb(), method="fpras", telemetry=True
        )
    # No second collector was created: the call joined the active one.
    assert answer.telemetry is None
    assert enclosing.counter("count_nfta.repetitions") >= 1


# ---------------------------------------------------------------------------
# statistical: counters track the theory's sampling effort


@pytest.mark.statistical
def test_karp_luby_samples_grow_quadratically_in_inverse_epsilon():
    instance = complete_layered_path_instance(3, 2)
    pdb = uniform_half(instance)
    formula = build_lineage(path_query(3), instance)
    epsilons = [0.4, 0.2, 0.1, 0.05]
    samples = []
    for epsilon in epsilons:
        telemetry = EvaluationTelemetry()
        with telemetry_scope(telemetry):
            karp_luby_probability(
                formula, pdb.probabilities, epsilon=epsilon, seed=1
            )
        samples.append(telemetry.counter("karp_luby.samples_drawn"))
    assert all(b > a for a, b in zip(samples, samples[1:]))
    slope = fit_growth_exponent(
        [1 / e for e in epsilons], [float(s) for s in samples]
    )
    # required_samples = ceil(3 m ln(2/δ) / ε²): exponent 2 in 1/ε.
    assert 1.8 <= slope <= 2.2


@pytest.mark.statistical
def test_count_nfta_sampling_grows_polynomially_in_inverse_epsilon():
    pdb = uniform_half(complete_layered_path_instance(3, 2))
    epsilons = [0.3, 0.15, 0.075]
    samples = []
    for epsilon in epsilons:
        telemetry = EvaluationTelemetry()
        with telemetry_scope(telemetry):
            result = pqe_estimate(
                path_query(3), pdb, epsilon=epsilon, seed=4,
                exact_set_cap=0,
            )
        assert not result.exact
        samples.append(telemetry.counter("count_nfta.samples_drawn"))
    assert all(b > a for a, b in zip(samples, samples[1:]))
    slope = fit_growth_exponent(
        [1 / e for e in epsilons], [float(s) for s in samples]
    )
    # Per-union budget is Θ(1/ε²); tolerate the constant 64-sample floor.
    assert 1.0 <= slope <= 2.5


@pytest.mark.statistical
def test_count_nfta_sampling_grows_polynomially_with_instance():
    widths = [2, 3, 4]
    sizes = []
    samples = []
    for width in widths:
        instance = complete_layered_path_instance(3, width)
        pdb = uniform_half(instance)
        telemetry = EvaluationTelemetry()
        with telemetry_scope(telemetry):
            pqe_estimate(
                path_query(3), pdb, epsilon=0.3, seed=4, exact_set_cap=0,
            )
        sizes.append(len(instance))
        samples.append(telemetry.counter("count_nfta.samples_drawn"))
    assert all(b > a for a, b in zip(samples, samples[1:]))
    slope = fit_growth_exponent(
        [float(s) for s in sizes], [float(s) for s in samples]
    )
    # Polynomial in |H| (Theorem 1), far from the 2^|D| of enumeration.
    assert 0.5 <= slope <= 6.0


@pytest.mark.statistical
def test_lineage_clause_counter_reproduces_blowup():
    """``lineage.clauses_built`` equals the hom count w^(i+1) on the
    complete layered 3-path — the Θ(|D|^|Q|) blow-up of the intro."""
    widths = [2, 3, 4, 5]
    sizes = []
    clauses = []
    for width in widths:
        instance = complete_layered_path_instance(3, width)
        telemetry = EvaluationTelemetry()
        with telemetry_scope(telemetry):
            build_lineage(path_query(3), instance)
        built = telemetry.counter("lineage.clauses_built")
        assert built == width ** 4
        assert (
            telemetry.counter("lineage.witnesses_enumerated") == built
        )
        sizes.append(len(instance))
        clauses.append(built)
    slope = fit_growth_exponent(
        [float(s) for s in sizes], [float(c) for c in clauses]
    )
    # |D| = 3w², clauses = w⁴ = (|D|/3)²: exponent 2 in |D|.
    assert 1.8 <= slope <= 2.2
