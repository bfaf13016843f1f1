"""Per-layer metrics and the traced run that produces them.

A traced run makes one *untraced* pass over a fixed operation list,
then two *traced* passes over the same list.  The traced passes give
the per-layer figures (from the first) and the counter-identity check
(first against second); the untraced pass is the base of
``trace.overhead_ratio``.
"""

from __future__ import annotations

from common import deterministic_counters, ratio
from spans import Tracer

#: name → unit for every per-layer metric, in BENCHMARK.json order.
PER_LAYER = {
    "queries.classify_s": "s",
    "queries.lifted_eval_s": "s",
    "decomposition.search_s": "s",
    "decomposition.orders_tried": "count",
    "reduction.build_s": "s",
    "reduction.nfta_states": "count",
    "reduction.nfta_transitions": "count",
    "reduction.tree_size": "count",
    "compile.dense_s": "s",
    "compile.states_pruned": "count",
    "count.sample_s": "s",
    "count.samples_drawn": "count",
    "count.dp_cells": "count",
    "count.samples_per_s": "1/s",
    "dp.count_s": "s",
    "dp.layers_computed": "count",
    "dp.vectorized_layers": "count",
    "lineage.build_s": "s",
    "lineage.clauses_built": "count",
    "lineage.wmc_s": "s",
    "lineage.karp_luby_s": "s",
    "karp_luby.samples_drawn": "count",
    "rpq.product_s": "s",
    "rpq.count_s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.build_s": "s",
    "parallel.worker_busy_ratio": "ratio",
    "parallel.item_p50_s": "s",
    "parallel.item_max_s": "s",
    "serve.queue_p95_s": "s",
    "serve.engine_p50_s": "s",
    "serve.http_p50_s": "s",
    "serve.registry_hit_ratio": "ratio",
    "serve.generator_late_p95_s": "s",
    "delta.invalidated": "count",
    "delta.survived": "count",
    "journal.bytes_per_answer": "bytes",
    "journal.bytes_per_delta": "bytes",
    "trace.overhead_ratio": "ratio",
}

#: span name → per-layer time metric (self time of the layer's calls).
_SELF_TIMES = {
    "queries.classify": "queries.classify_s",
    "queries.lifted_eval": "queries.lifted_eval_s",
    "decomposition.search": "decomposition.search_s",
    "reduction.build": "reduction.build_s",
    "compile.dense": "compile.dense_s",
    "count.sample": "count.sample_s",
    "dp.count": "dp.count_s",
    "lineage.build": "lineage.build_s",
    "lineage.wmc": "lineage.wmc_s",
    "lineage.karp_luby": "lineage.karp_luby_s",
    "rpq.product": "rpq.product_s",
    "rpq.count": "rpq.count_s",
}

#: program counter → per-layer metric.
_COUNTERS = {
    "decomposition.orders_tried": "decomposition.orders_tried",
    "kernels.states_pruned": "compile.states_pruned",
    "count_nfta.samples_drawn": "count.samples_drawn",
    "count_nfta.dp_cells": "count.dp_cells",
    "kernels.layers_computed": "dp.layers_computed",
    "kernels.vectorized_layers": "dp.vectorized_layers",
    "lineage.clauses_built": "lineage.clauses_built",
    "karp_luby.samples_drawn": "karp_luby.samples_drawn",
    "cache.lookups": "cache.lookups",
}


def empty() -> dict:
    return {name: 0.0 for name in PER_LAYER}


def from_counters(metrics: dict, counters: dict) -> None:
    """Fill the counter-derived metrics from program counters."""
    for counter, metric in _COUNTERS.items():
        metrics[metric] = counters.get(counter, 0)
    metrics["cache.hit_ratio"] = ratio(
        counters.get("cache.hits", 0), counters.get("cache.lookups", 0)
    )


def from_tracer(tracer: Tracer, counters: dict) -> dict:
    """Per-layer metrics from one traced pass's spans and counters."""
    metrics = empty()
    self_times = tracer.self_times()
    for span_name, metric in _SELF_TIMES.items():
        metrics[metric] = self_times.get(span_name, 0.0)
    metrics["cache.build_s"] = tracer.inclusive_times().get("cache.build", 0.0)
    if tracer.reductions:
        for position, metric in enumerate((
            "reduction.nfta_states",
            "reduction.nfta_transitions",
            "reduction.tree_size",
        )):
            metrics[metric] = sum(
                sizes[position] for sizes in tracer.reductions
            ) / len(tracer.reductions)
    from_counters(metrics, counters)
    metrics["count.samples_per_s"] = ratio(
        metrics["count.samples_drawn"], metrics["count.sample_s"]
    )
    return metrics


def counter_mismatch(one: dict, counters: dict) -> str | None:
    """The problem when a second traced run's deterministic counters
    differ from ``one`` (the first run's), else None."""
    two = deterministic_counters(counters)
    changed = sorted(
        name for name in set(one) | set(two) if one.get(name) != two.get(name)
    )
    return f"deterministic counters differ: {changed}" if changed else None


def traced_run(workload, trace_path) -> dict:
    """Run the workload's traced protocol.

    ``workload.traced_pass(tracer)`` makes one pass over the fixed
    operation list and returns its wall time, merged program counters,
    answer values, correctness problems and (optionally) ``extra``
    per-layer metrics.  Returns the per-layer metrics, the correctness
    problems, the number of operations attempted and the deterministic
    counters of the first traced pass.
    """
    base = workload.traced_pass(None)
    tracer = Tracer()
    tracer.interpose()
    try:
        first = workload.traced_pass(tracer)
        metrics = from_tracer(tracer, first["counters"])
        tracer.write_jsonl(trace_path)
        tracer.reset()
        second = workload.traced_pass(tracer)
    finally:
        tracer.restore()
    metrics.update(first.get("extra", {}))
    metrics["trace.overhead_ratio"] = ratio(first["wall"], base["wall"])

    problems = base["problems"] + first["problems"] + second["problems"]
    failed = sum(len(run["problems"]) > 0 for run in (base, first, second))
    if not (base["values"] == first["values"] == second["values"]):
        problems.append("answers differ between passes of the traced run")
        failed += 1
    one = deterministic_counters(first["counters"])
    mismatch = counter_mismatch(one, second["counters"])
    if mismatch:
        problems.append(mismatch)
        failed += 1
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": 3 * len(base["values"]),
        "failed": failed,
        "counters": one,
    }
