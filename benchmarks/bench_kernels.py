"""K1 — counting-kernel speedup: the three-backend ladder.

The optimized and vectorized backends (:mod:`repro.core.kernels` over
:mod:`repro.automata.optimize`, and :mod:`repro.core.vectorized`) must
earn their keep: this bench times the exact CountNFTA DP through the
Theorem 1 weighted reduction on the Table-1-style workloads —
reference vs optimized vs vectorized — *cold* (kernel caches cleared
before every pass, so plan compilation, layer fills and memo-table
fills are paid, not amortised away).

The measurements double as CI perf-regression gates (run by the
``benchmarks`` job next to the telemetry/durability overhead guards):

- ``test_optimized_speedup_on_largest_workload``: optimized ≥3× over
  reference on the largest workload (the 3-path chain over a
  3-constant domain, 5 facts per relation — the biggest automaton this
  file builds);
- ``test_vectorized_speedup_on_largest_workload``: vectorized ≥3× over
  *optimized* cold on the same workload (skips when numpy is absent);
- ``test_preprocessing_amortized_below_5_percent`` /
  ``test_vectorized_preprocessing_amortized_below_5_percent``: each
  tier's own preprocessing costs <5% of a single cold DP pass, so it
  can never dominate a one-shot evaluation — compiling the
  :class:`~repro.automata.optimize.DenseNFTA` for the optimized tier;
  building the :class:`~repro.core.vectorized.VectorLayerTable` from
  the (shared, already-gated) dense compile for the vectorized tier,
  whose lazy memo tables fill during the DP, not up front;
- ``test_auto_tracks_the_faster_tier``: the default ``auto`` backend's
  cold pass is within 1.25× of the faster forced tier on every
  workload (within 1.2× of optimized without numpy), so the
  per-automaton tier choice never picks the slow side of the
  crossover.

All backends return bitwise-identical counts — asserted here too, on
the real workloads (the differential suite covers the corpus).
"""

from __future__ import annotations

from repro.automata.optimize import optimize_nfta
from repro.bench.harness import ResultTable, timed
from repro.core.kernels import clear_kernel_caches
from repro.core.pqe_estimate import build_pqe_reduction
from repro.automata.nfta_counting import count_nfta_exact
from repro.queries.builders import path_query, star_query
from repro.queries.parser import parse_query
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)

SEED = 2023
REPEATS = 3  # best-of, to keep the gates stable on noisy hosts

#: (label, query, domain_size, facts_per_relation) — ordered smallest
#: to largest; the last row is the gate workload.
WORKLOADS = [
    ("2path d2f3", path_query(2), 2, 3),
    ("star3 d2f3", star_query(3), 2, 3),
    ("3path d2f4", path_query(3), 2, 4),
    ("3path d3f5", parse_query("Q :- R(x, y), S(y, z), T(z, w)"), 3, 5),
]


def _weighted_reduction(query, domain_size, facts, seed=SEED):
    instance = random_instance_for_query(
        query, domain_size=domain_size, facts_per_relation=facts,
        seed=seed,
    )
    pdb = random_probabilities(instance, seed=seed, max_denominator=4)
    return build_pqe_reduction(query, pdb, weighted=True)


def _best_of(fn, repeats=REPEATS, check=True):
    value, best = timed(fn)
    for _ in range(repeats - 1):
        again, elapsed = timed(fn)
        if check:
            assert again == value
        best = min(best, elapsed)
    return value, best


def _cold_pass(reduction, backend):
    def run():
        clear_kernel_caches()
        return count_nfta_exact(
            reduction.nfta, reduction.tree_size,
            weight_of=reduction.weight_of, backend=backend,
        )

    return run


def _measure(reduction):
    """(reference seconds, optimized cold seconds, count) best-of."""

    def reference():
        return count_nfta_exact(
            reduction.nfta, reduction.tree_size,
            weight_of=reduction.weight_of, backend="reference",
        )

    ref_value, ref_time = _best_of(reference)
    opt_value, opt_time = _best_of(_cold_pass(reduction, "optimized"))
    assert ref_value == opt_value, "backends disagree — differential bug"
    return ref_time, opt_time, ref_value


def run_kernels() -> ResultTable:
    from repro.core.kernels import vectorized_available

    with_vec = vectorized_available()
    table = ResultTable(
        "K1: counting-kernel speedup (cold, per backend)",
        [
            "workload", "states", "transitions", "tree size",
            "ref (s)", "opt (s)", "vec (s)", "auto (s)", "opt x", "vec x",
        ],
    )
    for label, query, domain_size, facts in WORKLOADS:
        reduction = _weighted_reduction(query, domain_size, facts)
        ref_time, opt_time, count = _measure(reduction)
        if with_vec:
            vec_value, vec_time = _best_of(
                _cold_pass(reduction, "vectorized")
            )
            assert vec_value == count, "backends disagree"
        else:
            vec_time = float("nan")
        auto_value, auto_time = _best_of(_cold_pass(reduction, "auto"))
        assert auto_value == count, "backends disagree"
        table.add_row([
            label,
            len(reduction.nfta.states),
            reduction.nfta.num_transitions,
            reduction.tree_size,
            ref_time,
            opt_time,
            vec_time,
            auto_time,
            ref_time / opt_time if opt_time else float("inf"),
            opt_time / vec_time if vec_time else float("inf"),
        ])
    return table


# ---------------------------------------------------------------------
# CI gates
# ---------------------------------------------------------------------


def test_optimized_speedup_on_largest_workload():
    """ISSUE 5 gate: ≥3× on the largest Table-1-style workload."""
    label, query, domain_size, facts = WORKLOADS[-1]
    reduction = _weighted_reduction(query, domain_size, facts)
    ref_time, opt_time, _count = _measure(reduction)
    assert opt_time * 3 <= ref_time, (
        f"optimized backend only {ref_time / opt_time:.2f}x faster than "
        f"reference on {label} (ref {ref_time:.3f}s, opt {opt_time:.3f}s); "
        "the >=3x gate failed"
    )


def test_preprocessing_amortized_below_5_percent():
    """Compiling the dense automaton is <5% of one cold DP pass."""
    _label, query, domain_size, facts = WORKLOADS[-1]
    reduction = _weighted_reduction(query, domain_size, facts)

    # DenseNFTA has identity equality; compare nothing, just time it.
    _dense, prep_time = _best_of(
        lambda: optimize_nfta(reduction.nfta), check=False
    )

    def optimized_cold():
        clear_kernel_caches()
        return count_nfta_exact(
            reduction.nfta, reduction.tree_size,
            weight_of=reduction.weight_of, backend="optimized",
        )

    _value, dp_time = _best_of(optimized_cold)
    assert prep_time <= 0.05 * dp_time, (
        f"preprocessing {prep_time:.4f}s is "
        f"{100 * prep_time / dp_time:.1f}% of a cold optimized DP pass "
        f"({dp_time:.3f}s); the <5% amortisation gate failed"
    )


def test_vectorized_speedup_on_largest_workload():
    """ISSUE 10 gate: vectorized ≥3× over *optimized*, both cold, on
    the largest Table-1-style workload."""
    import pytest

    from repro.core.kernels import vectorized_available

    if not vectorized_available():
        pytest.skip("numpy not installed")
    label, query, domain_size, facts = WORKLOADS[-1]
    reduction = _weighted_reduction(query, domain_size, facts)
    opt_value, opt_time = _best_of(_cold_pass(reduction, "optimized"))
    vec_value, vec_time = _best_of(_cold_pass(reduction, "vectorized"))
    assert opt_value == vec_value, "backends disagree — differential bug"
    assert vec_time * 3 <= opt_time, (
        f"vectorized backend only {opt_time / vec_time:.2f}x faster "
        f"than optimized on {label} (opt {opt_time:.3f}s, vec "
        f"{vec_time:.3f}s); the >=3x gate failed"
    )


def test_vectorized_preprocessing_amortized_below_5_percent():
    """The vectorized tier's *own* preprocessing — building the
    :class:`VectorLayerTable` (packed source-mask columns, the fused
    unary memo bank) from a compiled dense automaton — is <5% of one
    cold vectorized DP pass.  The dense compile itself is shared with
    the optimized tier and separately gated by
    ``test_preprocessing_amortized_below_5_percent``; the lazy memo
    tables fill during the DP and are deliberately part of the pass,
    not the prep."""
    import pytest

    from repro.core.kernels import vectorized_available
    from repro.core.vectorized import VectorLayerTable

    if not vectorized_available():
        pytest.skip("numpy not installed")
    _label, query, domain_size, facts = WORKLOADS[-1]
    reduction = _weighted_reduction(query, domain_size, facts)
    dense = optimize_nfta(reduction.nfta)
    weights = tuple(
        reduction.weight_of(symbol) for symbol in dense.symbols
    )

    _table, prep_time = _best_of(
        lambda: VectorLayerTable(dense, weights), check=False
    )
    _value, dp_time = _best_of(_cold_pass(reduction, "vectorized"))
    assert prep_time <= 0.05 * dp_time, (
        f"vectorized preprocessing {prep_time:.4f}s is "
        f"{100 * prep_time / dp_time:.1f}% of a cold vectorized DP "
        f"pass ({dp_time:.3f}s); the <5% amortisation gate failed"
    )


def test_auto_tracks_the_faster_tier():
    """The default backend picks its exact-DP tier per automaton: on
    every workload its cold pass is within 1.25x of the faster forced
    tier (without numpy, within 1.2x of optimized).  The small rows
    take milliseconds, so the backends are timed interleaved, best of
    7 rounds each, and host drift hits them alike; the previous pass's
    tables are freed before the clock starts, so no backend pays for
    another's deallocation."""
    from repro.core.kernels import vectorized_available

    backends = ["auto", "optimized"]
    if vectorized_available():
        backends.append("vectorized")
    slack = 1.25 if "vectorized" in backends else 1.2
    for label, query, domain_size, facts in WORKLOADS:
        reduction = _weighted_reduction(query, domain_size, facts)
        passes = {backend: _cold_pass(reduction, backend)
                  for backend in backends}
        values = {}
        best = dict.fromkeys(backends, float("inf"))
        for _round in range(7):
            for backend in backends:
                clear_kernel_caches()
                values[backend], elapsed = timed(passes[backend])
                best[backend] = min(best[backend], elapsed)
        assert len(set(values.values())) == 1, "backends disagree"
        fastest = min(backends[1:], key=best.get)
        assert best["auto"] <= slack * best[fastest], (
            f"auto cold pass {best['auto']:.4f}s on {label} is more "
            f"than {slack}x the faster forced tier ({fastest} "
            f"{best[fastest]:.4f}s)"
        )


def test_speedup_never_regresses_on_smaller_workloads():
    """The optimized backend must never be *slower* cold, even on the
    small workloads where there is little to win."""
    for label, query, domain_size, facts in WORKLOADS[:-1]:
        reduction = _weighted_reduction(query, domain_size, facts)
        ref_time, opt_time, _count = _measure(reduction)
        assert opt_time <= ref_time * 1.2, (
            f"optimized cold pass slower than reference on {label}: "
            f"opt {opt_time:.4f}s vs ref {ref_time:.4f}s"
        )


if __name__ == "__main__":
    print(run_kernels().render())
