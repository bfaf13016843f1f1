"""UREstimate (Theorem 3): FPRAS for uniform reliability.

Chains the Proposition 1 construction with CountNFTA:

    UR(Q, D) = 2^{|D \\ D'|} · |L_k(T)|

where D' is D projected onto Q's relations, T the translated NFTA, and
k the accepted-tree size reported by the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.nfa_counting import CountResult
from repro.automata.nfta_counting import count_nfta, count_nfta_exact
from repro.core.ur_reduction import URReduction, build_ur_reduction
from repro.db.instance import DatabaseInstance
from repro.decomposition import HypertreeDecomposition
from repro.queries.cq import ConjunctiveQuery

__all__ = ["UREstimate", "ur_estimate"]


@dataclass(frozen=True)
class UREstimate:
    """Result of the Theorem 3 estimator."""

    estimate: float
    count_result: CountResult
    reduction: URReduction

    @property
    def exact(self) -> bool:
        """True when the hybrid counter stayed exact end to end."""
        return self.count_result.exact

    @property
    def nfta_states(self) -> int:
        return len(self.reduction.nfta.states)

    @property
    def nfta_transitions(self) -> int:
        return self.reduction.nfta.num_transitions

    def __float__(self) -> float:
        return self.estimate


def ur_estimate(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    epsilon: float = 0.25,
    seed: int | None = None,
    samples: int | None = None,
    exact_set_cap: int = 4096,
    repetitions: int = 1,
    decomposition: HypertreeDecomposition | None = None,
    method: str = "fpras",
    cache=None,
    executor=None,
    backend=None,
) -> UREstimate:
    """Theorem 3's UREstimate: a (1 ± ε)-approximation of UR(Q, D).

    Runtime is polynomial in |Q|, |D| and 1/ε for any query class of
    bounded hypertree width.

    Parameters
    ----------
    method:
        ``'fpras'`` (the paper's algorithm) or ``'exact-automaton'``
        (same reduction, but the determinization-based exact counter —
        exponential worst case, used for validation).
    cache:
        Optional :class:`~repro.core.cache.ReductionCache`; memoizes the
        Proposition 1 build (see
        :func:`repro.core.ur_reduction.build_ur_reduction`) and exact
        (seed-independent) count results; sampled counts are never
        stored, so a fixed seed yields the same estimate with or
        without a cache.
    executor:
        Optional :class:`concurrent.futures.Executor` over which
        median-of-``repetitions`` runs are fanned out.
    backend:
        Counting-kernel backend, ``'auto'`` (default),
        ``'optimized'``, ``'vectorized'`` or ``'reference'`` — see
        :mod:`repro.core.kernels`.  Bitwise-identical results under
        every knob.
    """
    from repro.core.kernels import resolve_backend

    backend = resolve_backend(backend)
    reduction = build_ur_reduction(
        query, instance, decomposition=decomposition, cache=cache
    )
    if method == "exact-automaton":
        exact_count = count_nfta_exact(
            reduction.nfta, reduction.tree_size, backend=backend
        )
        count_result = CountResult(
            estimate=float(exact_count), exact=True, samples_used=0
        )
    elif method == "fpras":
        def run_count() -> CountResult:
            return count_nfta(
                reduction.nfta,
                reduction.tree_size,
                epsilon=epsilon,
                seed=seed,
                samples=samples,
                exact_set_cap=exact_set_cap,
                repetitions=repetitions,
                executor=executor,
                backend=backend,
            )

        if cache is not None and decomposition is None:
            # Exact (seed-independent) counts are shareable; sampled
            # ones stay private.  See pqe_estimate for the rationale
            # (including why the backend is in the key).
            count_relations = frozenset(query.relation_names)
            count_result = cache.get_or_build(
                (
                    "count", "ur", query.cache_token,
                    instance.projection_token(count_relations),
                    exact_set_cap, backend,
                ),
                run_count,
                cache_if=lambda result: result.exact,
                relations=count_relations,
                # The count sees only the instance's fact sets (via the
                # unweighted projection token): reweights never stale it.
                weighted=False,
            )
        else:
            count_result = run_count()
    else:
        raise ValueError(f"unknown method {method!r}")
    return UREstimate(
        estimate=count_result.estimate * reduction.scale,
        count_result=count_result,
        reduction=reduction,
    )
