"""PQEEstimate (Theorem 1): FPRAS for probabilistic query evaluation.

Extends the uniform-reliability reduction to arbitrary rational fact
probabilities with the multiplier construction of Section 5:

- write each label as ``π(f) = w_f / d_f`` in lowest terms;
- in the λ-free NFTA of Proposition 1, weight every positive literal
  transition of fact f with multiplier ``w_f`` and every negative one
  with ``d_f − w_f`` (PAD transitions get 1);
- translate multipliers into binary-comparator gadgets
  (:mod:`repro.automata.multiplier`), using a **common gadget length**
  ``bits_f = max(u(w_f), u(d_f − w_f))`` for both polarities of a fact,
  so both branches add the same number of tree nodes — this is what
  makes every accepted tree have the single size

      k = |D'| + pad_count + Σ_f bits_f

  that the paper's formula ``k = |D| + Σ u(w_i)`` presupposes;
- then  Pr_H(Q) = |L_k(T')| / d  with  d = Π_f d_f.

Facts with probability 0 (positive multiplier 0) simply lose their
positive branch; probability-1 facts lose the negative branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.automata.multiplier import (
    MultiplierNFTA,
    minimal_gadget_bits,
)
from repro.automata.nfa_counting import CountResult
from repro.automata.nfta import NFTA
from repro.automata.nfta_counting import count_nfta, count_nfta_exact
from repro.automata.symbols import Literal
from repro.core.ur_reduction import (
    URReduction,
    _ready_decomposition,
    build_ur_reduction,
)
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.decomposition import HypertreeDecomposition
from repro.errors import AutomatonError
from repro.obs import span
from repro.queries.cq import ConjunctiveQuery

__all__ = ["PQEReduction", "PQEEstimate", "build_pqe_reduction", "pqe_estimate"]


def _gadget_bits(probability: Fraction) -> int:
    """Common gadget length for both polarities of a fact."""
    numerator = probability.numerator
    complement = probability.denominator - numerator
    bits = 0
    if numerator >= 1:
        bits = max(bits, minimal_gadget_bits(numerator))
    if complement >= 1:
        bits = max(bits, minimal_gadget_bits(complement))
    return bits


@dataclass(frozen=True)
class PQEReduction:
    """The Theorem 1 automaton and its normalisation constants.

    ``weighted=True`` marks the gadget-free variant: ``nfta`` is then
    the plain Proposition 1 automaton and the probability is recovered
    as the *weighted* tree measure over it (numerator weights on
    positive literals, complement weights on negative ones) divided by
    ``denominator`` — the practical optimisation the paper's conclusion
    anticipates, avoiding the ``Σ u(w_i)`` tree-size inflation.
    """

    ur_reduction: URReduction
    nfta: NFTA                    # multiplier automaton, or UR automaton
    tree_size: int                # the k of Theorem 1
    denominator: int              # d = Π d_f
    weighted: bool = False
    weight_of: object = None      # symbol → weight (weighted mode only)


def _literal_weight_function(probabilities: dict[Fact, Fraction]):
    """Symbol weights for the gadget-free weighted evaluation."""

    def weight_of(symbol):
        if isinstance(symbol, Literal):
            probability = probabilities[symbol.fact]
            if symbol.positive:
                return probability.numerator
            return probability.denominator - probability.numerator
        return 1

    return weight_of


def build_pqe_reduction(
    query: ConjunctiveQuery,
    pdb: ProbabilisticDatabase,
    decomposition: HypertreeDecomposition | None = None,
    weighted: bool = False,
    cache=None,
) -> PQEReduction:
    """Build the Section 5.2 automaton: ``Pr_H(Q) = |L_k(T')| / d``.

    With ``weighted=True`` the comparator gadgets are skipped: the plain
    Proposition 1 automaton is returned together with a per-symbol
    weight function, and the probability is the weighted tree measure
    over it divided by ``d``.

    ``cache`` (a :class:`~repro.core.cache.ReductionCache`) memoizes the
    finished reduction under ``("pqe", query.cache_token,
    pdb.projection_token(query.relation_names), weighted)``.  The
    projection token is exact — the build projects ``pdb`` to the
    query's relations before constructing anything — and, unlike the
    whole-database token, is stable across deltas confined to other
    relations, so the entry keeps hitting on later database versions.
    The underlying decomposition is cached under its own query-only
    ``("ghd", …)`` key, so distinct groundings of one query shape still
    share the decomposition search.  A caller-supplied
    ``decomposition`` bypasses the cache.
    """
    if cache is not None and decomposition is None:
        relations = frozenset(query.relation_names)
        key = ("pqe", query.cache_token, pdb.projection_token(relations), weighted)
        return cache.get_or_build(
            key,
            lambda: _build_pqe_reduction(query, pdb, None, weighted, cache),
            relations=relations,
        )
    return _build_pqe_reduction(query, pdb, decomposition, weighted, cache)


def _build_pqe_reduction(
    query: ConjunctiveQuery,
    pdb: ProbabilisticDatabase,
    decomposition: HypertreeDecomposition | None,
    weighted: bool,
    cache,
) -> PQEReduction:
    from repro.testing.faults import fault_point

    fault_point("reduction.pqe")
    with span("reduction.pqe", weighted=weighted):
        return _build_pqe_reduction_body(
            query, pdb, decomposition, weighted, cache
        )


def _build_pqe_reduction_body(
    query: ConjunctiveQuery,
    pdb: ProbabilisticDatabase,
    decomposition: HypertreeDecomposition | None,
    weighted: bool,
    cache,
) -> PQEReduction:
    projected = pdb.project_to_query(query)
    if cache is not None and decomposition is None:
        # Only the decomposition layer is shared here: the full UR entry
        # would duplicate what the enclosing PQE entry already stores.
        decomposition = cache.get_or_build(
            ("ghd", query.cache_token),
            lambda: _ready_decomposition(query),
            relations=frozenset(),
        )
    reduction = build_ur_reduction(
        query, projected.instance, decomposition=decomposition
    )

    probabilities: dict[Fact, Fraction] = dict(projected.probabilities)

    if weighted:
        denominator = 1
        for probability in probabilities.values():
            denominator *= probability.denominator
        return PQEReduction(
            ur_reduction=reduction,
            nfta=reduction.nfta,
            tree_size=reduction.tree_size,
            denominator=denominator,
            weighted=True,
            weight_of=_literal_weight_function(probabilities),
        )
    bits_for: dict[Fact, int] = {
        fact: _gadget_bits(prob) for fact, prob in probabilities.items()
    }

    # The multiplier numbers its gadget states ("mul", i) by position,
    # so walk the transitions in a canonical order: the reduction's own
    # order follows set iteration and would tie the gadget names (and
    # with them the automaton fingerprint and every seeded estimate) to
    # PYTHONHASHSEED.
    multiplier_transitions = []
    for source, symbol, children in sorted(
        reduction.nfta.transitions, key=repr
    ):
        if isinstance(symbol, Literal):
            prob = probabilities.get(symbol.fact)
            if prob is None:
                raise AutomatonError(
                    f"automaton reads fact {symbol.fact} missing from H"
                )
            if symbol.positive:
                multiplier = prob.numerator
            else:
                multiplier = prob.denominator - prob.numerator
            bits = bits_for[symbol.fact]
            # A multiplier of 1 with a non-zero common gadget length must
            # still consume `bits` symbols so both polarities add the
            # same node count.
            multiplier_transitions.append(
                (source, symbol, multiplier, bits, children)
            )
        else:
            # PAD (or any non-literal) transitions are weight-neutral.
            multiplier_transitions.append((source, symbol, 1, 0, children))

    multiplier_nfta = MultiplierNFTA(
        multiplier_transitions, initial=reduction.nfta.initial
    )
    translated = multiplier_nfta.translate().trimmed()

    denominator = 1
    total_bits = 0
    for fact, prob in probabilities.items():
        denominator *= prob.denominator
        total_bits += bits_for[fact]

    return PQEReduction(
        ur_reduction=reduction,
        nfta=translated,
        tree_size=reduction.tree_size + total_bits,
        denominator=denominator,
    )


@dataclass(frozen=True)
class PQEEstimate:
    """Result of the Theorem 1 estimator."""

    estimate: float
    count_result: CountResult
    reduction: PQEReduction

    @property
    def exact(self) -> bool:
        return self.count_result.exact

    @property
    def nfta_states(self) -> int:
        return len(self.reduction.nfta.states)

    @property
    def nfta_transitions(self) -> int:
        return self.reduction.nfta.num_transitions

    def __float__(self) -> float:
        return self.estimate


def pqe_estimate(
    query: ConjunctiveQuery,
    pdb: ProbabilisticDatabase,
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
) -> PQEEstimate:
    """Theorem 1's PQEEstimate: (1 ± ε)-approximation of ``Pr_H(Q)``.

    Runtime is polynomial in |Q|, |H| (including the bit size of the
    probability labels) and 1/ε for bounded-hypertree-width self-join-
    free conjunctive queries.

    Parameters
    ----------
    method:
        ``'fpras'`` (the paper's algorithm), ``'exact-automaton'``
        (exact tree count through the same reduction; validation only),
        or the gadget-free weighted variants ``'fpras-weighted'`` /
        ``'exact-weighted'`` that count a weighted tree measure over
        the plain Proposition 1 automaton — smaller trees, same answer
        (the practical optimisation anticipated in the paper's
        conclusion; see ``benchmarks/bench_weighted_vs_gadget.py``).
    cache:
        Optional :class:`~repro.core.cache.ReductionCache`; memoizes the
        reduction build (see :func:`build_pqe_reduction`) and, when the
        hybrid counter stays in its exact regime, the count result
        itself — exact counts are seed-independent, so sharing them
        changes nothing about any item's value.  Sampled (non-exact)
        counts are never stored: with or without a cache, a fixed seed
        yields bitwise the same estimate.
    executor:
        Optional :class:`concurrent.futures.Executor` over which
        median-of-``repetitions`` runs are fanned out (see
        :func:`repro.automata.nfta_counting.count_nfta`).
    backend:
        Counting-kernel backend, ``'auto'`` (default; the exact DP
        picks its tier per automaton), ``'optimized'``,
        ``'vectorized'`` (numpy layer DP; optional extra) or
        ``'reference'`` — see :mod:`repro.core.kernels`.  All are
        bitwise-identical for any seed; the knob exists for speed,
        differential testing and triage.
    """
    from repro.core.kernels import resolve_backend

    backend = resolve_backend(backend)
    weighted = method in ("fpras-weighted", "exact-weighted")
    reduction = build_pqe_reduction(
        query, pdb, decomposition=decomposition, weighted=weighted,
        cache=cache,
    )
    if method == "exact-automaton":
        exact_count = count_nfta_exact(
            reduction.nfta, reduction.tree_size, backend=backend
        )
        count_result = CountResult(
            estimate=float(exact_count), exact=True, samples_used=0
        )
    elif method == "exact-weighted":
        measure = count_nfta_exact(
            reduction.nfta,
            reduction.tree_size,
            weight_of=reduction.weight_of,
            backend=backend,
        )
        count_result = CountResult(
            estimate=float(measure), exact=True, samples_used=0
        )
    elif method in ("fpras", "fpras-weighted"):
        def run_count() -> CountResult:
            return count_nfta(
                reduction.nfta,
                reduction.tree_size,
                epsilon=epsilon,
                seed=seed,
                samples=samples,
                exact_set_cap=exact_set_cap,
                repetitions=repetitions,
                weight_of=reduction.weight_of if weighted else None,
                executor=executor,
                backend=backend,
            )

        if cache is not None and decomposition is None:
            # The hybrid counter is deterministic whenever it stays in
            # the exact regime (the result then depends only on the
            # automaton, tree size, weights, and the cap — not on the
            # seed), so exact counts are shareable across batch items;
            # sampled counts are seed-dependent and stay private.
            # The backend is part of the key even though both backends
            # are bitwise-identical: it keeps differential runs from
            # serving one backend's result to the other.
            count_relations = frozenset(query.relation_names)
            count_result = cache.get_or_build(
                (
                    "count", "pqe", query.cache_token,
                    pdb.projection_token(count_relations),
                    method, exact_set_cap, backend,
                ),
                run_count,
                cache_if=lambda result: result.exact,
                relations=count_relations,
            )
        else:
            count_result = run_count()
    else:
        raise ValueError(f"unknown method {method!r}")
    # A probability estimate above 1 can only be sampling error;
    # clamping is a strictly accuracy-improving post-process.
    return PQEEstimate(
        estimate=min(count_result.estimate / reduction.denominator, 1.0),
        count_result=count_result,
        reduction=reduction,
    )
