"""PQEEngine: a strategy-choosing facade over every evaluator.

Downstream users rarely want to pick between safe plans, lineage
counting, and the FPRAS by hand.  The engine routes a (query, database)
pair to the cheapest applicable method, mirroring Table 1:

======================  ============================================
query                   route (method='auto')
======================  ============================================
safe (lifted plan       lifted inference — polynomial, exact, no
exists: hierarchical    sampling (see :mod:`repro.queries.lifted`);
SJF, or shatterable     the top rung of the ladder
self-join)
unsafe + SJF +          the paper's FPRAS (Theorem 1); exact lineage
bounded width           instead when the lineage is tiny
self-joins (unlifted)   lineage: exact WMC when small, Karp–Luby
                        otherwise (the FPRAS requires SJF)
======================  ============================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction

from repro.core.budget import EvaluationBudget, budget_scope
from repro.core.cache import ReductionCache
from repro.obs import (
    EvaluationTelemetry,
    active_telemetry,
    span,
    telemetry_scope,
)
from repro.core.exact import exact_probability, exact_uniform_reliability
from repro.core.monte_carlo import monte_carlo_probability
from repro.core.pqe_estimate import pqe_estimate
from repro.core.ur_estimate import ur_estimate
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import LineageSizeBudgetExceeded, ReproError
from repro.lineage.build import build_lineage
from repro.lineage.exact_wmc import dnf_probability
from repro.lineage.karp_luby import karp_luby_probability
from repro.queries.cq import ConjunctiveQuery
from repro.queries.lifted import (
    classify_query,
    evaluate_lifted_plan,
    lifted_probability,
)
from repro.queries.properties import is_hierarchical
from repro.queries.safe_plan import safe_plan_probability

__all__ = ["PQEAnswer", "PQEPlan", "PQEEngine"]

# Distinguishes "seed not overridden" from an explicit seed=None
# (nondeterministic) override in the per-call keyword arguments.
_UNSET = object()

_METHODS = (
    "auto",
    "lifted",
    "safe-plan",
    "fpras",
    "fpras-weighted",
    "lineage-exact",
    "karp-luby",
    "monte-carlo",
    "enumerate",
)


def _pin_database(pdb):
    """Accept a :class:`~repro.db.delta.VersionedDatabase` (or one
    :class:`~repro.db.delta.DatabaseVersion`) anywhere a plain
    :class:`ProbabilisticDatabase` is expected, resolving it to the
    immutable version it holds at call time."""
    resolved = getattr(pdb, "pdb", None)
    return pdb if resolved is None else resolved


def _pin_instance(instance):
    """Like :func:`_pin_database`, yielding the underlying instance."""
    resolved = getattr(instance, "pdb", None)
    return instance if resolved is None else resolved.instance


@dataclass(frozen=True)
class PQEAnswer:
    """A probability (or reliability count) with provenance.

    ``degradations`` is the resilience layer's attempt log: one entry
    per failed route/retry that preceded this answer (empty for a
    first-try success).  ``retries`` counts the transient-failure
    retries consumed.  See :mod:`repro.core.resilience`.
    """

    value: float
    method: str
    exact: bool
    rational: Fraction | None = None
    degradations: tuple[str, ...] = ()
    retries: int = 0
    #: Telemetry collected while producing this answer (``None`` unless
    #: the evaluation ran with ``telemetry=True``).  Excluded from
    #: equality/repr: two identical evaluations stay equal even though
    #: their telemetry objects are distinct.
    telemetry: EvaluationTelemetry | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def degraded(self) -> bool:
        """True when this answer came from a fallback route or retry."""
        return bool(self.degradations)

    @property
    def route(self) -> str:
        """The evaluation route that produced this answer (alias of
        ``method``; ``"lifted"`` marks the exact lifted fast path)."""
        return self.method

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class PQEPlan:
    """The routing decision and cost statistics behind a query, without
    running any (potentially expensive) evaluation.

    Produced by :meth:`PQEEngine.explain`; every field is computed from
    structural analysis plus the (cheap) automaton construction.
    """

    method: str                     # what 'auto' would run
    self_join_free: bool
    hierarchical: bool | None       # None when self-joins block the test
    acyclic: bool
    hypertree_width: int | None     # None when not computed (self-joins)
    lineage_clauses: int | None     # None when past the budget
    nfta_states: int | None         # Theorem 1 automaton (SJF only)
    nfta_transitions: int | None
    tree_size: int | None
    #: The lifted router's verdict: 'safe' (an exact polynomial lifted
    #: plan exists), 'unsafe' (#P-hard by the dichotomy) or 'unknown'
    #: (the lifted rule set does not apply).  See
    #: :func:`repro.queries.lifted.classify_query`.
    safety: str | None = None
    fallbacks: tuple[str, ...] = ()  # degradation ladder under failure

    @property
    def route(self) -> str:
        """Alias of ``method`` — what ``'auto'`` would run."""
        return self.method

    def describe(self) -> str:
        """A human-readable one-paragraph summary."""
        parts = [f"route: {self.method}"]
        if self.safety is not None:
            parts.append(f"safety: {self.safety}")
        parts.append(
            "self-join-free" if self.self_join_free else "has self-joins"
        )
        if self.hierarchical is not None:
            parts.append(
                "hierarchical (safe, exact FP applies)"
                if self.hierarchical
                else "non-hierarchical (unsafe, #P-hard exactly)"
            )
        if self.hypertree_width is not None:
            parts.append(f"hypertree width {self.hypertree_width}")
        if self.lineage_clauses is not None:
            parts.append(f"lineage: {self.lineage_clauses} clauses")
        else:
            parts.append("lineage: over budget")
        if self.nfta_transitions is not None:
            parts.append(
                f"automaton: {self.nfta_states} states / "
                f"{self.nfta_transitions} transitions, "
                f"tree size {self.tree_size}"
            )
        if self.fallbacks:
            parts.append(
                "degradation ladder: " + " -> ".join(self.fallbacks)
            )
        return "; ".join(parts)


class PQEEngine:
    """Evaluate PQE/UR with automatic or explicit method choice.

    Parameters
    ----------
    epsilon:
        Approximation target for the randomized methods.
    seed:
        Seed for all randomized methods (None = nondeterministic).
    lineage_budget:
        Clause budget below which 'auto' prefers exact lineage counting
        over the FPRAS for unsafe queries.
    exact_set_cap:
        Language-size threshold under which the hybrid tree counter
        materialises exact sets instead of sampling (see
        :func:`repro.automata.nfta_counting.count_nfta`).  Exact counts
        are deterministic and therefore shareable through the reduction
        cache.
    cache:
        Optional :class:`~repro.core.cache.ReductionCache` shared by
        every evaluation this engine performs: reduction builds plus
        exact (seed-independent) count results.  Randomized counting is
        unaffected — sampled counts are never cached.  Per-call
        ``cache`` arguments override it.
    kernel_backend:
        ``'auto'`` (default): the engine picks the counting kernels
        itself, with the exact DP choosing its scalar or numpy tier per
        automaton (see :data:`repro.core.kernels.VECTOR_MIN_STATES`).
        ``'reference'`` runs the direct transcription of the paper's
        pseudocode instead, for triage.  Both give bitwise-identical
        answers for any seed.  To force one tier, call the estimators
        with their ``backend=`` parameter.
    """

    def __init__(
        self,
        epsilon: float = 0.25,
        seed: int | None = None,
        lineage_budget: int = 10_000,
        repetitions: int = 1,
        cache: ReductionCache | None = None,
        exact_set_cap: int = 4096,
        kernel_backend: str = "auto",
    ):
        from repro.core.kernels import ENGINE_BACKENDS

        if not 0 < epsilon < 1:
            raise ReproError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self.seed = seed
        self.lineage_budget = lineage_budget
        self.repetitions = repetitions
        self.cache = cache
        self.exact_set_cap = exact_set_cap
        if kernel_backend not in ENGINE_BACKENDS:
            raise ReproError(
                f"PQEEngine kernel_backend must be one of "
                f"{ENGINE_BACKENDS}, got {kernel_backend!r}; the engine "
                "picks the counting tier itself (to force one, call "
                "pqe_estimate/ur_estimate/count_nfta with backend=...)"
            )
        self.kernel_backend = kernel_backend

    # ------------------------------------------------------------------

    def probability(
        self,
        query: ConjunctiveQuery,
        pdb: ProbabilisticDatabase,
        method: str = "auto",
        *,
        seed=_UNSET,
        cache: ReductionCache | None = None,
        budget: EvaluationBudget | None = None,
        telemetry: bool = False,
    ) -> PQEAnswer:
        """``Pr_H(Q)``, routed per the class table in the module docs.

        ``seed`` overrides the engine seed for this call (pass ``None``
        for a nondeterministic draw); ``cache`` overrides the engine's
        reduction cache.  Both are what the batch evaluator uses to give
        every item its own RNG stream over one shared cache.  ``budget``
        bounds the call with cooperative deadline/work checkpoints (see
        :mod:`repro.core.budget`); exceeding it raises
        :class:`~repro.errors.BudgetExceededError`.  ``telemetry=True``
        collects spans and metrics for this call (see :mod:`repro.obs`)
        and attaches them as ``answer.telemetry``; when a collector is
        already active (e.g. inside a profiled batch item) the call
        simply contributes to it.
        """
        if method not in _METHODS:
            raise ReproError(
                f"unknown method {method!r}; choose from {_METHODS}"
            )
        pdb = _pin_database(pdb)
        if telemetry and active_telemetry() is None:
            collected = EvaluationTelemetry()
            with telemetry_scope(collected), span(
                "probability", method=method
            ):
                answer = self.probability(
                    query, pdb, method=method, seed=seed,
                    cache=cache, budget=budget,
                )
            return dataclasses.replace(answer, telemetry=collected)
        if budget is not None:
            with budget_scope(budget):
                return self.probability(
                    query, pdb, method=method, seed=seed, cache=cache
                )
        seed = self.seed if seed is _UNSET else seed
        cache = self.cache if cache is None else cache
        if method == "auto":
            return self._auto_probability(query, pdb, seed, cache)
        if method == "lifted":
            # Exact lifted inference; raises UnsafeQueryError /
            # UnknownSafetyError when no safe plan exists, which the
            # resilience ladder degrades through to the FPRAS rungs.
            with span("route.lifted"):
                value = lifted_probability(query, pdb)
            return PQEAnswer(float(value), "lifted", True, value)
        if method == "safe-plan":
            with span("route.safe-plan"):
                value = safe_plan_probability(query, pdb)
            return PQEAnswer(float(value), "safe-plan", True, value)
        if method in ("fpras", "fpras-weighted"):
            with span(f"route.{method}"):
                estimate = pqe_estimate(
                    query,
                    pdb,
                    epsilon=self.epsilon,
                    seed=seed,
                    repetitions=self.repetitions,
                    exact_set_cap=self.exact_set_cap,
                    method=method,
                    cache=cache,
                    backend=self.kernel_backend,
                )
            return PQEAnswer(estimate.estimate, method, estimate.exact)
        if method == "lineage-exact":
            with span("route.lineage-exact"):
                value = exact_probability(query, pdb, method="lineage")
            return PQEAnswer(float(value), "lineage-exact", True, value)
        if method == "karp-luby":
            with span("route.karp-luby"):
                projected = pdb.project_to_query(query)
                formula = build_lineage(query, projected.instance)
                result = karp_luby_probability(
                    formula,
                    projected.probabilities,
                    epsilon=self.epsilon,
                    seed=seed,
                    backend=self.kernel_backend,
                )
            return PQEAnswer(result.estimate, "karp-luby", False)
        if method == "monte-carlo":
            with span("route.monte-carlo"):
                result = monte_carlo_probability(
                    query, pdb, epsilon=self.epsilon / 4, seed=seed
                )
            return PQEAnswer(result.estimate, "monte-carlo", False)
        # method == "enumerate"
        with span("route.enumerate"):
            value = exact_probability(query, pdb, method="enumerate")
        return PQEAnswer(float(value), "enumerate", True, value)

    def _auto_probability(
        self,
        query: ConjunctiveQuery,
        pdb: ProbabilisticDatabase,
        seed,
        cache: ReductionCache | None,
    ) -> PQEAnswer:
        classification = classify_query(query)
        if classification.safe:
            with span("route.lifted"):
                value = evaluate_lifted_plan(
                    classification.plan, pdb, query.relation_names
                )
            return PQEAnswer(float(value), "lifted", True, value)
        if query.is_self_join_free:
            small = self._try_small_lineage(query, pdb)
            if small is not None:
                return small
            return self.probability(
                query, pdb, method="fpras", seed=seed, cache=cache
            )
        # Self-joins: the combined FPRAS does not apply (open per
        # Table 1); fall back to the intensional route.
        small = self._try_small_lineage(query, pdb)
        if small is not None:
            return small
        return self.probability(
            query, pdb, method="karp-luby", seed=seed, cache=cache
        )

    def _try_small_lineage(
        self, query: ConjunctiveQuery, pdb: ProbabilisticDatabase
    ) -> PQEAnswer | None:
        projected = pdb.project_to_query(query)
        try:
            formula = build_lineage(
                query, projected.instance, budget=self.lineage_budget
            )
        except LineageSizeBudgetExceeded:
            return None
        value = dnf_probability(formula, projected.probabilities)
        return PQEAnswer(float(value), "lineage-exact", True, value)

    # ------------------------------------------------------------------

    def rpq_probability(
        self,
        graph,
        rpq,
        source: str | None = None,
        target: str | None = None,
        method: str = "auto",
        *,
        delta: float | None = None,
        seed=_UNSET,
        cache: ReductionCache | None = None,
        budget: EvaluationBudget | None = None,
        telemetry: bool = False,
    ) -> PQEAnswer:
        """``Pr_G(source ⟶_regex target)``: a regular path query over a
        probabilistic graph (route ``rpq``; see :mod:`repro.graphs`).

        ``rpq`` is either an :class:`~repro.graphs.rpq.RPQQuery` or a
        regex string accompanied by ``source``/``target`` node names.
        ``method`` is one of ``auto`` / ``exact`` / ``fpras`` /
        ``enumerate`` / ``monte-carlo``; the product routes require an
        acyclic graph and raise :class:`~repro.errors.GraphError`
        otherwise — degradable, so :meth:`evaluate_resilient` with
        ``task='rpq'`` falls through to the structure-free routes.
        ``delta`` bounds the FPRAS failure probability via median
        amplification (repetitions grow with ``log(1/delta)``).
        ``seed``/``cache``/``budget``/``telemetry`` behave exactly as
        in :meth:`probability`.
        """
        from repro.graphs.estimate import (
            RPQ_METHODS,
            repetitions_for_delta,
            rpq_probability_estimate,
        )
        from repro.graphs.rpq import RPQQuery

        if isinstance(rpq, RPQQuery):
            query = rpq
        else:
            if source is None or target is None:
                raise ReproError(
                    "rpq_probability needs source and target nodes "
                    "(or a pre-built RPQQuery)"
                )
            query = RPQQuery(str(rpq), source, target)
        if method not in RPQ_METHODS:
            raise ReproError(
                f"unknown RPQ method {method!r}; "
                f"choose from {RPQ_METHODS}"
            )
        if telemetry and active_telemetry() is None:
            collected = EvaluationTelemetry()
            with telemetry_scope(collected), span(
                "rpq_probability", method=method
            ):
                answer = self.rpq_probability(
                    graph, query, method=method, delta=delta,
                    seed=seed, cache=cache, budget=budget,
                )
            return dataclasses.replace(answer, telemetry=collected)
        if budget is not None:
            with budget_scope(budget):
                return self.rpq_probability(
                    graph, query, method=method, delta=delta,
                    seed=seed, cache=cache,
                )
        seed = self.seed if seed is _UNSET else seed
        cache = self.cache if cache is None else cache
        with span("rpq.compile"):
            query.rpq.nfa  # parse + Glushkov, cached on the query
        estimate = rpq_probability_estimate(
            graph,
            query,
            method=method,
            epsilon=self.epsilon,
            seed=seed,
            exact_set_cap=self.exact_set_cap,
            repetitions=repetitions_for_delta(
                delta, floor=self.repetitions
            ),
            cache=cache,
        )
        return PQEAnswer(
            estimate.estimate,
            estimate.method,
            estimate.exact,
            estimate.rational,
        )

    # ------------------------------------------------------------------

    def explain(
        self, query: ConjunctiveQuery, pdb: ProbabilisticDatabase
    ) -> PQEPlan:
        """Structural analysis + routing decision, without evaluating.

        Builds the Theorem 1 automaton (cheap, polynomial) to report its
        size, and counts lineage clauses up to the configured budget.
        """
        from repro.core.pqe_estimate import build_pqe_reduction
        from repro.decomposition import generalized_hypertree_width, is_acyclic
        from repro.errors import LineageSizeBudgetExceeded
        from repro.lineage.build import lineage_clause_count

        sjf = query.is_self_join_free
        hierarchical = is_hierarchical(query) if sjf else None
        acyclic = is_acyclic(query)

        width: int | None = None
        nfta_states = nfta_transitions = tree_size = None
        if sjf:
            try:
                width = generalized_hypertree_width(query)
            except Exception:  # width search limits; leave unknown
                width = None
            reduction = build_pqe_reduction(query, pdb)
            nfta_states = len(reduction.nfta.states)
            nfta_transitions = reduction.nfta.num_transitions
            tree_size = reduction.tree_size

        projected = pdb.project_to_query(query)
        try:
            clauses: int | None = lineage_clause_count(
                query, projected.instance, budget=self.lineage_budget
            )
        except LineageSizeBudgetExceeded:
            clauses = None

        classification = classify_query(query)
        if classification.safe:
            method = "lifted"
        elif sjf:
            method = "lineage-exact" if clauses is not None else "fpras"
        else:
            method = "lineage-exact" if clauses is not None else "karp-luby"

        from repro.core.resilience import degradation_ladder

        return PQEPlan(
            fallbacks=degradation_ladder(query),
            safety=classification.status,
            method=method,
            self_join_free=sjf,
            hierarchical=hierarchical,
            acyclic=acyclic,
            hypertree_width=width,
            lineage_clauses=clauses,
            nfta_states=nfta_states,
            nfta_transitions=nfta_transitions,
            tree_size=tree_size,
        )

    # ------------------------------------------------------------------

    def conditional_probability(
        self,
        query: ConjunctiveQuery,
        pdb: ProbabilisticDatabase,
        present=(),
        absent=(),
        method: str = "auto",
        *,
        seed=_UNSET,
        cache: ReductionCache | None = None,
    ) -> PQEAnswer:
        """``Pr_H(Q | evidence)`` under fact-level evidence.

        ``present``/``absent`` are facts observed to be in/out of the
        world; conditioning a tuple-independent database on fact-level
        evidence stays tuple-independent (set π to 1, or drop the
        fact), so any evaluation method applies directly.
        """
        conditioned = pdb
        for fact in present:
            conditioned = conditioned.conditioned(fact, present=True)
        for fact in absent:
            conditioned = conditioned.conditioned(fact, present=False)
        return self.probability(
            query, conditioned, method=method, seed=seed, cache=cache
        )

    # ------------------------------------------------------------------

    def uniform_reliability(
        self,
        query: ConjunctiveQuery,
        instance: DatabaseInstance,
        method: str = "auto",
        *,
        seed=_UNSET,
        cache: ReductionCache | None = None,
        budget: EvaluationBudget | None = None,
        telemetry: bool = False,
    ) -> PQEAnswer:
        """``UR(Q, D)``: number of satisfying subinstances."""
        instance = _pin_instance(instance)
        if telemetry and active_telemetry() is None:
            collected = EvaluationTelemetry()
            with telemetry_scope(collected), span(
                "uniform_reliability", method=method
            ):
                answer = self.uniform_reliability(
                    query, instance, method=method, seed=seed,
                    cache=cache, budget=budget,
                )
            return dataclasses.replace(answer, telemetry=collected)
        if budget is not None:
            with budget_scope(budget):
                return self.uniform_reliability(
                    query, instance, method=method, seed=seed, cache=cache
                )
        seed = self.seed if seed is _UNSET else seed
        cache = self.cache if cache is None else cache
        if method in ("auto", "lifted", "safe-plan", "lineage-exact"):
            pdb = ProbabilisticDatabase.uniform(instance)
            answer = self.probability(
                query,
                pdb,
                method="auto" if method == "auto" else method,
                seed=seed,
                cache=cache,
            )
            scale = Fraction(2) ** len(instance)
            if answer.rational is not None:
                count = answer.rational * scale
                return PQEAnswer(
                    float(count), answer.method, True, count
                )
            return PQEAnswer(
                answer.value * float(scale), answer.method, answer.exact
            )
        if method == "fpras":
            with span("route.fpras", task="reliability"):
                estimate = ur_estimate(
                    query,
                    instance,
                    epsilon=self.epsilon,
                    seed=seed,
                    repetitions=self.repetitions,
                    exact_set_cap=self.exact_set_cap,
                    cache=cache,
                    backend=self.kernel_backend,
                )
            return PQEAnswer(estimate.estimate, "fpras", estimate.exact)
        if method == "enumerate":
            with span("route.enumerate", task="reliability"):
                count = exact_uniform_reliability(
                    query, instance, method="enumerate"
                )
            return PQEAnswer(float(count), "enumerate", True, Fraction(count))
        raise ReproError(
            f"unknown method {method!r} for uniform reliability"
        )

    # ------------------------------------------------------------------

    def evaluate_resilient(
        self,
        query: ConjunctiveQuery,
        database,
        *,
        task: str = "probability",
        method: str = "auto",
        seed=_UNSET,
        cache: ReductionCache | None = None,
        budget: EvaluationBudget | None = None,
        policy=None,
    ) -> PQEAnswer:
        """Evaluate with bounded retries and graceful route degradation.

        On budget exhaustion or estimation failure the route falls back
        along exact-WMC → FPRAS → Monte-Carlo with widened ε; the
        answer's ``degradations``/``retries`` fields record the path
        taken.  See :func:`repro.core.resilience.evaluate_with_policy`.
        """
        from repro.core.resilience import evaluate_with_policy

        return evaluate_with_policy(
            self,
            query,
            database,
            task=task,
            method=method,
            seed=self.seed if seed is _UNSET else seed,
            cache=cache if cache is not None else self.cache,
            budget=budget,
            policy=policy,
        )

    # ------------------------------------------------------------------

    def evaluate_batch(
        self,
        items,
        *,
        max_workers: int | None = None,
        seed=_UNSET,
        cache: ReductionCache | None = None,
        timeout: float | None = None,
        budget: EvaluationBudget | None = None,
        max_retries: int = 0,
        on_error: str = "fail",
        policy=None,
        telemetry: bool = False,
        isolation: str = "thread",
        memory_limit: int | None = None,
        journal=None,
        resume: bool = False,
    ):
        """Evaluate many ``(query, database)`` items through one shared
        reduction cache and a worker pool.

        ``items`` is a sequence of
        :class:`~repro.core.parallel.BatchItem` (or ``(query, database)``
        tuples).  Every item gets its own deterministically derived RNG
        stream, so the returned :class:`~repro.core.parallel.BatchResult`
        is bitwise-identical for a fixed ``seed`` regardless of
        ``max_workers``, and matches a sequential loop that calls
        :meth:`probability` with the same per-item seeds.

        ``timeout``/``budget`` bound each item, ``max_retries`` retries
        transient estimation failures on deterministically derived
        seeds, and ``on_error`` selects the fault-isolation mode
        (``'fail'``, ``'skip'`` or ``'degrade'``).  See
        :mod:`repro.core.parallel` for the full contract.

        ``telemetry=True`` records spans and metrics per item — attached
        to each answer/error — and merges them (in item-index order, so
        deterministically) into ``BatchResult.telemetry``.

        ``isolation='process'`` runs items in supervised subprocess
        workers (optionally capped at ``memory_limit`` bytes each) so
        hard crashes become structured error records; ``journal=FILE``
        appends fsync'd completion records that :meth:`resume_batch`
        can replay.  See the durability contract in
        :mod:`repro.core.parallel` and ``docs/durability.md``.
        """
        from repro.core.parallel import evaluate_batch

        return evaluate_batch(
            self,
            items,
            max_workers=max_workers,
            seed=self.seed if seed is _UNSET else seed,
            cache=cache if cache is not None else self.cache,
            timeout=timeout,
            budget=budget,
            max_retries=max_retries,
            on_error=on_error,
            policy=policy,
            telemetry=telemetry,
            isolation=isolation,
            memory_limit=memory_limit,
            journal=journal,
            resume=resume,
        )

    def resume_batch(self, items, *, journal, **options):
        """Resume an interrupted batch from its write-ahead journal.

        Replays the journal's verified prefix — completed items are
        restored bitwise and marked ``replayed=True`` — and evaluates
        only the missing or previously failed remainder, appending the
        new completions to the same journal.  ``items`` and the keyword
        options must describe the same batch as the original run (the
        journal's header fingerprint is checked; a mismatch raises
        :class:`~repro.errors.JournalError` rather than replaying
        answers across batch definitions).  The result's answers, seeds
        and merged replay-stable deterministic counters are identical
        to an uninterrupted run's.
        """
        return self.evaluate_batch(
            items, journal=journal, resume=True, **options
        )
