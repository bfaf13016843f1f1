"""Differential tests: every kernel backend pair, compared bitwise.

The optimized and vectorized backends (:mod:`repro.core.kernels` over
:mod:`repro.automata.optimize`, and :mod:`repro.core.vectorized`)
promise *bitwise-identical* results to the reference transcription for
any input and any seed — not "close", identical.  This module enforces
that promise over the full backend cross product of the library-level
``backend=`` parameters, including the default ``auto`` (the
``vectorized`` legs drop out cleanly when numpy is not installed), and
over the engine's :data:`ENGINE_LEGS` — ``reference`` against ``auto``,
with ``auto`` also run at a patched
:data:`~repro.core.kernels.VECTOR_MIN_STATES` that puts every automaton
on the numpy tier, and at one that puts every automaton on the scalar
tier (no engine route reaches the exact layer DP today, so these legs
guard parity for the day one does; the estimator legs force every
tier) — on the repository's existing corpus:

- every automaton shape used by ``test_nfta_counting`` (Catalan, random
  NFTAs with dead/unreachable/duplicate structure, ambiguous and
  adversarially ambiguous automata, weighted variants), for exact
  counts, hybrid/sampled counts, and sampled tree lists;
- the query fixtures of ``conftest.py`` and the random query/instance
  shapes of ``test_estimators`` / ``test_cross_validation``, through
  ``pqe_estimate`` / ``ur_estimate`` / ``PQEEngine`` on every routed
  method;
- Karp–Luby over random monotone DNFs;
- whole batches at workers 1 and 4, where answers *and* the merged
  deterministic counters must agree across both worker counts and
  every engine leg.

Comparisons use ``==`` on exact values (``int``/``Fraction``: value and
type), full result dataclasses, and tree lists — never ``approx``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.automata.nfta import NFTA
from repro.automata.nfta_counting import (
    count_nfta,
    count_nfta_exact,
    sample_accepted_trees,
)
from repro.core.estimator import PQEEngine
from repro.core.pqe_estimate import pqe_estimate
from repro.core.ur_estimate import ur_estimate
from repro.db.fact import Fact
from repro.lineage.dnf import DNF
from repro.lineage.karp_luby import karp_luby_probability
from repro.queries.builders import path_query, star_query
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)

from test_nfta_counting import _catalan_automaton, _random_nfta

from repro.core import kernels
from repro.core.kernels import vectorized_available

BACKENDS = ("reference", "optimized", "auto") + (
    ("vectorized",) if vectorized_available() else ()
)

#: ``(engine backend, VECTOR_MIN_STATES)`` — the measured threshold,
#: 0 (every automaton on the numpy tier; only with numpy) and a value
#: above every corpus automaton (every automaton on the scalar tier).
ENGINE_LEGS = (
    ("reference", kernels.VECTOR_MIN_STATES),
    ("auto", kernels.VECTOR_MIN_STATES),
    ("auto", 10**9),
) + ((("auto", 0),) if vectorized_available() else ())


def _engine(monkeypatch, leg, seed) -> PQEEngine:
    backend, min_states = leg
    monkeypatch.setattr(kernels, "VECTOR_MIN_STATES", min_states)
    return PQEEngine(seed=seed, kernel_backend=backend)


def _ambiguous_automaton() -> NFTA:
    # Two distinct run assignments accept the same tree a(a, a).
    return NFTA(
        [
            ("s", "a", ("p", "r")),
            ("s", "a", ("p", "p")),
            ("p", "a", ()),
            ("r", "a", ()),
        ],
        initial="s",
    )


def _adversarial_automaton(m: int = 4) -> NFTA:
    # m states all deriving the full binary-tree language (maximal pool
    # correlation in the sampler, heavy duplicate structure for dedup).
    transitions = []
    names = [f"c{i}" for i in range(m)]
    for name in names:
        transitions.append((name, "a", ()))
        for left in names:
            for right in names:
                transitions.append((name, "a", (left, right)))
    return NFTA(transitions, initial=names[0])


def _dead_state_automaton() -> NFTA:
    # 'dead' never produces a tree; 'lost' is unreachable; the duplicate
    # leaf rule exercises dedup.  All three must be invisible to counts.
    return NFTA(
        [
            ("q", "a", ()),
            ("q", "a", ()),
            ("q", "b", ("q", "q")),
            ("q", "b", ("dead", "q")),
            ("dead", "b", ("dead",)),
            ("lost", "a", ()),
        ],
        initial="q",
    )


def _automaton_corpus() -> list[NFTA]:
    corpus = [
        _catalan_automaton(),
        _ambiguous_automaton(),
        _adversarial_automaton(),
        _dead_state_automaton(),
    ]
    corpus.extend(_random_nfta(seed, states=4) for seed in range(8))
    return corpus


def _weight_table(nfta: NFTA) -> dict:
    return {
        symbol: weight
        for symbol, weight in zip(
            sorted(nfta.alphabet, key=str), [2, 3, 5, 7, 11]
        )
    }


# ---------------------------------------------------------------------------
# automaton corpus: counts, estimates, sampled trees


@pytest.mark.parametrize("index", range(12))
def test_exact_counts_bitwise(index):
    nfta = _automaton_corpus()[index]
    weights = _weight_table(nfta)
    fractional = {s: Fraction(w, 7) for s, w in weights.items()}
    for size in range(1, 8):
        plain = [
            count_nfta_exact(nfta, size, backend=backend)
            for backend in BACKENDS
        ]
        for other in plain[1:]:
            assert other == plain[0]
            assert type(other) is type(plain[0])
        for table in (weights, fractional):
            weighted = [
                count_nfta_exact(
                    nfta, size, weight_of=table.get, backend=backend
                )
                for backend in BACKENDS
            ]
            for other in weighted[1:]:
                assert other == weighted[0]
                assert type(other) is type(weighted[0])


@pytest.mark.parametrize("index", range(12))
@pytest.mark.parametrize("exact_set_cap", [0, 4096])
def test_count_nfta_bitwise(index, exact_set_cap):
    nfta = _automaton_corpus()[index]
    results = [
        count_nfta(
            nfta,
            6,
            epsilon=0.3,
            seed=index,
            exact_set_cap=exact_set_cap,
            repetitions=3,
            backend=backend,
        )
        for backend in BACKENDS
    ]
    assert all(result == results[0] for result in results[1:])


@pytest.mark.parametrize("index", range(12))
def test_sampled_trees_bitwise(index):
    nfta = _automaton_corpus()[index]
    size_mask = nfta.possible_sizes(7).get(nfta.initial, 0)
    sizes = [s for s in range(3, 8) if (size_mask >> s) & 1]
    if not sizes:
        pytest.skip("no accepted size in range for this automaton")
    size = sizes[0]
    trees = [
        sample_accepted_trees(
            nfta, size, k=25, seed=index, exact_set_cap=0, backend=backend
        )
        for backend in BACKENDS
    ]
    assert all(sample == trees[0] for sample in trees[1:])


def test_weighted_sampling_bitwise():
    nfta = NFTA([("q", "light", ()), ("q", "heavy", ())], initial="q")
    weights = {"light": 1, "heavy": 9}
    trees = [
        sample_accepted_trees(
            nfta, 1, k=120, seed=2, weight_of=weights.get,
            exact_set_cap=16, backend=backend,
        )
        for backend in BACKENDS
    ]
    assert all(sample == trees[0] for sample in trees[1:])


# ---------------------------------------------------------------------------
# query corpus: estimators and the engine


def _query_corpus():
    cases = []
    for i, query in enumerate(
        [path_query(2), path_query(3), star_query(2), star_query(3)]
    ):
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=3, seed=60 + i
        )
        pdb = random_probabilities(instance, seed=60 + i, max_denominator=4)
        cases.append((query, instance, pdb))
    return cases


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize(
    "method", ["fpras", "fpras-weighted", "exact-automaton", "exact-weighted"]
)
def test_pqe_estimate_bitwise(case, method):
    query, _instance, pdb = _query_corpus()[case]
    estimates = [
        pqe_estimate(
            query, pdb, epsilon=0.3, seed=case, method=method,
            backend=backend,
        )
        for backend in BACKENDS
    ]
    for other in estimates[1:]:
        assert other.estimate == estimates[0].estimate
        assert other.count_result == estimates[0].count_result


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("method", ["fpras", "exact-automaton"])
def test_ur_estimate_bitwise(case, method):
    query, instance, _pdb = _query_corpus()[case]
    estimates = [
        ur_estimate(
            query, instance, epsilon=0.3, seed=case, method=method,
            backend=backend,
        )
        for backend in BACKENDS
    ]
    for other in estimates[1:]:
        assert other.estimate == estimates[0].estimate
        assert other.count_result == estimates[0].count_result


def test_engine_fixture_corpus_bitwise(monkeypatch, q2, q3, tiny_pdb):
    for query in (q2, q3):
        for method in ("auto", "fpras", "fpras-weighted", "karp-luby"):
            answers = [
                _engine(monkeypatch, leg, 17).probability(
                    query, tiny_pdb, method=method
                )
                for leg in ENGINE_LEGS
            ]
            assert all(
                answer == answers[0] for answer in answers[1:]
            ), (query, method)


def test_engine_random_sjf_corpus_bitwise(monkeypatch):
    # The test_cross_validation query/instance shape: random SJF queries
    # with shared variables over small random instances.
    from test_cross_validation import _random_instance, _random_sjf_query

    rng = random.Random(5)
    checked = 0
    while checked < 6:
        query = _random_sjf_query(rng)
        instance = _random_instance(query, rng, max_facts=8)
        pdb = random_probabilities(instance, seed=checked, max_denominator=5)
        answers = [
            _engine(monkeypatch, leg, checked).probability(
                query, pdb, method="fpras"
            )
            for leg in ENGINE_LEGS
        ]
        assert all(answer == answers[0] for answer in answers[1:])
        checked += 1


def test_karp_luby_random_dnfs_bitwise():
    rng = random.Random(99)
    for trial in range(25):
        facts = [Fact("R", (f"a{i}",)) for i in range(rng.randint(2, 8))]
        clauses = frozenset(
            frozenset(rng.sample(facts, rng.randint(1, min(3, len(facts)))))
            for _ in range(rng.randint(1, 6))
        )
        formula = DNF(clauses)
        probs = {f: Fraction(rng.randint(1, 9), 10) for f in facts}
        seed = rng.randint(0, 10**6)
        samples = rng.randint(1, 300)
        results = [
            karp_luby_probability(
                formula, probs, seed=seed, samples=samples, backend=backend
            )
            for backend in BACKENDS
        ]
        assert all(result == results[0] for result in results[1:])


# ---------------------------------------------------------------------------
# batches: answers and merged counters at workers 1 and 4


def test_batch_answers_and_counters_bitwise(monkeypatch):
    items = [(query, pdb) for query, _instance, pdb in _query_corpus()]
    merged = {}
    for leg in ENGINE_LEGS:
        engine = _engine(monkeypatch, leg, 23)
        per_workers = {}
        for workers in (1, 4):
            batch = engine.evaluate_batch(
                items, seed=23, max_workers=workers, telemetry=True
            )
            per_workers[workers] = (
                batch.values,
                batch.telemetry.metrics.deterministic_counters(),
            )
        # Worker-count invariance within one leg …
        assert per_workers[1] == per_workers[4]
        merged[leg] = per_workers[1]
    # … and full answer + counter parity across legs: the reference,
    # scalar and numpy kernels do the same semantic work, bit for bit
    # (only the contract-exempt kernels.* bookkeeping may differ).
    for leg in ENGINE_LEGS[1:]:
        assert merged[leg] == merged[ENGINE_LEGS[0]]
