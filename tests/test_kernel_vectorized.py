"""The vectorized backend's own contracts: overflow, numpy absence and
the ``auto`` tier choice.

Three properties the backend differential suite cannot pin by itself:

- **the object-dtype overflow fallback** — weighted counts that
  straddle 2^63 must silently switch the numpy DP from ``int64`` to
  object dtype (exact Python ints) and still match the reference
  bitwise, value *and* type.  A hypothesis property drives random
  weighted automata across the boundary; a pinned regression freezes
  one straddling workload and asserts the
  ``kernels.vectorized.object_fallback`` counter actually fired.
- **numpy absence** — with numpy absent (simulated by monkeypatching
  :data:`repro.core.vectorized._np` to ``None``),
  ``resolve_backend('vectorized')`` raises a contextual error naming
  the ``[vectorized]`` extra.  The other backends stay untouched, so
  tier-1 behaviour is numpy-independent.
- **the per-automaton tier choice of ``auto``** — the exact DP runs the
  numpy tier from :data:`~repro.core.kernels.VECTOR_MIN_STATES` dense
  states up and the scalar tier below it (or without numpy, silently:
  nobody asked for numpy), bitwise-equal to the reference either way;
  and a default engine and daemon start without importing numpy.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core.vectorized as vectorized
from repro.automata.nfta import NFTA
from repro.automata.nfta_counting import count_nfta_exact
from repro.automata.optimize import optimize_nfta
from repro.core.estimator import PQEEngine
from repro.core.kernels import (
    VECTOR_MIN_STATES,
    clear_kernel_caches,
    resolve_backend,
    vectorized_available,
)
from repro.errors import ReproError
from repro.obs import EvaluationTelemetry, telemetry_scope
from repro.queries.builders import path_query
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)

from test_nfta_counting import _random_nfta

needs_numpy = pytest.mark.skipif(
    not vectorized_available(), reason="numpy not installed"
)


# ---------------------------------------------------------------------------
# overflow: counts straddling 2^63 take the object-dtype fallback


@needs_numpy
@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=20, deadline=None)
def test_straddling_counts_match_reference_bitwise(seed):
    """Mixed-sign weights near 2^44 push intermediate products far past
    2^63 within a few layers; the vectorized DP must cross into object
    mode and stay bitwise-equal (value and type) to the reference."""
    nfta = _random_nfta(seed, states=4)
    symbols = sorted(nfta.alphabet, key=str)
    table = {
        symbol: ((-1) ** i) * ((1 << 44) + 977 * i + seed)
        for i, symbol in enumerate(symbols)
    }
    for size in range(1, 7):
        expected = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="reference"
        )
        actual = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="vectorized"
        )
        assert actual == expected
        assert type(actual) is type(expected)


@needs_numpy
def test_pinned_straddling_regression():
    """One frozen straddling workload: a weighted PQE reduction whose
    weights are scaled by 2^40, forcing the int64 → object switch.  The
    count, its type, and the fallback counter are all pinned."""
    query = path_query(2)
    instance = random_instance_for_query(
        query, domain_size=2, facts_per_relation=3, seed=7
    )
    pdb = random_probabilities(instance, seed=7, max_denominator=4)
    from repro.core.pqe_estimate import build_pqe_reduction

    reduction = build_pqe_reduction(query, pdb, weighted=True)

    def scaled(symbol):
        return reduction.weight_of(symbol) * (1 << 40)

    expected = count_nfta_exact(
        reduction.nfta, reduction.tree_size, weight_of=scaled,
        backend="reference",
    )
    clear_kernel_caches()
    telemetry = EvaluationTelemetry()
    with telemetry_scope(telemetry):
        actual = count_nfta_exact(
            reduction.nfta, reduction.tree_size, weight_of=scaled,
            backend="vectorized",
        )
    assert actual == expected
    assert type(actual) is type(expected) is int
    assert actual.bit_length() > 63  # genuinely straddles int64
    assert telemetry.counter("kernels.vectorized.object_fallback") >= 1


@needs_numpy
def test_fraction_weights_use_object_mode_from_the_start():
    nfta = _random_nfta(3, states=4)
    symbols = sorted(nfta.alphabet, key=str)
    table = {
        symbol: Fraction(2 * i + 1, 7) for i, symbol in enumerate(symbols)
    }
    for size in range(1, 6):
        expected = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="reference"
        )
        actual = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="vectorized"
        )
        assert actual == expected
        assert type(actual) is type(expected)


# ---------------------------------------------------------------------------
# the backend without numpy


def _without_numpy(monkeypatch):
    monkeypatch.setattr(vectorized, "_np", None)


def test_resolve_backend_raises_contextually_without_numpy(monkeypatch):
    _without_numpy(monkeypatch)
    with pytest.raises(ReproError) as failure:
        resolve_backend("vectorized")
    message = str(failure.value)
    assert "numpy" in message
    assert "[vectorized]" in message
    assert "optimized" in message  # points at the working alternative


def test_other_backends_are_numpy_independent(monkeypatch):
    _without_numpy(monkeypatch)
    assert resolve_backend("optimized") == "optimized"
    assert resolve_backend("reference") == "reference"
    assert resolve_backend(None) == "auto"


@pytest.mark.parametrize("backend", ["optimized", "vectorized", "simd"])
def test_engine_accepts_only_auto_and_reference(backend):
    """The engine picks the tier itself: forcing one is for the
    estimators' ``backend=`` parameter, which the message names."""
    with pytest.raises(ReproError) as failure:
        PQEEngine(kernel_backend=backend)
    message = str(failure.value)
    assert "('auto', 'reference')" in message
    assert repr(backend) in message
    assert "backend=" in message
    assert PQEEngine().kernel_backend == "auto"
    assert PQEEngine(kernel_backend="reference").kernel_backend == (
        "reference"
    )


def test_unknown_backend_message_lists_choices():
    with pytest.raises(ReproError) as failure:
        resolve_backend("simd")
    assert "simd" in str(failure.value)


# ---------------------------------------------------------------------------
# randomized cross-check at moderate weights (no overflow): the int64
# path itself, not just the object fallback


@needs_numpy
def test_random_small_weight_parity():
    rng = random.Random(31)
    for trial in range(8):
        nfta = _random_nfta(200 + trial, states=4)
        symbols = sorted(nfta.alphabet, key=str)
        table = {
            symbol: rng.randint(1, 9) for symbol in symbols
        }
        size = rng.randint(1, 7)
        expected = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="reference"
        )
        actual = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="vectorized"
        )
        assert actual == expected
        assert type(actual) is type(expected)


# ---------------------------------------------------------------------------
# auto: the exact DP picks its tier per automaton


def _ladder_automaton(states: int) -> NFTA:
    """An NFTA whose dense compile keeps exactly ``states`` states: a
    unary/binary ladder q0 → q1 → … → q{n-1} with leaves on every third
    rung and at the bottom, every state reachable and productive."""
    last = f"q{states - 1}"
    transitions = [(last, "b", ())]
    for i in range(states - 1):
        transitions.append((f"q{i}", "a", (f"q{i + 1}",)))
        transitions.append((f"q{i}", "c", (f"q{i + 1}", last)))
        if i % 3 == 0:
            transitions.append((f"q{i}", "b", ()))
    return NFTA(transitions, initial="q0")


_LADDER_WEIGHTS = {"a": 2, "b": 3, "c": Fraction(5, 7)}


def _auto_count(nfta, size, weight_of=None):
    clear_kernel_caches()
    telemetry = EvaluationTelemetry()
    with telemetry_scope(telemetry):
        value = count_nfta_exact(
            nfta, size, weight_of=weight_of, backend="auto"
        )
    (record,) = [
        record for record in telemetry.spans
        if record.name == "counting.nfta_exact"
    ]
    return value, telemetry, record.tag_dict


@pytest.mark.parametrize("weight_of", [None, _LADDER_WEIGHTS.get])
def test_auto_stays_scalar_just_below_the_threshold(weight_of):
    nfta = _ladder_automaton(VECTOR_MIN_STATES - 1)
    assert optimize_nfta(nfta).num_states == VECTOR_MIN_STATES - 1
    expected = count_nfta_exact(
        nfta, 9, weight_of=weight_of, backend="reference"
    )
    value, telemetry, tags = _auto_count(nfta, 9, weight_of)
    assert value == expected and type(value) is type(expected)
    assert expected  # a non-trivial count
    assert telemetry.counter("kernels.layers_computed") == 9
    assert telemetry.counter("kernels.vectorized_layers") == 0
    assert tags == {"size": 9, "backend": "auto", "tier": "optimized"}


@needs_numpy
@pytest.mark.parametrize("weight_of", [None, _LADDER_WEIGHTS.get])
def test_auto_goes_vectorized_at_the_threshold(weight_of):
    nfta = _ladder_automaton(VECTOR_MIN_STATES)
    assert optimize_nfta(nfta).num_states == VECTOR_MIN_STATES
    expected = count_nfta_exact(
        nfta, 9, weight_of=weight_of, backend="reference"
    )
    value, telemetry, tags = _auto_count(nfta, 9, weight_of)
    assert value == expected and type(value) is type(expected)
    assert telemetry.counter("kernels.vectorized_layers") == 9
    assert tags["tier"] == "vectorized"


def test_auto_without_numpy_runs_the_scalar_tier_silently(monkeypatch):
    nfta = _ladder_automaton(VECTOR_MIN_STATES + 8)
    forced = count_nfta_exact(
        nfta, 9, weight_of=_LADDER_WEIGHTS.get, backend="optimized"
    )
    _without_numpy(monkeypatch)
    assert resolve_backend("auto") == "auto"
    value, telemetry, tags = _auto_count(nfta, 9, _LADDER_WEIGHTS.get)
    assert value == forced and type(value) is type(forced)
    assert telemetry.counter("kernels.vectorized_layers") == 0
    assert telemetry.counter("kernels.layers_computed") == 9
    assert tags["tier"] == "optimized"


def test_span_names_the_reference_tier_for_float_weights():
    nfta = _ladder_automaton(4)
    value, _telemetry, tags = _auto_count(nfta, 5, lambda _symbol: 0.5)
    assert value == count_nfta_exact(
        nfta, 5, weight_of=lambda _symbol: 0.5, backend="reference"
    )
    assert tags["tier"] == "reference"


_COLD_START = """
import sys
import repro.cli
from repro.core.estimator import PQEEngine
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.serve import PQEServer, ServerConfig

pdb = ProbabilisticDatabase({
    Fact("R", ("a", "b")): "1/2", Fact("S", ("b", "c")): "1/3",
})
engine = PQEEngine()
server = PQEServer(pdb, ServerConfig())
assert engine.kernel_backend == server.engine.kernel_backend == "auto"
print("numpy" in sys.modules)
"""


def test_default_engine_and_daemon_start_without_importing_numpy():
    """Daemon cold start must not pay the numpy import: ``auto`` only
    imports it when an automaton is large enough to want it."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "False"
