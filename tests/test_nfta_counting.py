"""Tests for exact and approximate NFTA counting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.nfta import LAMBDA, NFTA
from repro.automata.nfta_counting import (
    count_nfta,
    count_nfta_exact,
    sample_accepted_trees,
)
from repro.automata.trees import LabeledTree, leaf
from repro.errors import AutomatonError, EstimationError


def _catalan_automaton() -> NFTA:
    """Full binary trees over a single symbol: sizes 1, 3, 5, …

    The number of full binary trees with m internal nodes is the m-th
    Catalan number, giving closed-form ground truth.
    """
    return NFTA(
        [("q", "a", ()), ("q", "a", ("q", "q"))], initial="q"
    )


def _random_nfta(seed: int, states: int = 4) -> NFTA:
    rng = random.Random(seed)
    transitions = []
    names = [f"s{i}" for i in range(states)]
    for source in names:
        for symbol in "ab":
            if rng.random() < 0.6:
                transitions.append((source, symbol, ()))
            for arity in (1, 2):
                for _ in range(rng.randint(0, 2)):
                    children = tuple(
                        rng.choice(names) for _ in range(arity)
                    )
                    transitions.append((source, symbol, children))
    return NFTA(transitions, initial=names[0])


def _enumerate_trees(nfta: NFTA, size: int):
    """Brute-force enumeration of L_size (testing only)."""
    alphabet = sorted(nfta.alphabet, key=str)
    arities = sorted(
        {len(children) for _s, _a, children in nfta.transitions}
    )

    def gen(n):
        if n < 1:
            return
        for symbol in alphabet:
            if n == 1 and 0 in arities:
                yield leaf(symbol)
            for arity in arities:
                if arity == 0 or n - 1 < arity:
                    continue
                for split in _splits(n - 1, arity):
                    for children in _products(split):
                        yield LabeledTree(symbol, children)

    def _splits(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(1, total - k + 2):
            for rest in _splits(total - first, k - 1):
                yield (first,) + rest

    def _products(split):
        if not split:
            yield ()
            return
        for head in gen(split[0]):
            for tail in _products(split[1:]):
                yield (head,) + tail

    return [t for t in gen(size) if nfta.accepts(t)]


class TestExactCounting:
    def test_catalan_numbers(self):
        nfta = _catalan_automaton()
        catalan = [1, 1, 2, 5, 14, 42]
        for m, expected in enumerate(catalan):
            assert count_nfta_exact(nfta, 2 * m + 1) == expected
            if m >= 1:
                assert count_nfta_exact(nfta, 2 * m) == 0

    def test_zero_size(self):
        assert count_nfta_exact(_catalan_automaton(), 0) == 0

    def test_lambda_rejected(self):
        nfta = NFTA([("s", LAMBDA, ("t",)), ("t", "a", ())], initial="s")
        with pytest.raises(AutomatonError):
            count_nfta_exact(nfta, 1)

    def test_ambiguity_not_overcounted(self):
        # Two distinct run assignments accept the same tree a(a, a).
        nfta = NFTA(
            [
                ("s", "a", ("p", "r")),
                ("s", "a", ("p", "p")),
                ("p", "a", ()),
                ("r", "a", ()),
            ],
            initial="s",
        )
        assert count_nfta_exact(nfta, 3) == 1

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_enumeration(self, seed):
        nfta = _random_nfta(seed, states=3)
        for size in (1, 2, 3, 4):
            assert count_nfta_exact(nfta, size) == len(
                set(_enumerate_trees(nfta, size))
            )


class TestFPRAS:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=12, deadline=None)
    def test_hybrid_exact_on_small(self, seed):
        nfta = _random_nfta(seed, states=3)
        size = 5
        exact = count_nfta_exact(nfta, size)
        result = count_nfta(nfta, size, epsilon=0.5, seed=seed)
        if result.exact:
            assert result.estimate == exact

    @pytest.mark.parametrize("seed", range(6))
    def test_pure_sampling_accuracy(self, seed):
        nfta = _random_nfta(seed, states=3)
        size = 6
        exact = count_nfta_exact(nfta, size)
        result = count_nfta(
            nfta, size, epsilon=0.2, seed=seed, exact_set_cap=0,
            repetitions=3,
        )
        if exact == 0:
            assert result.estimate == 0
        else:
            assert abs(result.estimate - exact) / exact < 0.4

    def test_catalan_sampling(self):
        nfta = _catalan_automaton()
        size = 9  # 14 trees
        result = count_nfta(
            nfta, size, epsilon=0.2, seed=3, exact_set_cap=0
        )
        assert abs(result.estimate - 14) / 14 < 0.35

    def test_empty_language(self):
        nfta = NFTA([("q", "a", ("q",))], initial="q")
        result = count_nfta(nfta, 4, seed=0)
        assert result.estimate == 0

    def test_invalid_epsilon(self):
        with pytest.raises(EstimationError):
            count_nfta(_catalan_automaton(), 3, epsilon=0)

    def test_determinism(self):
        nfta = _random_nfta(2, states=3)
        a = count_nfta(nfta, 6, seed=9, exact_set_cap=0)
        b = count_nfta(nfta, 6, seed=9, exact_set_cap=0)
        assert a.estimate == b.estimate


class TestTreeSampling:
    def test_samples_accepted_and_sized(self):
        nfta = _catalan_automaton()
        trees = sample_accepted_trees(nfta, 7, k=15, seed=1)
        assert len(trees) == 15
        for tree in trees:
            assert tree.size == 7
            assert nfta.accepts(tree)

    def test_sampling_coverage(self):
        nfta = _catalan_automaton()
        # 5 full binary trees of size 7 (Catalan 3 = 5).
        trees = sample_accepted_trees(
            nfta, 7, k=200, seed=4, exact_set_cap=0
        )
        assert len(set(trees)) == 5

    def test_empty_language_raises(self):
        nfta = NFTA([("q", "a", ("q",))], initial="q")
        with pytest.raises(EstimationError):
            sample_accepted_trees(nfta, 3, k=5, seed=0)


class TestWeightedCounting:
    def test_exact_weighted_leaf(self):
        nfta = NFTA([("q", "a", ()), ("q", "b", ())], initial="q")
        weights = {"a": 3, "b": 5}
        assert count_nfta_exact(nfta, 1, weight_of=weights.get) == 8

    def test_exact_weighted_chain_multiplies(self):
        nfta = NFTA(
            [("q", "a", ("r",)), ("r", "b", ())], initial="q"
        )
        weights = {"a": 2, "b": 7}
        assert count_nfta_exact(nfta, 2, weight_of=weights.get) == 14

    def test_zero_weight_prunes(self):
        nfta = NFTA([("q", "a", ()), ("q", "b", ())], initial="q")
        weights = {"a": 0, "b": 5}
        assert count_nfta_exact(nfta, 1, weight_of=weights.get) == 5

    def test_weighted_ambiguity_not_overcounted(self):
        nfta = NFTA(
            [
                ("s", "a", ("p", "r")),
                ("s", "a", ("p", "p")),
                ("p", "a", ()),
                ("r", "a", ()),
            ],
            initial="s",
        )
        # One distinct tree a(a,a) of weight 2^3.
        assert count_nfta_exact(
            nfta, 3, weight_of=lambda _s: 2
        ) == 8

    def test_fpras_weighted_matches_exact(self):
        nfta = _catalan_automaton()
        weights = {"a": 2}
        size = 7
        exact = count_nfta_exact(nfta, size, weight_of=weights.get)
        result = count_nfta(
            nfta, size, epsilon=0.2, seed=4, exact_set_cap=0,
            weight_of=weights.get, repetitions=3,
        )
        assert abs(result.estimate - exact) / exact < 0.35

    def test_fpras_weighted_hybrid_exact(self):
        nfta = _catalan_automaton()
        weights = {"a": 3}
        size = 5
        exact = count_nfta_exact(nfta, size, weight_of=weights.get)
        result = count_nfta(
            nfta, size, epsilon=0.3, seed=1, weight_of=weights.get
        )
        if result.exact:
            assert result.estimate == exact

    def test_weighted_sampling_proportional(self):
        # Two leaves with weights 1 and 9: draws should be ~10%/90%.
        nfta = NFTA([("q", "light", ()), ("q", "heavy", ())], initial="q")
        weights = {"light": 1, "heavy": 9}
        trees = sample_accepted_trees(
            nfta, 1, k=500, seed=2, weight_of=weights.get,
            exact_set_cap=16,
        )
        heavy = sum(1 for t in trees if t.label == "heavy")
        assert 0.8 < heavy / 500 < 0.97


class TestAdversarialAmbiguity:
    def test_m_identical_subtrees(self):
        # m states all deriving the full binary-tree language: groups at
        # the root contain m overlapping components.
        m = 5
        transitions = []
        names = [f"c{i}" for i in range(m)]
        for name in names:
            transitions.append((name, "a", ()))
            for left in names:
                for right in names:
                    transitions.append((name, "a", (left, right)))
        nfta = NFTA(transitions, initial=names[0])
        size = 5
        exact = count_nfta_exact(nfta, size)
        assert exact == 2  # Catalan(2): the two shapes of size 5
        # Identical overlapping components maximise pool correlation;
        # a generous envelope with median-of-5 still pins the ballpark.
        result = count_nfta(
            nfta, size, epsilon=0.1, seed=2, exact_set_cap=0,
            repetitions=5,
        )
        assert abs(result.estimate - exact) / exact < 0.6


class TestLazyExactNodes:
    """Exact languages are views: trees are built only when drawn."""

    @staticmethod
    def _wide_product(left: int = 20, right: int = 20) -> NFTA:
        # σ(a_i, b_j): left·right trees of size 3, one exact product node.
        transitions = [("root", "σ", ("left", "right"))]
        transitions += [("left", f"a{i}", ()) for i in range(left)]
        transitions += [("right", f"b{j}", ()) for j in range(right)]
        return NFTA(transitions, initial="root")

    @staticmethod
    def _counters(run) -> dict:
        from repro.obs import EvaluationTelemetry, telemetry_scope

        telemetry = EvaluationTelemetry()
        with telemetry_scope(telemetry):
            value = run()
        return value, telemetry.metrics.counters

    @pytest.mark.parametrize("backend", ["reference", "optimized"])
    def test_counting_an_exact_product_builds_no_tree(self, backend):
        nfta = self._wide_product()
        result, counters = self._counters(lambda: count_nfta(
            nfta, 3, seed=1, exact_set_cap=4096, backend=backend
        ))
        assert result.exact and result.estimate == 400
        assert counters.get("count_nfta.trees_built", 0) == 0

    @pytest.mark.parametrize("backend", ["reference", "optimized"])
    def test_sampling_builds_only_the_drawn_trees(self, backend):
        nfta = self._wide_product()
        trees, counters = self._counters(lambda: sample_accepted_trees(
            nfta, 3, k=5, seed=1, exact_set_cap=4096, backend=backend
        ))
        assert len(trees) == 5
        built = counters["count_nfta.trees_built"]
        # At most the drawn trees and their subtrees, never the
        # 400-tree language.
        assert 0 < built <= sum(tree.size for tree in trees)

    def test_product_view_indexes_in_nested_loop_order(self):
        # A draw from an exact product is rng.randrange(size) into the
        # language enumerated by nested loops over the children (last
        # child fastest); each child language lists its leaves in
        # str-sorted symbol order.
        nfta = self._wide_product(3, 5)
        trees = sample_accepted_trees(nfta, 3, k=20, seed=3)
        left = sorted((f"a{i}" for i in range(3)), key=str)
        right = sorted((f"b{j}" for j in range(5)), key=str)
        language = [
            LabeledTree("σ", (leaf(a), leaf(b)))
            for a in left
            for b in right
        ]
        rng = random.Random(3)
        assert trees == [language[rng.randrange(15)] for _ in range(20)]

    def test_union_draws_from_exact_children_build_no_tree(self):
        # Two overlapping components over the same exact child languages:
        # the union exceeds the cap and is sampled, each component
        # product fits under it.
        transitions = [
            ("root", "σ", ("left", "right")),
            ("root", "σ", ("left2", "right")),
        ]
        for i in range(20):
            transitions += [
                ("left", f"a{i}", ()), ("left2", f"a{i}", ()),
                ("right", f"b{i}", ()),
            ]
        nfta = NFTA(transitions, initial="root")
        result, counters = self._counters(lambda: count_nfta(
            nfta, 3, seed=1, samples=50, exact_set_cap=500
        ))
        assert not result.exact
        assert counters["count_nfta.samples_drawn"] == result.samples_used
        assert counters["count_nfta.membership_checks"] == (
            result.samples_used
        )
        assert counters.get("count_nfta.trees_built", 0) == 0


class TestComponentMembership:
    """Union membership must test every child of a component."""

    @staticmethod
    def _shared_first_child() -> NFTA:
        # Two components σ(x, y1) and σ(x, y2) share their first child
        # state; y1 and y2 derive disjoint leaves, so the components are
        # disjoint and each tree belongs to exactly one of them.
        transitions = [
            ("root", "σ", ("x", "y1")),
            ("root", "σ", ("x", "y2")),
        ]
        transitions += [("x", f"a{i}", ()) for i in range(3)]
        transitions += [("y1", f"b{i}", ()) for i in range(4)]
        transitions += [("y2", f"c{i}", ()) for i in range(4)]
        return NFTA(transitions, initial="root")

    def test_sampled_union_accepts_every_draw_of_disjoint_components(self):
        nfta = self._shared_first_child()
        assert count_nfta_exact(nfta, 3) == 24
        result = count_nfta(nfta, 3, seed=1, samples=200, exact_set_cap=0)
        assert not result.exact
        assert result.estimate == 24.0

    def test_exact_union_keeps_trees_of_disjoint_components(self):
        nfta = self._shared_first_child()
        result = count_nfta(nfta, 3, seed=1, exact_set_cap=4096)
        assert result.exact
        assert result.estimate == 24.0
