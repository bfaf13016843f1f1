"""CountNFTA: exact and approximate counting of ``|L_n(T)|``.

The paper's second black box is the FPRAS of Arenas, Croquevielle,
Jayaram and Riveros ("When is approximate counting for conjunctive
queries tractable?", STOC 2021) for counting the trees of size n accepted
by an NFTA.  This module provides:

- :func:`count_nfta_exact` — ground truth via bottom-up determinization
  with a size-indexed convolution DP (worst-case exponential in |S|, fine
  on the validation instances); and
- :func:`count_nfta` — the FPRAS, mirroring
  :mod:`repro.automata.nfa_counting` lifted from string concatenation to
  tree composition.  The decomposition underlying the estimator is

      A(q, s) = ⨄_{(σ, k, s̄)}  ⋃_{τ = (q, σ, (q1..qk)) ∈ Δ}
                    σ⟨ A(q1, s̄1) × … × A(qk, s̄k) ⟩

  where ``A(q, s)`` is the set of size-s trees derivable from q and s̄
  ranges over the compositions of s−1 into k parts.  Two components with
  different root symbol, arity, or size split produce *different* trees
  (a tree determines its children's sizes), so those unions are disjoint
  and their counts add exactly; only same-(σ, k, s̄) components overlap
  and need the Karp–Luby estimator.  Component sets are products, whose
  estimates multiply and whose samples combine independent child draws.

Like the string counter, the evaluator is a DAG of lazy nodes: exact
nodes (the whole language, up to ``exact_set_cap`` trees), lazy product
and disjoint-sum nodes whose counts combine arithmetically, and
Karp–Luby pool nodes — the only place sampling error enters.  Exact
nodes are views that build a tree only when its index is first read
(weighted ones build theirs up front, to weigh them).  A draw returns a
reference that can build its tree, and inside a union also the tree's
evaluated-state bitmask, so membership is a bit test per component
child and a rejected draw builds no tree.  Masks are computed only
where membership is asked: in union draws and in the deduplication of
unweighted exact unions.

Every entry point takes a ``backend`` knob (default ``"auto"``;
see :mod:`repro.core.kernels` and ``docs/performance.md``).  The
optimized backend, which ``auto`` builds on, runs the exact DP over
dense pruned bitmask indexes with process-wide memoized layers, shares
seed-independent sampling plans (with their mask memos) across
repetitions and batch items, and batches the per-sample budget/metric
ticks — while producing
bitwise-identical counts, estimates and sampled trees: exact DP terms
are summed in exact arithmetic (order-free; float weights fall back to
the reference DP), and all backends run the same sampling loops, which
consume the RNG streams in exactly the reference order.  The
``vectorized`` backend (:mod:`repro.core.vectorized`; requires the
optional numpy extra) lowers that same exact layer DP to batched numpy
operations under the same bitwise guarantee; ``auto`` picks one of
the two exact tiers per automaton.  The differential suite
(``tests/test_kernel_differential.py``) enforces this equivalence
across every backend, and no seeded result depends on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import itertools
import random
import sys
from bisect import bisect_right
from typing import Hashable, Iterator

from repro.automata.nfa_counting import CountResult, default_sample_count
from repro.automata.nfta import NFTA
from repro.automata.trees import LabeledTree
from repro.core.budget import budget_checkpoint, budget_tick
from repro.errors import AutomatonError, EstimationError
from repro.obs import metric_inc, span
from repro.testing.faults import fault_point

__all__ = ["count_nfta_exact", "count_nfta", "sample_accepted_trees"]

State = Hashable
Symbol = Hashable


# ----------------------------------------------------------------------
# Exact counting via bottom-up determinization
# ----------------------------------------------------------------------

def count_nfta_exact(nfta: NFTA, size: int, weight_of=None, backend=None):
    """``|L_n(T)|`` exactly — or its *weighted* generalisation.

    Bottom-up subset construction: every tree evaluates deterministically
    to the *full* set of states deriving it, so counting trees per
    (size, subset) cell and summing cells containing ``s_init`` is exact
    even for ambiguous automata.

    With ``weight_of`` (a symbol → weight function), each tree
    contributes ``Π weight_of(label)`` over its nodes instead of 1 —
    the weighted tree measure that lets Theorem 1 skip the comparator
    gadgets entirely (``Pr_H(Q) = measure / d`` on the plain UR
    automaton; see :func:`repro.core.pqe_estimate.pqe_estimate` with
    ``method='exact-weighted'``).  Weights may be ints, Fractions, or
    floats; the result type follows the weights (int when unweighted).

    ``backend='optimized'`` runs the layer DP of
    :mod:`repro.core.kernels` over the pruned dense automaton, with
    layers memoized under the automaton fingerprint; exact arithmetic
    makes the result bitwise-equal to the reference.
    ``backend='vectorized'`` lowers the same layer DP to numpy array
    batches (:mod:`repro.core.vectorized`) with the identical bitwise
    guarantee.  ``backend='auto'`` (the default) picks one of the two
    per automaton from its dense state count and numpy availability.
    Float weights (whose summation order matters) automatically use
    the reference DP under every backend.  The ``counting.nfta_exact``
    span's ``tier`` tag names the DP that actually ran.
    """
    from repro.core import kernels

    backend = kernels.resolve_backend(backend)
    if nfta.has_lambda:
        raise AutomatonError("count_nfta_exact requires a λ-free NFTA")
    if size < 1:
        return 0
    fault_point("counting.nfta")
    weigh = weight_of if weight_of is not None else (lambda _symbol: 1)

    with span("counting.nfta_exact", size=size, backend=backend) as active:
        tier, result = "reference", kernels.FLOAT_WEIGHTS
        if backend != "reference":
            budget_checkpoint("counting.nfta")
            tier, result = kernels.dense_exact_count(
                nfta, size, weigh,
                checkpoint=lambda: budget_checkpoint("counting.nfta"),
                backend=backend,
            )
        if result is kernels.FLOAT_WEIGHTS:
            result = _count_nfta_exact_reference(nfta, size, weigh)
        else:
            # Keep the per-call ``dp_cells`` total equal to the
            # reference's one-increment-per-size, whether or not the
            # layers came from the shared table.
            metric_inc("count_nfta.dp_cells", size)
        active.tag(tier=tier)
        return result


def _count_nfta_exact_reference(nfta: NFTA, size: int, weigh):
    """The seed implementation, verbatim: frozenset-keyed subset DP."""
    groups: dict[tuple[Symbol, int], list[tuple[State, tuple[State, ...]]]] = {}
    for source, symbol, children in nfta.transitions:
        groups.setdefault((symbol, len(children)), []).append(
            (source, children)
        )

    # table[s] maps frozenset-of-states -> total weight of size-s trees
    # evaluating to exactly that subset.
    table: list[dict[frozenset[State], object]] = [
        dict() for _ in range(size + 1)
    ]

    for s in range(1, size + 1):
        budget_checkpoint("counting.nfta")
        metric_inc("count_nfta.dp_cells")
        cell = table[s]
        for (symbol, arity), rules in groups.items():
            weight = weigh(symbol)
            if not weight:
                continue
            if arity == 0:
                if s == 1:
                    subset = frozenset(source for source, _ in rules)
                    cell[subset] = cell.get(subset, 0) + weight
                continue
            if s < arity + 1:
                continue
            for combo, count in _subset_combinations(table, arity, s - 1):
                evaluated = frozenset(
                    source
                    for source, children in rules
                    if all(
                        child in subset
                        for child, subset in zip(children, combo)
                    )
                )
                if evaluated:
                    cell[evaluated] = (
                        cell.get(evaluated, 0) + weight * count
                    )

    return sum(
        count
        for subset, count in table[size].items()
        if nfta.initial in subset
    )


def _subset_combinations(
    table: list[dict[frozenset[State], int]], arity: int, total: int
) -> Iterator[tuple[tuple[frozenset[State], ...], int]]:
    """All ordered subset tuples with sizes summing to ``total``."""

    def rec(
        position: int, remaining: int
    ) -> Iterator[tuple[tuple[frozenset[State], ...], int]]:
        slots_left = arity - position
        if slots_left == 0:
            if remaining == 0:
                yield ((), 1)
            return
        for s in range(1, remaining - (slots_left - 1) + 1):
            for subset, count in table[s].items():
                for rest, rest_count in rec(position + 1, remaining - s):
                    yield ((subset,) + rest, count * rest_count)

    yield from rec(0, total)


# ----------------------------------------------------------------------
# FPRAS node types
# ----------------------------------------------------------------------
#
# A draw returns a *reference* ``(node, key)`` rather than a tree;
# ``node.tree(key)`` materialises the tree when a caller asks for it.
# Exact nodes key a reference by tree index, lazy products by their
# children's references.  ``draw_masked`` also returns the drawn tree's
# evaluated-state mask (see :class:`_MaskTable`), which is
# all a Karp–Luby membership check needs.  Both draws consume the RNG
# exactly like a draw that built the tree.


class _RunStats:
    """Per-run work counts, added to telemetry once when the run ends."""

    __slots__ = ("trees_built", "membership_checks")

    def __init__(self) -> None:
        self.trees_built = 0
        self.membership_checks = 0

    def record(self) -> None:
        if self.trees_built:
            metric_inc("count_nfta.trees_built", self.trees_built)
        if self.membership_checks:
            metric_inc(
                "count_nfta.membership_checks", self.membership_checks
            )


class _FloatWeights:
    """Symbol → ``float(weight_of(symbol))``, converted once per run.

    Lookups go by object identity: every tree label is one of the
    automaton's own symbol objects, alive for the whole run, and hashing
    an int costs a fraction of hashing a ``Literal`` — the fold below
    looks up every node of every weighted exact tree.
    """

    __slots__ = ("_weigh", "_by_id")

    def __init__(self, weigh) -> None:
        self._weigh = weigh
        self._by_id: dict[int, float] = {}

    def __getitem__(self, symbol: Symbol) -> float:
        weight = self._by_id.get(id(symbol))
        if weight is None:
            weight = self._by_id[id(symbol)] = float(self._weigh(symbol))
        return weight

    def tree_weight(self, tree: LabeledTree) -> float:
        """Product of the label weights, folded in preorder from 1.0:
        float products depend on their order, and this one fixes every
        weighted exact count bitwise."""
        by_id = self._by_id
        total = 1.0
        stack = [tree]
        while stack:
            node = stack.pop()
            weight = by_id.get(id(node.label))
            if weight is None:
                weight = self[node.label]
            total *= weight
            if node.children:
                stack.extend(reversed(node.children))
        return total


class _ExactNode:
    """Full language known: ``size`` distinct trees in a fixed order.

    Subclasses map a tree index to the tree (:meth:`tree`) and to its
    evaluated-state mask (:meth:`mask`).  Unweighted nodes are views:
    a tree is built when its index is first read, and a draw is one
    ``rng.randrange(size)``.  Weighted nodes hold every tree
    (``trees``) and its weight, so ``count`` is the total weight and
    draws are weight-proportional.
    """

    __slots__ = ("size", "trees", "weights", "_cumulative", "_total")

    def __init__(self, size: int, trees=None, weights=None):
        self.size = size
        self.trees = trees
        self.weights = weights
        if weights is None:
            self._cumulative = None
            self._total = float(size)
        else:
            self._cumulative = list(itertools.accumulate(weights))
            self._total = self._cumulative[-1] if weights else 0.0

    @property
    def count(self) -> float:
        return self._total

    @property
    def exact(self) -> bool:
        return True

    def draw(self, rng: random.Random):
        if not self.size:
            raise EstimationError("drawing from an empty exact node")
        if self._cumulative is None:
            return self, rng.randrange(self.size)
        pick = rng.random() * self._total
        return self, _bisect(self._cumulative, pick)

    def draw_masked(self, rng: random.Random):
        ref = self.draw(rng)
        return ref, self.mask(ref[1])


class _ExactProduct(_ExactNode):
    """σ⟨A1 × … × Ak⟩ over exact children, as a mixed-radix view.

    Index ``i`` names the tree whose child digits are ``i`` written in
    radix ``(|A1|, …, |Ak|)`` with the last child fastest — the order in
    which nested loops over the children enumerate the product.
    """

    __slots__ = ("symbol", "children", "_table", "_run", "_memo", "_masks")

    def __init__(self, symbol: Symbol, children, table, run, weights=None):
        self.symbol = symbol
        self.children = children
        self._table = table
        self._run = run
        self._memo: dict[int, LabeledTree] = {}
        self._masks: dict[int, int] = {}
        size = _product_tree_count(children)
        if weights is None:
            super().__init__(size)
            return
        trees = [
            LabeledTree(symbol, combo)
            for combo in itertools.product(
                *(child.trees for child in children)
            )
        ]
        run.trees_built += size
        super().__init__(
            size, trees, [weights.tree_weight(tree) for tree in trees]
        )

    def _digits(self, index: int) -> list[int]:
        digits = []
        for child in reversed(self.children):
            index, digit = divmod(index, child.size)
            digits.append(digit)
        digits.reverse()
        return digits

    def tree(self, index: int) -> LabeledTree:
        if self.trees is not None:
            return self.trees[index]
        tree = self._memo.get(index)
        if tree is None:
            children = self.children
            if len(children) == 1:
                subtrees = (children[0].tree(index),)
            else:
                subtrees = tuple(
                    child.tree(digit)
                    for child, digit in zip(children, self._digits(index))
                )
            tree = self._memo[index] = LabeledTree(self.symbol, subtrees)
            self._run.trees_built += 1
        return tree

    def mask(self, index: int) -> int:
        mask = self._masks.get(index)
        if mask is None:
            children = self.children
            if len(children) == 1:
                child_masks = (children[0].mask(index),)
            else:
                child_masks = tuple(
                    child.mask(digit)
                    for child, digit in zip(children, self._digits(index))
                )
            mask = self._masks[index] = self._table.evaluated(child_masks)
        return mask


class _ExactConcat(_ExactNode):
    """Disjoint union of exact nodes, as a concatenation view."""

    __slots__ = ("parts", "_starts")

    def __init__(self, parts, weighted: bool = False):
        self.parts = parts
        self._starts = list(
            itertools.accumulate((p.size for p in parts), initial=0)
        )
        size = self._starts.pop()
        if not weighted:
            super().__init__(size)
            return
        # Stored weights are the same floats a re-walk would give.
        super().__init__(
            size,
            list(itertools.chain.from_iterable(p.trees for p in parts)),
            list(itertools.chain.from_iterable(p.weights for p in parts)),
        )

    def _locate(self, index: int):
        at = bisect_right(self._starts, index) - 1
        return self.parts[at], index - self._starts[at]

    def tree(self, index: int) -> LabeledTree:
        if self.trees is not None:
            return self.trees[index]
        part, local = self._locate(index)
        return part.tree(local)

    def mask(self, index: int) -> int:
        part, local = self._locate(index)
        return part.mask(local)


class _ExactUnion(_ExactNode):
    """Overlapping union of exact products, deduplicated.

    ``entries[i]`` is the (product view, index) where tree ``i`` first
    occurs when the components are enumerated in order.
    """

    __slots__ = ("entries",)

    def __init__(self, entries, trees=None, weights=None):
        self.entries = entries
        super().__init__(len(entries), trees, weights)

    def tree(self, index: int) -> LabeledTree:
        view, local = self.entries[index]
        return view.tree(local)

    def mask(self, index: int) -> int:
        view, local = self.entries[index]
        return view.mask(local)


class _PoolNode:
    """Karp–Luby estimate with its accepted draws: (reference, mask)."""

    __slots__ = ("estimate", "pool")

    def __init__(self, estimate: float, pool: list):
        self.estimate = estimate
        self.pool = pool

    @property
    def count(self) -> float:
        return self.estimate

    @property
    def exact(self) -> bool:
        return False

    def draw(self, rng: random.Random):
        return self.draw_masked(rng)[0]

    def draw_masked(self, rng: random.Random):
        if not self.pool:
            raise EstimationError("drawing from an empty sample pool")
        return self.pool[rng.randrange(len(self.pool))]


class _ProductNode:
    """Lazy σ⟨A1 × … × Ak⟩: count multiplies, draws combine.

    A draw is the tuple of the children's draws, taken in child order;
    the tree is built only if a caller asks for it (:meth:`tree`), so
    a draw that Karp–Luby rejects costs no tree.  A masked draw derives
    the product's mask from the children's through the plan's
    per-(symbol, child masks) memo.
    """

    __slots__ = ("symbol", "children", "_count", "_table", "_run")

    def __init__(
        self, symbol: Symbol, children: list, symbol_weight: float,
        table, run,
    ):
        self.symbol = symbol
        self.children = children
        product = symbol_weight
        for child in children:
            product *= child.count
        self._count = product
        self._table = table
        self._run = run

    @property
    def count(self) -> float:
        return self._count

    @property
    def exact(self) -> bool:
        return all(child.exact for child in self.children)

    def draw(self, rng: random.Random):
        return self, tuple([child.draw(rng) for child in self.children])

    def draw_children(self, rng: random.Random):
        """The children's masked draws: (references, masks)."""
        refs = []
        masks = []
        for child in self.children:
            ref, mask = child.draw_masked(rng)
            refs.append(ref)
            masks.append(mask)
        return tuple(refs), tuple(masks)

    def draw_masked(self, rng: random.Random):
        refs, masks = self.draw_children(rng)
        return (self, refs), self._table.evaluated(masks)

    def tree(self, refs) -> LabeledTree:
        self._run.trees_built += 1
        return LabeledTree(
            self.symbol, tuple(node.tree(key) for node, key in refs)
        )


class _SumNode:
    """Lazy disjoint union: counts add exactly, draws pick ∝ weight."""

    __slots__ = ("parts", "cumulative", "total")

    def __init__(self, parts: list):
        self.parts = parts
        self.cumulative = []
        acc = 0.0
        for part in parts:
            acc += part.count
            self.cumulative.append(acc)
        self.total = acc

    @property
    def count(self) -> float:
        return self.total

    @property
    def exact(self) -> bool:
        return all(part.exact for part in self.parts)

    def _pick(self, rng: random.Random):
        pick = rng.random() * self.total
        return self.parts[_bisect(self.cumulative, pick)]

    def draw(self, rng: random.Random):
        return self._pick(rng).draw(rng)

    def draw_masked(self, rng: random.Random):
        return self._pick(rng).draw_masked(rng)


_ZERO = _ExactConcat(())


class _MaskTable:
    """Evaluated-state masks of one (symbol, arity)'s trees.

    A tree's mask has bit ``state_bits[q]`` set exactly when the tree is
    derivable from ``q``; it depends only on the root symbol and the
    children's masks, so it is memoized under the child-mask tuple.
    """

    __slots__ = ("_leaf", "_by_first", "_memo")

    def __init__(self, rules, bits: dict) -> None:
        self._leaf = 0
        # first-child bit → ((source bit, remaining child bits), …)
        self._by_first: dict[int, list] = {}
        for source, children in rules:
            if not children:
                self._leaf |= bits[source]
                continue
            self._by_first.setdefault(bits[children[0]], []).append(
                (bits[source], tuple(bits[c] for c in children[1:]))
            )
        self._memo: dict[tuple[int, ...], int] = {}

    def evaluated(self, child_masks: tuple[int, ...]) -> int:
        mask = self._memo.get(child_masks)
        if mask is None:
            mask = self._memo[child_masks] = self._evaluate(child_masks)
        return mask

    def _evaluate(self, child_masks: tuple[int, ...]) -> int:
        if not child_masks:
            return self._leaf
        first, rest = child_masks[0], child_masks[1:]
        by_first = self._by_first
        if first.bit_count() < len(by_first):
            rows = []
            remaining = first
            while remaining:
                low = remaining & -remaining
                rows.extend(by_first.get(low, ()))
                remaining ^= low
        else:
            rows = [
                row
                for child_bit, group in by_first.items()
                if first & child_bit
                for row in group
            ]
        mask = 0
        for source_bit, rest_bits in rows:
            for child_mask, bit in zip(rest, rest_bits):
                if not child_mask & bit:
                    break
            else:
                mask |= source_bit
        return mask


class _CounterPlan:
    """Seed-independent preprocessing shared across counter runs.

    Everything here is a pure function of (automaton, size): the size
    masks, the sorted needed (state, size) pairs, the split tables and
    the membership tables.  Sharing it across ``count_nfta``
    repetitions and batch items (keyed by the automaton fingerprint in
    :func:`repro.core.kernels.shared_plan`) changes no RNG call: the
    sampling loops below consume their streams exactly as the
    reference does.  The memos are filled lazily; entries are
    deterministic functions of their key, so concurrent writers are
    redundant, never wrong.

    Masks number every state of the automaton, pruning none, so one
    bit test decides derivability exactly.
    """

    __slots__ = (
        "size_masks", "sorted_pairs", "splits_memo", "state_bits",
        "mask_tables",
    )

    def __init__(self, nfta: NFTA, size: int):
        self.size_masks = nfta.possible_sizes(size)
        self.splits_memo: dict = {}
        self.sorted_pairs = _sorted_needed_pairs(
            nfta, size, self.size_masks, self.splits_memo
        )
        self.state_bits = {
            state: 1 << index for index, state in enumerate(nfta.states)
        }
        self.mask_tables = {
            key: _MaskTable(rules, self.state_bits)
            for key, rules in nfta.by_symbol_arity.items()
        }


def _sorted_needed_pairs(
    nfta: NFTA, size: int, size_masks, splits_memo
) -> tuple[tuple[State, int], ...]:
    """The (state, size) pairs the DP needs, in evaluation order."""
    needed: set[tuple[State, int]] = set()
    stack = [(nfta.initial, size)]
    while stack:
        pair = stack.pop()
        if pair in needed:
            continue
        needed.add(pair)
        state, s = pair
        for _source, _symbol, children in nfta.by_source.get(state, ()):
            for split in _splits_from_masks(
                size_masks, splits_memo, children, s - 1
            ):
                for child, child_size in zip(children, split):
                    stack.append((child, child_size))
    return tuple(sorted(needed, key=lambda p: (p[1], str(p[0]))))


class _TreeCounter:
    def __init__(
        self,
        nfta: NFTA,
        size: int,
        epsilon: float,
        samples: int | None,
        exact_set_cap: int,
        rng: random.Random,
        weight_of=None,
        plan: _CounterPlan | None = None,
    ):
        if nfta.has_lambda:
            raise AutomatonError("count_nfta requires a λ-free NFTA")
        self._nfta = nfta
        self._size = size
        self._samples = samples or default_sample_count(size, epsilon)
        self._cap = exact_set_cap
        self._rng = rng
        self._weights = None if weight_of is None else _FloatWeights(weight_of)
        self._values: dict[tuple[State, int], object] = {}
        # Only the optimized backends share a plan; the reference builds
        # a private one per run.
        self._optimized = plan is not None
        self._plan = plan if plan is not None else _CounterPlan(nfta, size)
        self._size_masks = self._plan.size_masks
        self.stats = _RunStats()
        self.samples_used = 0

    def _symbol_weight(self, symbol: Symbol) -> float:
        if self._weights is None:
            return 1.0
        return self._weights[symbol]

    # -- driver ----------------------------------------------------------

    def run(self) -> CountResult:
        try:
            top = self.top_node()
        finally:
            self.stats.record()
        return CountResult(
            estimate=top.count,
            exact=top.exact,
            samples_used=self.samples_used,
        )

    def top_node(self):
        sys.setrecursionlimit(
            max(sys.getrecursionlimit(), 10 * self._size + 10_000)
        )
        if not self._mask_has(self._nfta.initial, self._size):
            return _ZERO
        for pair in self._plan.sorted_pairs:
            budget_checkpoint("counting.nfta")
            metric_inc("count_nfta.dp_cells")
            self._values[pair] = self._compute(pair)
        return self._values[(self._nfta.initial, self._size)]

    def _mask_has(self, state: State, s: int) -> bool:
        if s < 0:
            return False
        return bool(self._size_masks.get(state, 0) & (1 << s))

    def _splits(
        self, children: tuple[State, ...], total: int
    ) -> tuple[tuple[int, ...], ...]:
        """Size compositions of ``total`` consistent with child size masks."""
        return _splits_from_masks(
            self._size_masks, self._plan.splits_memo, children, total
        )

    # -- per-(state, size) computation ------------------------------------

    def _compute(self, pair: tuple[State, int]):
        state, s = pair
        if not self._mask_has(state, s):
            return _ZERO

        # Group components by (symbol, arity, split); disjoint across
        # groups, overlapping within a group.
        grouped: dict[tuple, list] = {}
        for transition in self._nfta.by_source.get(state, ()):
            _source, symbol, children = transition
            for split in self._splits(children, s - 1):
                grouped.setdefault(
                    (str(symbol), symbol, len(children), split), []
                ).append(transition)

        group_nodes = []
        for key in sorted(grouped, key=lambda k: (k[0], k[2], k[3])):
            _repr, symbol, _arity, split = key
            node = self._group_union(symbol, split, grouped[key])
            if node.count > 0:
                group_nodes.append(node)
        return self._disjoint_sum(group_nodes)

    def _component_children(self, transition, split: tuple[int, ...]):
        values = []
        for child, child_size in zip(transition[2], split):
            value = self._values.get((child, child_size))
            if value is None or value.count <= 0:
                return None
            values.append(value)
        return values

    def _group_union(self, symbol: Symbol, split: tuple[int, ...], members):
        components = []
        for transition in sorted(members, key=str):
            child_values = self._component_children(transition, split)
            if child_values is not None:
                components.append((transition, child_values))
        if not components:
            return _ZERO

        if len(components) == 1:
            return self._product(symbol, components[0][1])

        table = self._plan.mask_tables[(symbol, len(split))]
        # Component j contains a tree iff child c's mask has the bit of
        # component j's c-th child state, for every c.
        bits = self._plan.state_bits
        requirements = [
            tuple(bits[child] for child in transition[2])
            for transition, _ in components
        ]
        if self._cap and all(
            all(isinstance(v, _ExactNode) for v in child_values)
            for _, child_values in components
        ):
            total_trees = sum(
                _product_tree_count(cv) for _, cv in components
            )
            if total_trees <= self._cap:
                return self._exact_union(
                    symbol, components, table, requirements
                )

        symbol_weight = self._symbol_weight(symbol)
        product_nodes = [
            _ProductNode(symbol, child_values, symbol_weight, table, self.stats)
            for _, child_values in components
        ]
        weights = [node.count for node in product_nodes]
        total_weight = sum(weights)
        cumulative: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight
            cumulative.append(acc)

        pool: list = []
        attempts = 0
        checks = 0
        budget = self._samples
        max_attempts = budget * (1 + len(components))
        if self._optimized:
            from repro.core.kernels import TickBatcher

            batcher = TickBatcher("counting.nfta", "count_nfta.samples_drawn")
            tick = batcher.tick
        else:
            batcher = None

            def tick() -> None:
                budget_tick("counting.nfta")
                metric_inc("count_nfta.samples_drawn")

        try:
            while attempts < budget or (
                not pool and attempts < max_attempts
            ):
                attempts += 1
                self.samples_used += 1
                tick()
                pick = self._rng.random() * total_weight
                index = _bisect(cumulative, pick)
                node = product_nodes[index]
                refs, masks = node.draw_children(self._rng)
                checks += 1
                if _first_containing(requirements, masks) == index:
                    pool.append(((node, refs), table.evaluated(masks)))
                if attempts >= budget and pool:
                    break
        finally:
            self.stats.membership_checks += checks
            if batcher is not None:
                batcher.flush()
        if not pool:
            raise EstimationError(
                "tree union estimation rejected every sample"
            )
        estimate = total_weight * len(pool) / attempts
        return _PoolNode(estimate, pool)

    def _exact_union(self, symbol: Symbol, components, table, requirements):
        """Merge overlapping exact products, keeping each tree's first
        occurrence in component order.

        Unweighted exact nodes hold their whole languages, so a tree of
        component j is a duplicate iff its child masks satisfy an
        earlier component, and no tree is built.  A weighted run drops
        zero-weight groups, which can leave a derivable tree out of an
        exact child, so weighted unions compare the built trees.
        """
        views = [
            _ExactProduct(symbol, child_values, table, self.stats)
            for _, child_values in components
        ]
        if self._weights is None:
            entries = []
            checks = 0
            for at, view in enumerate(views):
                earlier = requirements[:at]
                child_masks = itertools.product(*(
                    [child.mask(index) for index in range(child.size)]
                    for child in view.children
                ))
                for index, masks in enumerate(child_masks):
                    checks += 1
                    for bits in earlier:
                        if all(m & b for m, b in zip(masks, bits)):
                            break
                    else:
                        entries.append((view, index))
            self.stats.membership_checks += checks
            return _ExactUnion(entries)
        first: dict[LabeledTree, tuple] = {}
        for view in views:
            for index in range(view.size):
                first.setdefault(view.tree(index), (view, index))
        trees = list(first)
        return _ExactUnion(
            list(first.values()), trees,
            [self._weights.tree_weight(tree) for tree in trees],
        )

    # -- products and sums -------------------------------------------------

    def _product(self, symbol: Symbol, child_values):
        symbol_weight = self._symbol_weight(symbol)
        count = symbol_weight * _product_count(child_values)
        if count <= 0:
            return _ZERO
        table = self._plan.mask_tables[(symbol, len(child_values))]
        if (
            self._cap
            and all(isinstance(v, _ExactNode) for v in child_values)
            and _product_tree_count(child_values) <= self._cap
        ):
            return _ExactProduct(
                symbol, child_values, table, self.stats, self._weights
            )
        return _ProductNode(
            symbol, child_values, symbol_weight, table, self.stats
        )

    def _disjoint_sum(self, group_nodes: list):
        if not group_nodes:
            return _ZERO
        if len(group_nodes) == 1:
            return group_nodes[0]
        if self._cap and all(
            isinstance(n, _ExactNode) for n in group_nodes
        ):
            total = sum(n.size for n in group_nodes)
            if total <= self._cap:
                return _ExactConcat(
                    group_nodes, weighted=self._weights is not None
                )
        return _SumNode(group_nodes)


def _first_containing(requirements, masks: tuple[int, ...]) -> int:
    """Index of the first component whose child states derive the
    drawn children (one bit test per component child)."""
    for index, bits in enumerate(requirements):
        for mask, bit in zip(masks, bits):
            if not mask & bit:
                break
        else:
            return index
    raise EstimationError(
        "sampled tree not generated by any component in its group"
    )


def _product_count(child_values) -> float:
    product = 1.0
    for value in child_values:
        product *= value.count
    return product


def _product_tree_count(child_values) -> int:
    """Number of distinct trees in an exact product (not the measure)."""
    product = 1
    for value in child_values:
        product *= value.size
    return product


def _splits_from_masks(
    size_masks, memo: dict, children: tuple[State, ...], total: int
) -> tuple[tuple[int, ...], ...]:
    """Memoized size compositions of ``total`` over the child masks.

    Materialises the reference generator in its original yield order;
    the memo (per counter run, or shared via a :class:`_CounterPlan`)
    is keyed by the (children, total) pair, both value-hashable.
    """
    key = (children, total)
    cached = memo.get(key)
    if cached is None:
        cached = tuple(_iter_splits(size_masks, children, total))
        memo[key] = cached
    return cached


def _iter_splits(
    size_masks, children: tuple[State, ...], total: int
) -> Iterator[tuple[int, ...]]:
    if total < 0:
        return
    if not children:
        if total == 0:
            yield ()
        return
    masks = [size_masks.get(c, 0) for c in children]
    suffix = [0] * (len(children) + 1)
    suffix[len(children)] = 1  # {0}
    for i in range(len(children) - 1, -1, -1):
        suffix[i] = _sumset(masks[i], suffix[i + 1], total)

    def rec(index: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if index == len(children):
            if remaining == 0:
                yield ()
            return
        if remaining < 0 or not (suffix[index] >> remaining) & 1:
            return
        mask = masks[index]
        s = 1
        while (1 << s) <= mask and s <= remaining:
            if (mask >> s) & 1 and (
                (suffix[index + 1] >> (remaining - s)) & 1
            ):
                for rest in rec(index + 1, remaining - s):
                    yield (s,) + rest
            s += 1

    yield from rec(0, total)


def _sumset(mask_a: int, mask_b: int, limit: int) -> int:
    """Bitmask of { a + b : bit a of mask_a, bit b of mask_b }, ≤ limit."""
    out = 0
    limit_mask = (1 << (limit + 1)) - 1
    remaining = mask_a
    offset = 0
    while remaining:
        if remaining & 1:
            out |= mask_b << offset
        remaining >>= 1
        offset += 1
    return out & limit_mask


def _bisect(cumulative: list[float], pick: float) -> int:
    low, high = 0, len(cumulative) - 1
    while low < high:
        mid = (low + high) // 2
        if pick <= cumulative[mid]:
            high = mid
        else:
            low = mid + 1
    return low


def count_nfta(
    nfta: NFTA,
    size: int,
    epsilon: float = 0.25,
    seed: int | None = None,
    samples: int | None = None,
    exact_set_cap: int = 4096,
    repetitions: int = 1,
    weight_of=None,
    executor=None,
    backend=None,
) -> CountResult:
    """Estimate ``|L_n(T)|`` — the paper's CountNFTA black box.

    Same knobs and guarantees as
    :func:`repro.automata.nfa_counting.count_nfa`; see the module
    docstring for the estimator design.  With ``weight_of`` the
    estimate targets the weighted tree measure instead (see
    :func:`count_nfta_exact`); the ``exact`` flag then certifies the
    measure up to float rounding.

    ``executor`` (a :class:`concurrent.futures.Executor`) fans the
    median-of-``repetitions`` runs out as independent tasks.  Every
    repetition draws from its own RNG stream whose seed is derived up
    front from ``seed``, so the result is bitwise-identical to the
    sequential run regardless of how the executor schedules the tasks.

    ``backend='optimized'`` (and the default ``'auto'``) shares the
    seed-independent counter plan across repetitions and batch items
    and batches the per-sample accounting; every estimate, accepted
    flag and sampled tree is bitwise-identical to
    ``backend='reference'``.  ``backend='vectorized'`` takes the same
    sampling path — vectorizing a loop that must consume the RNG stream
    in reference order would buy nothing — so every backend samples
    identically.
    """
    from repro.core import kernels

    backend = kernels.resolve_backend(backend)
    if not 0 < epsilon < 1:
        raise EstimationError(f"epsilon must be in (0, 1), got {epsilon}")
    if repetitions < 1:
        raise EstimationError("repetitions must be >= 1")
    fault_point("counting.nfta")
    plan = None
    if backend != "reference" and not nfta.has_lambda:
        plan = kernels.shared_plan(
            ("plan", nfta.fingerprint, size),
            lambda: _CounterPlan(nfta, size),
        )
    rng = random.Random(seed)
    repetition_seeds = [rng.randrange(2**63) for _ in range(repetitions)]

    def run_one(repetition_seed: int) -> CountResult:
        return _TreeCounter(
            nfta, size, epsilon, samples, exact_set_cap,
            random.Random(repetition_seed),
            weight_of=weight_of,
            plan=plan,
        ).run()

    # Per-cell/per-sample counters inside _TreeCounter are attributed to
    # the calling thread's telemetry; with an executor the repetitions
    # run on pool threads whose context lacks it, so only the
    # repetition count and the span below are recorded in that mode.
    with span(
        "counting.nfta", size=size, repetitions=repetitions
    ):
        metric_inc("count_nfta.repetitions", repetitions)
        if executor is None:
            results = [run_one(s) for s in repetition_seeds]
        else:
            results = list(executor.map(run_one, repetition_seeds))
    results.sort(key=lambda r: r.estimate)
    median = results[len(results) // 2]
    return CountResult(
        estimate=median.estimate,
        exact=all(r.exact for r in results),
        samples_used=sum(r.samples_used for r in results),
    )


def sample_accepted_trees(
    nfta: NFTA,
    size: int,
    k: int,
    epsilon: float = 0.25,
    seed: int | None = None,
    exact_set_cap: int = 4096,
    weight_of=None,
    backend=None,
) -> list[LabeledTree]:
    """Draw ``k`` approximately-uniform members of ``L_n(T)``.

    With ``weight_of``, draws are approximately weight-proportional
    instead of uniform.  The ``backend`` knob matches
    :func:`count_nfta`: for a fixed seed both backends return the same
    trees in the same order.
    """
    from repro.core import kernels

    backend = kernels.resolve_backend(backend)
    plan = None
    if backend != "reference" and not nfta.has_lambda:
        plan = kernels.shared_plan(
            ("plan", nfta.fingerprint, size),
            lambda: _CounterPlan(nfta, size),
        )
    rng = random.Random(seed)
    counter = _TreeCounter(
        nfta, size, epsilon, None, exact_set_cap, rng,
        weight_of=weight_of,
        plan=plan,
    )
    try:
        top = counter.top_node()
        if top.count <= 0:
            raise EstimationError(
                "language is (estimated) empty; cannot sample"
            )
        drawn: list[LabeledTree] = []
        with span("sampling.trees", k=k):
            if plan is not None:
                batcher = kernels.TickBatcher(
                    "sampling.trees", "sampling.trees_drawn"
                )
                try:
                    for _ in range(k):
                        batcher.tick()
                        node, key = top.draw(rng)
                        drawn.append(node.tree(key))
                finally:
                    batcher.flush()
            else:
                for _ in range(k):
                    budget_tick("sampling.trees")
                    metric_inc("sampling.trees_drawn")
                    node, key = top.draw(rng)
                    drawn.append(node.tree(key))
    finally:
        counter.stats.record()
    return drawn
