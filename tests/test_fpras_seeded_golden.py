"""Golden seeded FPRAS results: estimates, sample counts, sampled trees.

``tests/golden/fpras_seeded.json`` pins, for a fixed seed, what the
Theorem 1 estimator returns on the gadget (``fpras``) and native-weight
(``fpras-weighted``) routes at exact-set caps 0, 64 and 4096: the
estimate's float bits (``float.hex``), ``samples_used``, the ``exact``
flag, and ``str`` of ``sample_accepted_trees(k=3)`` over the same
automaton.  Cap 0 samples every union, 4096 answers small instances
exactly, and 64 mixes the two, so the pins cover every node kind of
the tree counter and the draws that cross between them.

The instances are the S1 (layered ``path_query``) and W1 (warehouse
star join) shapes of the FPRAS benchmark pool, at toy size, plus a few
golden-corpus cases (see ``tests/test_golden_corpus.py``).

Sampler rewrites must keep every value here bitwise: the RNG call
sequence is part of the estimator's contract.  A moved value is a
defect in the change, not a pin to refresh.  ``--update-golden``
rewrites the file only for an intentional change of the estimator
itself; review that diff like any other code change.
"""

from __future__ import annotations

import json
import pathlib

from repro.automata.nfta_counting import sample_accepted_trees
from repro.core.pqe_estimate import build_pqe_reduction, pqe_estimate
from repro.queries.builders import path_query, star_query
from repro.workloads import (
    layered_path_instance,
    random_instance_for_query,
    random_probabilities,
    warehouse_instance,
    warehouse_query,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fpras_seeded.json"

ROUTES = ("fpras", "fpras-weighted")
CAPS = (0, 64, 4096)
EPSILON = 0.3
SEED = 2023


def _cases():
    """(name, query, pdb) for the pinned instances."""
    cases = []
    for index, seed in enumerate((5, 6)):
        instance = layered_path_instance(
            3, 2, edge_probability=1.0, seed=seed
        )
        pdb = random_probabilities(instance, seed=seed, max_denominator=3)
        cases.append((f"S1-{index}", path_query(3), pdb))
    for index, seed in enumerate((7, 8)):
        cases.append((
            f"W1-{index}", warehouse_query(),
            warehouse_instance(2, 2, 3, seed=seed),
        ))
    # Golden-corpus shapes (same generators and seeds as corpus.json).
    for name, query, seed in (
        ("path3-a", path_query(3), 103),
        ("star2-a", star_query(2), 105),
    ):
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=3, seed=seed
        )
        pdb = random_probabilities(instance, seed=seed, max_denominator=5)
        cases.append((name, query, pdb))
    return cases


def _current() -> dict:
    out = {}
    for name, query, pdb in _cases():
        for route in ROUTES:
            weighted = route == "fpras-weighted"
            reduction = build_pqe_reduction(query, pdb, weighted=weighted)
            for cap in CAPS:
                result = pqe_estimate(
                    query, pdb, epsilon=EPSILON, seed=SEED, method=route,
                    exact_set_cap=cap,
                )
                trees = sample_accepted_trees(
                    reduction.nfta, reduction.tree_size, k=3,
                    epsilon=EPSILON, seed=SEED, exact_set_cap=cap,
                    weight_of=reduction.weight_of if weighted else None,
                )
                out[f"{name}/{route}/cap{cap}"] = {
                    "estimate": float(result.estimate).hex(),
                    "samples_used": result.count_result.samples_used,
                    "exact": result.exact,
                    "trees": [str(tree) for tree in trees],
                }
    return out


def test_seeded_fpras_results_match_golden(update_golden):
    current = _current()
    if update_golden:
        GOLDEN_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    frozen = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert len(frozen) == len(_cases()) * len(ROUTES) * len(CAPS)
    moved = sorted(key for key in frozen if current.get(key) != frozen[key])
    assert not moved, (
        f"seeded FPRAS results moved for {moved}; the estimator must "
        "stay bitwise-identical for a fixed seed"
    )
    assert set(current) == set(frozen)
