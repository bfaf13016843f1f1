"""Seeded FPRAS answers do not depend on ``PYTHONHASHSEED``.

String hashing is salted per process, so anything that numbers states
or orders trees by set/dict iteration over hashed values changes from
one interpreter to the next.  Two such orders used to leak into seeded
answers: the comparator-gadget numbering of the Theorem 1 reduction
(which changed the automaton fingerprint and the sampler's draw order)
and the exact-union merge of the tree counter (which changed which
tree a seeded draw picked).  Each case here runs in fresh interpreters
under two hash seeds and must print the same fingerprints and the same
float bits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_CHILD = r"""
import json

from repro.automata.nfta_counting import sample_accepted_trees
from repro.core.pqe_estimate import build_pqe_reduction, pqe_estimate
from repro.queries.builders import path_query
from repro.workloads import (
    layered_path_instance, random_probabilities, warehouse_instance,
    warehouse_query,
)

s1_instance = layered_path_instance(3, 2, edge_probability=1.0, seed=5)
s1 = (path_query(3), random_probabilities(
    s1_instance, seed=5, max_denominator=3))
w1 = (warehouse_query(), warehouse_instance(2, 2, 3, seed=7))
out = {}
# (name, instance, route, exact-set cap): S1 and W1 on the gadget route,
# and a weighted run whose sampled unions draw from merged exact unions.
for name, (query, pdb), method, cap in [
    ("S1-fpras", s1, "fpras", 4096),
    ("W1-fpras", w1, "fpras", 64),
    ("S1-weighted-merge", s1, "fpras-weighted", 64),
]:
    result = pqe_estimate(
        query, pdb, epsilon=0.3, seed=11, method=method, exact_set_cap=cap
    )
    out[name] = [
        result.reduction.nfta.fingerprint,
        float(result.estimate).hex(),
        result.count_result.samples_used,
    ]
reduction = build_pqe_reduction(*w1)
out["W1-trees"] = [str(tree) for tree in sample_accepted_trees(
    reduction.nfta, reduction.tree_size, k=3, seed=3, exact_set_cap=64)]
print(json.dumps(out, sort_keys=True))
"""


def _run(hash_seed: str) -> dict:
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": str(Path(repro.__file__).parents[1]),
    }
    done = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def test_seeded_fpras_answers_identical_across_hash_seeds():
    first = _run("1")
    second = _run("2")
    assert set(first) == {
        "S1-fpras", "W1-fpras", "S1-weighted-merge", "W1-trees",
    }
    assert first == second
