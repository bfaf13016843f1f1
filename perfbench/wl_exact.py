"""exact-dp: the exact NFTA counting DP, cold, closed loop.

Each operation is one pass over a fixed item list, with the program's
kernel stores emptied before the pass: ``pqe_estimate(...,
method="exact-weighted")`` on S1 and W1 instances and ``ur_estimate(...,
method="exact-automaton")`` on their underlying instances, all with the
default backend.  The automata range from about 200 to over 1000
states, so neither counting backend is the faster one on every item.
The instance structures are pinned; the workload seed draws the
probability labels, which change the DP's weights but not its shape.
No other workload reaches the exact DP in ``core.kernels`` /
``core.vectorized``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from common import (
    CORPUS_SEED,
    HostSpeed,
    cold_caches,
    derive_seed,
    median,
    ratio,
    timed_setup,
)

FULL = {"s1_length": 4, "s1_width": 2, "s1_count": 2,
        "w1_rows": (6, 6, 10), "w1_count": 2}
TOY = {"s1_length": 3, "s1_width": 2, "s1_count": 1,
       "w1_rows": (2, 2, 3), "w1_count": 1}


@dataclass(frozen=True, eq=False)
class Item:
    name: str
    task: str                      # "probability" or "reliability"
    query: object
    database: object
    truth: object                  # Fraction, or int for reliability


def _items(seed: int, shape: dict) -> list:
    from repro.core.exact import exact_probability, exact_uniform_reliability
    from repro.queries.builders import path_query
    from repro.workloads import (
        layered_path_instance,
        random_probabilities,
        warehouse_instance,
        warehouse_query,
    )

    drawn = []
    path = path_query(shape["s1_length"])
    layered = layered_path_instance(
        shape["s1_length"], shape["s1_width"], edge_probability=1.0,
        seed=CORPUS_SEED,
    )
    for index in range(shape["s1_count"]):
        labels = derive_seed(seed, "exact-s1", index)
        drawn.append((f"S1-{index}", path, random_probabilities(
            layered, seed=labels, max_denominator=3,
        )))
    star = warehouse_query()
    for index in range(shape["w1_count"]):
        warehouse = warehouse_instance(
            *shape["w1_rows"], seed=derive_seed(CORPUS_SEED, "w1", index)
        ).instance
        labels = derive_seed(seed, "exact-w1", index)
        drawn.append((f"W1-{index}", star, random_probabilities(
            warehouse, seed=labels, max_denominator=10,
        )))
    items = []
    for name, query, pdb in drawn:
        items.append(Item(name, "probability", query, pdb,
                          exact_probability(query, pdb, method="lineage")))
    # One uniform-reliability item per shape.
    for name, query, pdb in (drawn[0], drawn[-1]):
        instance = pdb.project_to_query(query).instance
        items.append(Item(
            f"UR-{name}", "reliability", query, instance,
            exact_uniform_reliability(query, instance, method="lineage"),
        ))
    return items


def evaluate(item) -> float:
    from repro.core.pqe_estimate import pqe_estimate
    from repro.core.ur_estimate import ur_estimate

    if item.task == "probability":
        return pqe_estimate(
            item.query, item.database, method="exact-weighted"
        ).estimate
    return ur_estimate(
        item.query, item.database, method="exact-automaton"
    ).estimate


def check(item, value) -> list[str]:
    """The DP's answer must equal the lineage-exact truth (up to the
    one rounding of converting the exact rational to a float)."""
    if math.isclose(value, float(item.truth), rel_tol=1e-12, abs_tol=0.0):
        return []
    return [f"{item.name}: {value!r} != truth {float(item.truth)!r}"]


class Workload:
    name = "exact-dp"

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.host = HostSpeed()
        self.shape = TOY if toy else FULL

    def setup(self) -> float:
        def build():
            cold_caches()
            return _items(self.seed, self.shape)

        self.items, seconds = timed_setup(build, self.host)
        return seconds

    def sizes(self) -> dict:
        return {
            "items": {
                item.name: {"task": item.task, "facts": len(item.database)}
                for item in self.items
            },
        }

    def one_pass(self, tracer=None) -> dict:
        """One cold pass over every item."""
        from repro.obs import EvaluationTelemetry, telemetry_scope

        cold_caches()
        telemetry = EvaluationTelemetry() if tracer is not None else None
        values, problems = [], []
        started = time.perf_counter()
        with telemetry_scope(telemetry):
            for index, item in enumerate(self.items):
                try:
                    if tracer is None:
                        value = evaluate(item)
                    else:
                        value = tracer.operation(index, evaluate, item)
                except Exception as error:  # counted, reported, never fatal
                    problems.append(
                        f"{item.name}: {type(error).__name__}: {error}"
                    )
                    values.append(None)
                    continue
                values.append(value)
                problems.extend(check(item, value))
        return {
            "wall": time.perf_counter() - started,
            "counters": dict(telemetry.metrics.counters) if telemetry else {},
            "values": values,
            "problems": problems,
        }

    def run(self, seconds: float) -> dict:
        passes, problems, failed = [], [], 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            result = self.one_pass()
            passes.append(result["wall"])
            self.host.sample()
            problems.extend(result["problems"])
            failed += sum(
                1 for item, value in zip(self.items, result["values"])
                if value is None or check(item, value)
            )
        items = len(passes) * len(self.items)
        return {
            "attempted": items,
            "failed": failed,
            "problems": problems,
            # A median over passes, so a stretch of host noise moves it
            # less than a total would.
            "items_per_s": ratio(len(self.items), median(passes)),
            "latency_p50_s": median(passes),
            "named": {"exact.pass_s": (median(passes), "s")},
        }

    traced_pass = one_pass
