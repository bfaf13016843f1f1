"""fpras-unsafe: the production FPRAS route, one closed-loop client.

Sequential ``PQEEngine.probability(q, pdb, method="auto")`` calls over a
pinned pool of unsafe self-join-free instances: S1 (``path_query(4)`` on
a complete layered instance) and W1 (the warehouse star join).  The
gadget automaton's size depends on the probability labels, so labels
are pinned too; the workload seed draws every call's RNG seed.  The
engine's ``lineage_budget`` sits below every instance's clause count,
so ``auto`` takes the Theorem 1 FPRAS, as it does once a user's lineage
outgrows the budget.  This is the only workload that draws samples:
``count_nfta`` is nearly all of its time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from common import (
    CORPUS_SEED,
    HostSpeed,
    cold_caches,
    derive_seed,
    median,
    ratio,
    timed_setup,
)

EPSILON = 0.3
#: Queries per (W1, W1, S1) cycle of the pool.
CYCLE = 3

#: Pool shapes: one pass is ``s1_count`` (W1, W1, S1) cycles over two W1
#: instances and ``s1_count`` S1 labellings.  Repeating the two W1
#: instances keeps the median query on one instance's time instead of
#: jumping between the times of different instances.
FULL = {"s1_length": 4, "s1_width": 2, "s1_count": 4,
        "w1_rows": (4, 4, 6), "w1_count": 2}
TOY = {"s1_length": 3, "s1_width": 2, "s1_count": 1,
       "w1_rows": (2, 2, 3), "w1_count": 2}


@dataclass(frozen=True, eq=False)
class Instance:
    name: str
    query: object
    pdb: object
    truth: Fraction
    clauses: int


def _pool(shape: dict) -> list:
    from repro.core.exact import exact_probability
    from repro.lineage.build import lineage_clause_count
    from repro.queries.builders import path_query
    from repro.workloads import (
        layered_path_instance,
        random_probabilities,
        warehouse_instance,
        warehouse_query,
    )

    drawn = []
    path = path_query(shape["s1_length"])
    for index in range(shape["s1_count"]):
        sub = derive_seed(CORPUS_SEED, "s1", index)
        instance = layered_path_instance(
            shape["s1_length"], shape["s1_width"],
            edge_probability=1.0, seed=sub,
        )
        pdb = random_probabilities(instance, seed=sub, max_denominator=3)
        drawn.append((f"S1-{index}", path, pdb))
    star = warehouse_query()
    for index in range(shape["w1_count"]):
        sub = derive_seed(CORPUS_SEED, "w1", index)
        drawn.append((f"W1-{index}", star,
                      warehouse_instance(*shape["w1_rows"], seed=sub)))
    pool = []
    for name, query, pdb in drawn:
        truth = exact_probability(query, pdb, method="lineage")
        clauses = lineage_clause_count(
            query, pdb.project_to_query(query).instance
        )
        pool.append(Instance(name, query, pdb, truth, clauses))
    # Interleave the shapes in (W1, W1, S1) cycles so a run cut mid-pass
    # keeps the pool's mix and the median query lies inside the W1 group.
    s1 = [item for item in pool if item.name.startswith("S1")]
    w1 = [item for item in pool if item.name.startswith("W1")]
    mixed = []
    for cycle, item in enumerate(s1):
        mixed.extend((w1[(2 * cycle) % len(w1)],
                      w1[(2 * cycle + 1) % len(w1)], item))
    return mixed


def _warm(engine, pool) -> None:
    """Build every instance's counter plan (and its reduction) once."""
    from repro.automata.nfta_counting import count_nfta
    from repro.core.pqe_estimate import build_pqe_reduction
    from repro.errors import EstimationError

    for item in dict.fromkeys(pool):
        reduction = build_pqe_reduction(item.query, item.pdb)
        try:
            # The plan is built before any sample is drawn; one sample
            # per union and no exact sets keep the rest of the call short.
            count_nfta(
                reduction.nfta, reduction.tree_size, epsilon=EPSILON,
                samples=1, exact_set_cap=0, seed=0,
                backend=engine.kernel_backend,
            )
        except EstimationError:
            pass


class Workload:
    name = "fpras-unsafe"

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.host = HostSpeed()
        self.shape = TOY if toy else FULL

    def setup(self) -> float:
        def build():
            from repro import PQEEngine

            cold_caches()
            pool = _pool(self.shape)
            engine = PQEEngine(
                epsilon=EPSILON,
                lineage_budget=min(item.clauses for item in pool) - 1,
            )
            _warm(engine, pool)
            return engine, pool

        (self.engine, self.pool), seconds = timed_setup(build, self.host)
        return seconds

    def sizes(self) -> dict:
        return {
            "epsilon": EPSILON,
            "lineage_budget": self.engine.lineage_budget,
            "instances": {
                item.name: {"facts": len(item.pdb), "clauses": item.clauses}
                for item in self.pool
            },
        }

    # -- one operation --------------------------------------------------

    def op_seed(self, index: int) -> int:
        return derive_seed(self.seed, "fpras-op", index)

    def query(self, index: int, telemetry: bool = False):
        item = self.pool[index % len(self.pool)]
        answer = self.engine.probability(
            item.query, item.pdb, method="auto",
            seed=self.op_seed(index), telemetry=telemetry,
        )
        return item, answer

    @staticmethod
    def check(item, answer) -> list[str]:
        """Problems with one answer (empty when it passes)."""
        problems = []
        if answer.method != "fpras":
            problems.append(f"{item.name}: routed to {answer.method}")
        if not within_epsilon(answer.value, item.truth, EPSILON):
            problems.append(
                f"{item.name}: {answer.value!r} outside (1±{EPSILON}) "
                f"of {float(item.truth)!r}"
            )
        return problems

    # -- untraced run ---------------------------------------------------

    def run(self, seconds: float) -> dict:
        latencies, failures, failed, out_of_eps = [], [], 0, 0
        started = time.perf_counter()
        index = 0
        while time.perf_counter() - started < seconds:
            t0 = time.perf_counter()
            try:
                item, answer = self.query(index)
            except Exception as error:  # counted, reported, never fatal
                latencies.append(time.perf_counter() - t0)
                failed += 1
                failures.append(f"op {index}: {type(error).__name__}: {error}")
            else:
                latencies.append(time.perf_counter() - t0)
                problems = self.check(item, answer)
                failed += bool(problems)
                failures.extend(problems)
                if not within_epsilon(answer.value, item.truth, EPSILON):
                    out_of_eps += 1
            index += 1
            self.host.sample()
        # Figures come from whole passes over the pool, so every run
        # measures the same queries however many fit in its time.
        # Throughput is the median over (W1, W1, S1) cycles, so a
        # stretch of host noise moves it less than a total would.
        whole = len(latencies) - len(latencies) % len(self.pool)
        measured = latencies[:whole] or latencies
        cycles = [
            CYCLE / sum(measured[start:start + CYCLE])
            for start in range(0, len(measured) - CYCLE + 1, CYCLE)
        ]
        return {
            "attempted": index,
            "failed": failed,
            "problems": failures,
            "items_per_s": median(cycles),
            "latency_p50_s": median(measured),
            "named": {
                "fpras.queries_per_s": (median(cycles), "1/s"),
                "fpras.query_p50_s": (median(measured), "s"),
                "fpras.out_of_eps_fraction": (
                    ratio(out_of_eps, index), "ratio"
                ),
            },
        }

    # -- traced run -----------------------------------------------------

    def trace_ops(self) -> int:
        """The traced run's fixed operation list: two cycles of the pool
        (or the whole toy pool), to keep the three passes short."""
        return min(len(self.pool), 2 * CYCLE)

    def traced_pass(self, tracer=None) -> dict:
        """One pass over the pool; with ``tracer``, spans + counters."""
        counters: dict = {}
        values = []
        problems = []
        started = time.perf_counter()
        for index in range(self.trace_ops()):
            if tracer is None:
                item, answer = self.query(index)
            else:
                item, answer = tracer.operation(
                    index, self.query, index, telemetry=True
                )
                for name, value in answer.telemetry.metrics.counters.items():
                    counters[name] = counters.get(name, 0) + value
            values.append(answer.value)
            problems.extend(self.check(item, answer))
        return {
            "wall": time.perf_counter() - started,
            "counters": counters,
            "values": values,
            "problems": problems,
        }

    def recompose(self) -> list[str]:
        """The layered chain, called layer by layer with the engine's
        seed, must reproduce each ``PQEAnswer.value`` bitwise."""
        from repro.automata.nfta_counting import count_nfta
        from repro.core.kernels import dense_automaton
        from repro.core.pqe_estimate import build_pqe_reduction
        from repro.decomposition import decompose

        problems = []
        engine = self.engine
        for index in range(self.trace_ops()):
            item, answer = self.query(index)
            decomposition = decompose(item.query)
            reduction = build_pqe_reduction(
                item.query, item.pdb, decomposition=decomposition
            )
            dense_automaton(reduction.nfta)
            counted = count_nfta(
                reduction.nfta, reduction.tree_size,
                epsilon=engine.epsilon, seed=self.op_seed(index),
                exact_set_cap=engine.exact_set_cap,
                repetitions=engine.repetitions,
                backend=engine.kernel_backend,
            )
            value = min(counted.estimate / reduction.denominator, 1.0)
            if value.hex() != float(answer.value).hex():
                problems.append(
                    f"{item.name}: layered chain gave {value!r}, "
                    f"engine gave {answer.value!r}"
                )
        return problems

    traced_checks = recompose


def within_epsilon(value: float, truth, epsilon: float) -> bool:
    truth = float(truth)
    return abs(value - truth) <= epsilon * truth
