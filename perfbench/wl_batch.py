"""batch-mixed: cold ``evaluate_batch`` calls, one closed-loop client.

Each operation is one ``evaluate_batch(max_workers=2)`` call made cold,
like a fresh ``repro eval --batch`` process: a new ``ReductionCache``,
with the kernel and lifted-plan stores emptied first.  The items mix
every route that shares the batch machinery:

- answer ranking: rounds of re-scoring the pinned groundings of one
  query (exact regime, so later rounds hit cached counts);
- safe queries (lifted plans);
- self-join queries (Karp–Luby);
- ``task="reliability"`` items (exact lineage);
- ``task="rpq"`` items from the pinned ``rpq_workloads()`` corpus.

Preprocessing and cache reuse dominate; no item draws FPRAS samples,
so a sampler change should leave this workload flat.  Query shapes and
instance structures are pinned; the workload seed draws the
probability labels and the batch seed.
"""

from __future__ import annotations

import math
import time

from common import (
    CORPUS_SEED,
    HostSpeed,
    cold_caches,
    derive_seed,
    median,
    ratio,
    timed_setup,
)

EPSILON = 0.25
#: Large enough that every grounding's count stays in the hybrid
#: counter's exact regime, so repeat rounds are served from the cache.
EXACT_SET_CAP = 16384
RANKING_QUERY = "Q :- Targets(d, p), ParticipatesIn(p, w), LinkedTo(w, s)"
SELF_JOIN_QUERY = "Q :- E(x, y), E(y, z)"
WORKERS = 2

FULL = {"ranking_items": 64, "ranking_domain": 5, "ranking_facts": 4,
        "safe": 4, "self_join": 3, "reliability": 2, "rpq": 8}
TOY = {"ranking_items": 8, "ranking_domain": 3, "ranking_facts": 3,
       "safe": 1, "self_join": 1, "reliability": 1, "rpq": 2}


def _items(seed: int, shape: dict):
    """(batch items, truths); a truth is None for randomized items."""
    from repro.core.exact import exact_probability, exact_uniform_reliability
    from repro.core.parallel import BatchItem
    from repro.graphs.product import rpq_brute_force
    from repro.queries import Variable, parse_query
    from repro.queries.answers import candidate_answers, pin_variables
    from repro.queries.builders import path_query
    from repro.workloads import (
        layered_path_instance,
        random_hierarchical_query,
        random_instance_for_query,
        random_probabilities,
        rpq_workloads,
    )

    items, truths = [], []

    def labelled(instance, *labels):
        return random_probabilities(
            instance, seed=derive_seed(seed, *labels), max_denominator=5
        )

    ranking = parse_query(RANKING_QUERY)
    kb = labelled(
        random_instance_for_query(
            ranking, shape["ranking_domain"], shape["ranking_facts"],
            seed=CORPUS_SEED,
        ),
        "ranking",
    )
    head = (Variable("d"),)
    groundings = []
    for answer in candidate_answers(ranking, kb, head):
        pinned = pin_variables(ranking, kb, dict(zip(head, answer)))
        groundings.append(
            (pinned, exact_probability(*pinned, method="lineage"))
        )
    for index in range(shape["ranking_items"]):
        (query, pdb), truth = groundings[index % len(groundings)]
        items.append(BatchItem(query, pdb, method="fpras-weighted"))
        truths.append(truth)

    for index in range(shape["safe"]):
        shape_seed = derive_seed(CORPUS_SEED, "safe", index)
        query = random_hierarchical_query(seed=shape_seed)
        pdb = labelled(
            random_instance_for_query(query, 4, 5, seed=shape_seed),
            "safe", index,
        )
        items.append(BatchItem(query, pdb))
        truths.append(exact_probability(query, pdb, method="lineage"))

    self_join = parse_query(SELF_JOIN_QUERY)
    for index in range(shape["self_join"]):
        pdb = labelled(
            random_instance_for_query(
                self_join, 5, 8,
                seed=derive_seed(CORPUS_SEED, "self-join", index),
            ),
            "self-join", index,
        )
        items.append(BatchItem(self_join, pdb, method="karp-luby"))
        truths.append(None)

    path = path_query(3)
    for index in range(shape["reliability"]):
        instance = layered_path_instance(
            3, 2, seed=derive_seed(CORPUS_SEED, "reliability", index)
        )
        items.append(BatchItem(path, instance, task="reliability"))
        truths.append(
            exact_uniform_reliability(path, instance, method="lineage")
        )

    for _name, graph, query in rpq_workloads()[: shape["rpq"]]:
        items.append(BatchItem(query, graph, task="rpq"))
        truths.append(rpq_brute_force(graph, query))
    return items, truths


def check_exact(index: int, answer, truth) -> list[str]:
    """An exact answer must equal its truth: exactly when the program
    returns a rational, up to the float conversion otherwise."""
    if truth is None or answer is None or not answer.exact:
        return []
    if answer.rational is not None:
        if answer.rational == truth:
            return []
    elif math.isclose(answer.value, float(truth), rel_tol=1e-12, abs_tol=0.0):
        return []
    return [f"item {index}: exact answer {answer.value!r} != {float(truth)!r}"]


def check_passes(reference: tuple, values: tuple) -> list[str]:
    """Every pass of a run must give bitwise the same item values."""
    if values == reference:
        return []
    differing = [
        index for index, (a, b) in enumerate(zip(reference, values))
        if a != b
    ]
    return [f"item values differ from the first pass at {differing[:10]}"]


class Workload:
    name = "batch-mixed"

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.host = HostSpeed(threads=WORKERS)
        self.shape = TOY if toy else FULL
        self.batch_seed = derive_seed(seed, "batch")
        self.reference = None

    def setup(self) -> float:
        def build():
            from repro import PQEEngine

            cold_caches()
            items, truths = _items(self.seed, self.shape)
            engine = PQEEngine(epsilon=EPSILON, exact_set_cap=EXACT_SET_CAP)
            return engine, items, truths

        (self.engine, self.items, self.truths), seconds = timed_setup(
            build, self.host
        )
        return seconds

    def sizes(self) -> dict:
        return {"epsilon": EPSILON, "items": len(self.items),
                "workers": WORKERS, **self.shape}

    def call(self, telemetry: bool = False):
        from repro import ReductionCache, evaluate_batch

        cold_caches()
        return evaluate_batch(
            self.engine, self.items, max_workers=WORKERS,
            seed=self.batch_seed, cache=ReductionCache(), on_error="skip",
            telemetry=telemetry,
        )

    def check(self, result) -> tuple[int, list[str]]:
        """(items failed, problems) for one batch result."""
        problems, failed = [], 0
        pairs = zip(result.results, self.truths)
        for index, (item, truth) in enumerate(pairs):
            item_problems = (
                [f"item {index}: {item.error.describe()}"]
                if item.error is not None
                else check_exact(index, item.answer, truth)
            )
            failed += bool(item_problems)
            problems.extend(item_problems)
        values = result.values
        if self.reference is None:
            self.reference = values
        drift = check_passes(self.reference, values)
        if drift:
            failed = len(values)
            problems.extend(drift)
        return failed, problems

    def run(self, seconds: float) -> dict:
        walls, problems, failed, calls = [], [], 0, 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            t0 = time.perf_counter()
            result = self.call()
            walls.append(time.perf_counter() - t0)
            calls += 1
            self.host.sample()
            item_failed, item_problems = self.check(result)
            failed += item_failed
            problems.extend(item_problems)
        items = calls * len(self.items)
        return {
            "attempted": items,
            "failed": failed,
            "problems": problems,
            # A median over calls, so a stretch of host noise moves it
            # less than a total would.
            "items_per_s": ratio(len(self.items), median(walls)),
            "latency_p50_s": median(walls),
            "named": {"batch.items_per_s": (
                ratio(len(self.items), median(walls)), "1/s"
            )},
        }

    def traced_pass(self, tracer=None) -> dict:
        """One cold batch call; traced calls also collect the program's
        merged per-item counters (``telemetry=True``)."""
        started = time.perf_counter()
        if tracer is None:
            result = self.call()
        else:
            result = tracer.operation(0, self.call, telemetry=True)
        wall = time.perf_counter() - started
        _failed, problems = self.check(result)
        elapsed = [item.elapsed for item in result.results]
        return {
            "wall": wall,
            "counters": (
                dict(result.telemetry.metrics.counters)
                if result.telemetry is not None else {}
            ),
            "values": list(result.values),
            "problems": problems,
            "extra": {
                "parallel.worker_busy_ratio": ratio(
                    sum(elapsed), result.wall_time * result.max_workers
                ),
                "parallel.item_p50_s": median(elapsed),
                "parallel.item_max_s": max(elapsed),
            },
        }
