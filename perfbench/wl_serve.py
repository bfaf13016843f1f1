"""serve-delta: the HTTP daemon under an open loop with writes.

``python -m repro serve`` runs as a subprocess with ``--journal`` and
``--delta-journal`` in a fresh directory, so every answer and every
delta pays its fsync'd WAL append.  Requests follow a seeded, paced
schedule at two fixed offered rates, ``light`` then ``busy``, and are
sent over at most two client connections; latency is timed from when
each request was due, so a stall delays the requests behind it.

About 5% of the schedule is ``POST /delta``: mostly reweights of facts
the queries read, the rest delete/insert pairs that keep the database
size constant.  The client sends a delta only once its other request is
settled and holds later requests until the delta returns, as a client
of the daemon's mutation barrier must (requests arriving during the
barrier are refused).  Every 200 answer must be exact for, or within its
reported ε of, the truth at a database version live during the request;
truths are computed in set-up for every version the schedule produces.

This is the only workload that exercises admission, HTTP, the artifact
registry, the WALs and delta invalidation.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

import layers
from common import (
    CORPUS_SEED,
    ROOT,
    WORK_DIR,
    HostSpeed,
    derive_seed,
    deterministic_counters,
    median,
    percentile,
    ratio,
    timed_setup,
)

#: Offered rates in requests per second, and the share of each phase.
#: Chosen so that ``busy`` keeps p95 latency under LATENCY_LIMIT_S on a
#: two-core host (the daemon and this client each take one core).
LIGHT_RATE = 2.0
BUSY_RATE = 5.0
LIGHT_SHARE = 0.3
#: The p95 latency limit: the daemon's default shed target.
LATENCY_LIMIT_S = 0.5
DELTA_SHARE = 0.05
#: Share of deltas that are delete/insert pairs (the rest reweight).
STRUCTURAL_SHARE = 0.2
CONNECTIONS = 2
#: Seconds between host-speed probes while the schedule runs (a probe
#: takes ~20 ms, so it barely delays the client threads).
PROBE_EVERY_S = 1.0

WAREHOUSE_QUERY = "Q :- Sales(o, c, p), Customer(c, r), Product(p, g)"
PATH_QUERY = "Q :- R1(x, y), R2(y, z), R3(z, w)"
TRIAD_QUERY = "Q :- F1(x), F2(x, y), F3(y)"

#: (weight, payload) — the ``/evaluate`` mix: lifted, lineage-exact,
#: reliability and a small share of small FPRAS requests.  Most requests
#: are one costlier kind (path-3 lineage-exact), so the median request
#: is compute-bound rather than bound by the fixed per-request costs
#: (connect, parse, WAL fsync), which vary with the host, and it lies
#: well inside that one kind's latencies.
REQUEST_MIX = (
    (4, {"query": "Q :- Sales(o, c, p), Customer(c, r)"}),
    (4, {"query": "Q :- Customer(c, r), Product(p, g)"}),
    (4, {"query": "Q :- R1(x, y), R2(y, z)"}),
    (4, {"query": WAREHOUSE_QUERY}),
    (72, {"query": PATH_QUERY}),
    (4, {"query": PATH_QUERY, "task": "reliability"}),
    (4, {"query": WAREHOUSE_QUERY, "task": "reliability"}),
    (4, {"query": TRIAD_QUERY, "method": "fpras"}),
)

#: Relations deltas touch: every one is read by some query.
REWEIGHTED = ("Sales", "Customer", "Product", "R1", "R2", "R3")
PROBABILITIES = ("1/5", "2/5", "1/2", "3/5", "4/5")


def _database(seed: int, toy: bool) -> dict:
    """fact → probability; structures pinned, labels from ``seed``."""
    from repro.queries.parser import parse_query
    from repro.workloads import (
        layered_path_instance,
        random_instance_for_query,
        random_probabilities,
        warehouse_instance,
    )

    rows = (2, 2, 3) if toy else (4, 4, 6)
    parts = (
        (warehouse_instance(*rows, seed=CORPUS_SEED).instance, 5),
        (layered_path_instance(3, 2 if toy else 4, seed=CORPUS_SEED), 4),
        (random_instance_for_query(
            parse_query(TRIAD_QUERY), 3, 3 if toy else 4, seed=CORPUS_SEED
        ), 3),
    )
    labels = {}
    for index, (instance, denominator) in enumerate(parts):
        pdb = random_probabilities(
            instance, seed=derive_seed(seed, "labels", index),
            max_denominator=denominator,
        )
        labels.update((fact, pdb.probability(fact)) for fact in pdb)
    return labels


@dataclass
class Entry:
    index: int
    due: float
    phase: str
    kind: str                      # "evaluate" or "delta"
    payload: dict
    mix: int | None = None         # REQUEST_MIX position
    version: int | None = None     # for deltas: the version it creates
    # filled in by the client
    sent: float | None = None
    received: float | None = None
    status: int | None = None
    body: dict = field(default_factory=dict)
    error: str | None = None


def _deal(count: int, rng: random.Random) -> list:
    """``count`` request kinds in the mix's proportions, shuffled: a
    REQUEST_MIX position, or None for a delta (DELTA_SHARE of them)."""
    deltas = round(count * DELTA_SHARE)
    total = sum(weight for weight, _payload in REQUEST_MIX)
    shares = [
        (count - deltas) * weight / total for weight, _payload in REQUEST_MIX
    ]
    counts = [int(share) for share in shares]
    # Largest remainders take the requests rounding left over.
    for position in sorted(
        range(len(shares)), key=lambda p: counts[p] - shares[p]
    )[: count - deltas - sum(counts)]:
        counts[position] += 1
    kinds = [None] * deltas + [
        mix for mix, times in enumerate(counts) for _ in range(times)
    ]
    rng.shuffle(kinds)
    return kinds


def schedule(seed: int, seconds: float, base: dict) -> tuple[list, list]:
    """The seeded open-loop schedule and the database versions it makes.

    Returns (entries, versions): ``versions[k]`` is the fact → label map
    after the first ``k`` deltas.
    """
    from repro.db.fact import Fact

    rng = random.Random(derive_seed(seed, "schedule"))
    labels = dict(base)
    versions = [dict(labels)]
    entries: list[Entry] = []
    fresh = 0
    now = 0.0
    for phase, rate, length in (
        ("light", LIGHT_RATE, seconds * LIGHT_SHARE),
        ("busy", BUSY_RATE, seconds * (1 - LIGHT_SHARE)),
    ):
        # One arrival in the middle half of each of ``count`` equal
        # slots, and the mix dealt in exact proportions: runs differ in
        # arrival times and order, not in load or in the work asked for.
        # (With Poisson arrivals the bunching of a run's ~70 busy
        # requests alone moved its median latency by a quarter.)
        count = round(rate * length)
        gap = length / count
        arrivals = [
            now + (slot + rng.uniform(0.25, 0.75)) * gap
            for slot in range(count)
        ]
        kinds = _deal(count, rng)
        for due, mix in zip(arrivals, kinds):
            index = len(entries)
            if mix is not None:
                payload = dict(REQUEST_MIX[mix][1])
                payload["seed"] = derive_seed(seed, "request", index)
                entries.append(
                    Entry(index, due, phase, "evaluate", payload, mix=mix)
                )
                continue
            if rng.random() < STRUCTURAL_SHARE:
                sales = sorted(
                    (fact for fact in labels if fact.relation == "Sales"),
                    key=repr,
                )
                gone = rng.choice(sales)
                fresh += 1
                new = Fact("Sales", (f"new{fresh}",) + gone.constants[1:])
                probability = labels.pop(gone)
                labels[new] = probability
                ops = [
                    {"op": "delete", "relation": "Sales",
                     "constants": list(gone.constants)},
                    {"op": "insert", "relation": "Sales",
                     "constants": list(new.constants),
                     "probability": str(probability)},
                ]
            else:
                fact = rng.choice(sorted(
                    (f for f in labels if f.relation in REWEIGHTED), key=repr
                ))
                probability = Fraction(rng.choice(PROBABILITIES))
                labels[fact] = probability
                ops = [{"op": "reweight", "relation": fact.relation,
                        "constants": list(fact.constants),
                        "probability": str(probability)}]
            versions.append(dict(labels))
            entries.append(Entry(index, due, phase, "delta", {"ops": ops},
                                 version=len(versions) - 1))
        now += length
    return entries, versions


def truths(versions: list) -> list[list]:
    """``truths[v][m]``: the exact answer of REQUEST_MIX[m] at version v."""
    from repro.core.exact import exact_probability, exact_uniform_reliability
    from repro.db.probabilistic import ProbabilisticDatabase
    from repro.queries.parser import parse_query

    parsed = [parse_query(payload["query"]) for _w, payload in REQUEST_MIX]
    memo = {}
    table = []
    for labels in versions:
        pdb = ProbabilisticDatabase(labels)
        row = []
        for mix, query in enumerate(parsed):
            payload = REQUEST_MIX[mix][1]
            projected = pdb.project_to_query(query)
            # A version's truth depends only on the facts the query reads
            # (and, for reliability, on how many other facts there are).
            key = (mix, len(pdb), frozenset(
                (fact, projected.probability(fact)) for fact in projected
            ))
            if key not in memo:
                if payload.get("task") == "reliability":
                    count = exact_uniform_reliability(
                        query, projected.instance, method="lineage"
                    )
                    # Each fact of another relation doubles the count.
                    memo[key] = count * 2 ** (len(pdb) - len(projected))
                else:
                    memo[key] = exact_probability(
                        query, projected, method="lineage"
                    )
            row.append(memo[key])
        table.append(row)
    return table


def check_answer(entry: Entry, live: range, table: list) -> str | None:
    """None when a 200 answer is exact for, or within its reported ε of,
    the truth at some version in ``live``; otherwise the problem."""
    body = entry.body
    if entry.status != 200 or not body.get("ok"):
        return (f"request {entry.index}: status {entry.status} "
                f"{entry.error or body}")
    for version in live:
        truth = table[version][entry.mix]
        if not body.get("exact"):
            error = abs(body["value"] - float(truth))
            if error <= body["epsilon"] * float(truth):
                return None
        elif body.get("rational") is not None:
            if Fraction(body["rational"]) == truth:
                return None
        # An exact count reported as a float only (the FPRAS route's
        # exact regime) is exact up to the float conversion.
        elif math.isclose(body["value"], float(truth), rel_tol=1e-12):
            return None
    return (
        f"request {entry.index} ({REQUEST_MIX[entry.mix][1]['query']}): "
        f"{body.get('value')!r} matches no version in {list(live)}"
    )


class Daemon:
    """One ``repro serve`` subprocess in its own directory."""

    def __init__(self, labels: dict, seed: int, name: str):
        from repro.db.probabilistic import ProbabilisticDatabase
        from repro.io import dump_pdb_csv

        self.directory = WORK_DIR / f"serve-{name}-{os.getpid()}"
        shutil.rmtree(self.directory, ignore_errors=True)
        self.directory.mkdir(parents=True)
        data = self.directory / "facts.csv"
        with open(data, "w", encoding="utf-8") as stream:
            dump_pdb_csv(ProbabilisticDatabase(labels), stream)
        self.journal = self.directory / "requests.wal"
        self.delta_journal = self.directory / "deltas.wal"
        ready = self.directory / "port"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--data", str(data), "--port", "0",
             "--ready-file", str(ready),
             "--journal", str(self.journal),
             "--delta-journal", str(self.delta_journal),
             "--seed", str(seed),
             "--max-concurrency", str(CONNECTIONS)],
            cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        deadline = time.monotonic() + 60
        while not ready.exists():
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the serve daemon did not start")
            time.sleep(0.01)
        self.port = int(ready.read_text().strip())

    def stats(self) -> dict:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stderr is not None:
            self.process.stderr.close()

    def remove(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def drive(daemon: Daemon, entries: list, host: HostSpeed) -> None:
    """Send ``entries`` on their schedule over CONNECTIONS connections,
    probing the host's speed about once a second meanwhile."""
    cond = threading.Condition()
    state = {"next": 0, "in_flight": 0, "delta": False}
    origin = time.perf_counter() + 0.05

    def take():
        with cond:
            while True:
                position = state["next"]
                if position >= len(entries):
                    return None
                entry = entries[position]
                blocked = state["delta"] or (
                    entry.kind == "delta" and state["in_flight"] > 0
                )
                if not blocked:
                    state["next"] += 1
                    state["in_flight"] += 1
                    state["delta"] = entry.kind == "delta"
                    return entry
                cond.wait()

    def settle(entry):
        with cond:
            state["in_flight"] -= 1
            if entry.kind == "delta":
                state["delta"] = False
            cond.notify_all()

    def worker():
        while (entry := take()) is not None:
            delay = origin + entry.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            path = "/delta" if entry.kind == "delta" else "/evaluate"
            blob = json.dumps(entry.payload).encode()
            entry.sent = time.perf_counter() - origin
            # One connection per request: on a kept-alive connection the
            # daemon's two-write responses meet the client's delayed ACK
            # and stall a varying share of requests by ~40 ms.
            connection = http.client.HTTPConnection(
                "127.0.0.1", daemon.port, timeout=60
            )
            try:
                connection.request(
                    "POST", path, body=blob,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                entry.body = json.loads(response.read())
                entry.status = response.status
            except (OSError, http.client.HTTPException, ValueError) as error:
                entry.error = f"{type(error).__name__}: {error}"
            finally:
                connection.close()
            entry.received = time.perf_counter() - origin
            settle(entry)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        host.sample()
        threads[0].join(timeout=PROBE_EVERY_S)
    for thread in threads:
        thread.join()


def outcome(entries: list, table: list) -> dict:
    """Latencies, failures and shed counts of one driven schedule."""
    deltas = [entry for entry in entries if entry.kind == "delta"]
    latency = {"light": [], "busy": []}
    problems, failed, shed = [], 0, 0
    for entry in entries:
        if entry.kind == "delta":
            applied = entry.body.get("version") == entry.version
            if entry.status != 200 or not applied:
                failed += 1
                problems.append(
                    f"delta {entry.index}: status {entry.status} "
                    f"{entry.error or entry.body}"
                )
            continue
        # Versions live while the request was in flight: every delta
        # finished before it was sent, up to every delta begun before
        # its answer arrived.
        first = sum(1 for d in deltas if d.received is not None
                    and d.received <= entry.sent)
        last = sum(1 for d in deltas if d.sent is not None
                   and d.sent < entry.received)
        problem = check_answer(entry, range(first, last + 1), table)
        if problem is not None:
            failed += 1
            problems.append(problem)
            continue
        latency[entry.phase].append(entry.received - entry.due)
        shed += bool(entry.body.get("shed"))
    return {
        "latency": latency,
        "delta_latency": [d.received - d.due for d in deltas if d.received],
        "problems": problems,
        "failed": failed,
        "shed": shed,
    }


class Workload:
    name = "serve-delta"
    #: The schedule, not the host, sets the throughput of an open loop,
    #: so rates are reported as measured (times still at reference speed).
    open_loop = True

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.host = HostSpeed()
        self.toy = toy
        self.daemon = None
        self.labels: dict = {}
        self.entries: list = []

    def _prepare(self, seconds: float):
        labels = _database(self.seed, self.toy)
        entries, versions = schedule(self.seed, seconds, labels)
        return labels, entries, truths(versions)

    def setup(self) -> float:
        """Nothing to do yet: the schedule's length is only known once
        ``run`` is called, so ``run`` sets up and reports ``setup_s``."""
        return 0.0

    def start(self, seconds: float) -> float:
        """Set up for a schedule of ``seconds``: the oracle's truths for
        every version and a cold daemon start.  Returns the median
        set-up time over the repeats."""

        def build():
            if self.daemon is not None:
                self.daemon.stop()
                self.daemon.remove()
                self.daemon = None
            labels, entries, table = self._prepare(seconds)
            self.daemon = Daemon(labels, self.seed, "run")
            return labels, entries, table

        (self.labels, self.entries, self.table), elapsed = timed_setup(
            build, self.host
        )
        return elapsed

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon.remove()
            self.daemon = None

    def sizes(self) -> dict:
        return {
            "light_rate": LIGHT_RATE,
            "busy_rate": BUSY_RATE,
            "light_share": LIGHT_SHARE,
            "latency_limit_s": LATENCY_LIMIT_S,
            "delta_share": DELTA_SHARE,
            "connections": CONNECTIONS,
            "facts": len(self.labels),
            "requests": len(self.entries),
        }

    def run(self, seconds: float) -> dict:
        setup_s = self.start(seconds)
        drive(self.daemon, self.entries, self.host)
        result = outcome(self.entries, self.table)
        latency = result["latency"]
        # Throughput counts every busy-phase entry that settled with a
        # 200 (answers and deltas): the schedule fixes their number.
        busy = [e for e in self.entries if e.phase == "busy"]
        settled = sum(1 for e in busy if e.status == 200)
        busy_span = (
            max(e.received for e in busy) - min(e.due for e in busy)
            if busy else 0.0
        )
        attempted = len(self.entries)
        requests = sum(1 for e in self.entries if e.kind == "evaluate")
        return {
            "setup_s": setup_s,
            "attempted": attempted,
            "failed": result["failed"],
            "problems": result["problems"],
            "items_per_s": ratio(settled, busy_span),
            "latency_p50_s": median(latency["busy"]),
            "named": {
                "serve.light.p50_s": (median(latency["light"]), "s"),
                "serve.light.p95_s": (percentile(latency["light"], 0.95), "s"),
                "serve.busy.p50_s": (median(latency["busy"]), "s"),
                "serve.busy.p95_s": (percentile(latency["busy"], 0.95), "s"),
                "serve.delta_p50_s": (median(result["delta_latency"]), "s"),
                "serve.shed_fraction": (
                    ratio(result["shed"], requests),
                    "ratio",
                ),
            },
        }

    # -- traced run -----------------------------------------------------

    def traced(self, trace_path, seconds: float) -> dict:
        """Three fresh daemons over one schedule of ``seconds / 3``:
        untraced, then traced twice.  Layer metrics come from the first
        traced run's response bodies, ``/stats`` and WAL files; its
        counters must equal the second's."""
        seconds = seconds / 3
        runs = []
        for name in ("base", "traced-1", "traced-2"):
            labels, entries, table = self._prepare(seconds)
            self.labels, self.entries = labels, entries
            daemon = Daemon(labels, self.seed, name)
            try:
                drive(daemon, entries, HostSpeed())
                stats = daemon.stats()
            finally:
                daemon.stop()
            runs.append({
                "entries": entries,
                "outcome": outcome(entries, table),
                "stats": stats,
                "journal": _size(daemon.journal),
                "delta_journal": _size(daemon.delta_journal),
            })
            daemon.remove()
        base, first, second = runs
        metrics = layers.empty()
        counters = first["stats"]["requests"]
        layers.from_counters(metrics, counters)
        metrics.update(_serve_layers(first))
        metrics["trace.overhead_ratio"] = ratio(
            _total_latency(first), _total_latency(base)
        )
        problems, failed = [], 0
        for run in runs:
            problems += run["outcome"]["problems"]
            failed += run["outcome"]["failed"]
        one = deterministic_counters(counters)
        mismatch = layers.counter_mismatch(one, second["stats"]["requests"])
        if mismatch:
            problems.append(mismatch)
            failed += 1
        _write_spans(trace_path, first["entries"])
        return {
            "metrics": metrics,
            "problems": problems,
            "failed": failed,
            "attempted": sum(len(run["entries"]) for run in runs),
            "counters": one,
        }


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _total_latency(run: dict) -> float:
    latency = run["outcome"]["latency"]
    return sum(latency["light"]) + sum(latency["busy"])


def _serve_layers(run: dict) -> dict:
    answers = [e for e in run["entries"]
               if e.kind == "evaluate" and e.status == 200]
    deltas = [e for e in run["entries"]
              if e.kind == "delta" and e.status == 200]
    counters = run["stats"]["requests"]
    hits = sum(e.body.get("registry", {}).get("hits", 0) for e in answers)
    misses = sum(e.body.get("registry", {}).get("misses", 0) for e in answers)
    journalled = sum(
        1 for e in answers
        if e.body.get("ladder_rung") == 0 and not e.body.get("degradations")
    )
    return {
        "serve.queue_p95_s": percentile(
            [e.body["queue_seconds"] for e in answers], 0.95
        ),
        "serve.engine_p50_s": median(e.body["elapsed"] for e in answers),
        "serve.http_p50_s": median(
            e.received - e.sent - e.body["queue_seconds"] - e.body["elapsed"]
            for e in answers
        ),
        "serve.registry_hit_ratio": ratio(hits, hits + misses),
        "serve.generator_late_p95_s": percentile(
            [e.sent - e.due for e in run["entries"] if e.sent is not None],
            0.95,
        ),
        "delta.invalidated": sum(
            value for name, value in counters.items()
            if name.startswith("delta.invalidated.")
        ),
        "delta.survived": counters.get("delta.survived", 0),
        "journal.bytes_per_answer": ratio(run["journal"], journalled),
        "journal.bytes_per_delta": ratio(run["delta_journal"], len(deltas)),
    }


def _write_spans(path, entries: list) -> None:
    """Client-side spans: one per request, its trace id the schedule
    index, with the daemon-reported queue and engine phases inside."""
    with open(path, "w", encoding="utf-8") as out:
        for entry in entries:
            if entry.sent is None:
                continue
            record = {
                "trace_id": entry.index,
                "name": f"serve.{entry.kind}",
                "phase": entry.phase,
                "due": entry.due,
                "start": entry.sent,
                "end": entry.received,
                "status": entry.status,
                "queue_seconds": entry.body.get("queue_seconds"),
                "engine_seconds": entry.body.get("elapsed"),
            }
            out.write(json.dumps(record) + "\n")
