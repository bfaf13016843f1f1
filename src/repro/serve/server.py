"""PQE-as-a-service: the crash-tolerant engine daemon.

:class:`PQEServer` wraps one warm :class:`~repro.core.estimator.
PQEEngine` and one probabilistic database behind a stdlib
``ThreadingHTTPServer``.  The request path composes the robustness
layers built in PRs 1–6 plus this package's serving primitives:

1. **circuit breaker** (:mod:`repro.serve.breaker`) — a query token
   quarantined for killing workers is rejected before costing anything;
2. **warm replay** — a request journal recorded by a previous daemon
   instance answers repeat full-fidelity requests without the engine;
3. **admission control** (:mod:`repro.serve.admission`) — bounded
   queue, 429/503 rejections, queue wait deducted from the deadline
   (:meth:`EvaluationBudget.consume_wait
   <repro.core.budget.EvaluationBudget.consume_wait>`);
4. **load shedding** (:mod:`repro.serve.shedding`) — the pressure
   signal picks the degradation-ladder rung the evaluation *starts* at,
   with ε widened per :class:`~repro.core.resilience.DegradationPolicy`
   and the response labelling ``ladder_rung``/``epsilon``/``shed``;
5. **fault containment** — evaluation runs through
   :func:`~repro.core.parallel.evaluate_batch` (``on_error='degrade'``,
   optionally ``isolation='process'``), so engine failures and worker
   crashes come back as structured records, never unhandled exceptions;
6. **graceful drain** — SIGTERM closes admission, in-flight requests
   finish under the drain deadline, the request journal and trace are
   flushed, ``/readyz`` flips to 503 while ``/healthz`` stays 200.

Endpoints::

    GET  /healthz   liveness  (200 while the process serves HTTP)
    GET  /readyz    readiness (200 = admitting, 503 = draining)
    GET  /stats     admission/shedder/breaker/registry/version snapshots
    POST /evaluate  {"query": "Q :- R(x,y)", "task"?, "method"?,
                     "deadline"?, "seed"?}
    POST /delta     {"ops": [{"op": "insert"|"delete"|"reweight",
                     "relation", "constants", "probability"?}, …]}

``POST /delta`` mutates the served database through a
:class:`~repro.db.delta.VersionedDatabase`: admission pauses, in-flight
requests — each pinned to its admission-time version — settle, the
delta applies transactionally (WAL first when ``delta_journal`` is
configured), warm artifacts touching a mutated relation are invalidated
(``delta.invalidated.registry`` / ``.journal``), and admission reopens
against the new version.  See ``docs/incremental.md``.

``handle(payload)`` / ``handle_delta(payload)`` — the full request and
mutation paths minus HTTP — are public methods so tests drive
admission, shedding, crash containment, drain and delta semantics
without sockets.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.core.budget import EvaluationBudget
from repro.core.estimator import PQEEngine
from repro.core.journal import RequestJournal
from repro.core.parallel import BatchItem, evaluate_batch
from repro.core.resilience import DegradationPolicy, degradation_ladder
from repro.db.delta import Delta, VersionedDatabase
from repro.errors import (
    BudgetExceededError,
    DeadlineRejection,
    DeltaError,
    QuarantineRejection,
    ReproError,
    ServeRejection,
)
from repro.obs import EvaluationTelemetry, telemetry_scope
from repro.obs.export import write_trace
from repro.queries.parser import parse_query
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.registry import ArtifactRegistry
from repro.serve.shedding import LoadShedder
from repro.testing.faults import fault_point

__all__ = ["PQEServer", "ServerConfig"]

_TASKS = ("probability", "reliability")


@dataclass(frozen=True)
class ServerConfig:
    """Everything the daemon's robustness behaviour is tuned by."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral
    # admission
    max_concurrency: int = 2
    max_queue: int = 8
    default_deadline: float | None = None
    # shedding
    shed_target_p95: float = 0.5
    shed_thresholds: tuple[float, ...] = (0.5, 0.75, 0.9)
    # engine
    epsilon: float = 0.25
    seed: int = 2023
    isolation: str = "thread"          # 'process' contains crashes
    memory_limit: int | None = None
    # breaker
    breaker_threshold: int = 3
    breaker_window: float = 60.0
    breaker_cooldown: float = 30.0
    # durability
    registry_size: int = 256
    disk_cache: str | None = None
    journal: str | None = None
    delta_journal: str | None = None
    trace: str | None = None
    # drain
    drain_deadline: float = 10.0
    #: Drain automatically after this many settled requests (soak-test
    #: bound; ``None`` serves until signalled).
    max_requests: int | None = None


def _rejection_body(rejection: ServeRejection, trace_id: str) -> dict:
    return {
        "ok": False,
        "rejected": True,
        "reason": rejection.reason,
        "message": str(rejection),
        "trace_id": trace_id,
    }


class PQEServer:
    """One warm engine + database behind admission/shedding/containment.

    Construct, then either call :meth:`handle` directly (tests, in-
    process embedding) or :meth:`start` + :meth:`serve_until_drained`
    (the ``repro serve`` CLI).
    """

    def __init__(self, database, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        if self.config.isolation not in ("thread", "process"):
            raise ReproError(
                f"unknown isolation {self.config.isolation!r}; "
                f"choose 'thread' or 'process'"
            )
        if isinstance(database, VersionedDatabase):
            self.versioned = database
        else:
            self.versioned = VersionedDatabase(
                database, journal=self.config.delta_journal
            )
        self.registry = ArtifactRegistry(
            maxsize=self.config.registry_size,
            disk=self.config.disk_cache,
        )
        # Structure-aware invalidation: a published delta reclaims the
        # warm artifacts and replayable journal records whose keyed
        # relations it touched, and nothing else.
        self.versioned.attach_invalidator(
            "registry", self._invalidate_registry
        )
        self.versioned.attach_invalidator(
            "journal", self._invalidate_replayable
        )
        self._delta_lock = threading.Lock()
        self.engine = PQEEngine(
            epsilon=self.config.epsilon,
            seed=self.config.seed,
            cache=self.registry.cache,
        )
        self.admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            max_queue=self.config.max_queue,
        )
        self.shedder = LoadShedder(
            target_p95=self.config.shed_target_p95,
            thresholds=self.config.shed_thresholds,
        )
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            window=self.config.breaker_window,
            cooldown=self.config.breaker_cooldown,
        )
        self.policy = DegradationPolicy()
        self.telemetry = EvaluationTelemetry()
        self._trace_ids = itertools.count(1)
        self._settle_lock = threading.Lock()
        self._drained = threading.Event()
        self._requests_settled = 0
        self._httpd: ThreadingHTTPServer | None = None

        # Warm restart: replay the previous instance's request journal.
        self.journal: RequestJournal | None = None
        self._replay = None
        self._replayable = {}
        if self.config.journal is not None:
            self.journal = RequestJournal(self.config.journal)
            self._replay = self.journal.bind(self.fingerprint())
            self._replayable = self._replay.requests

    # -- identity -------------------------------------------------------

    @property
    def database(self):
        """The *current* database version's head — every read pins the
        head once and evaluates against that immutable snapshot."""
        return self.versioned.pdb

    def fingerprint(self) -> str:
        """Binds the request journal to this engine + the database
        *lineage* (version 0's token, stable across deltas — per-record
        ``deps`` tokens carry the version-sensitive part, so one journal
        serves the daemon across mutations)."""
        engine = self.engine
        return hashlib.sha256(
            f"repro-serve:{engine.epsilon!r}:{engine.repetitions}:"
            f"{engine.lineage_budget}:{engine.exact_set_cap}:"
            f"{engine.kernel_backend}:"
            f"{self.versioned.base_token}".encode()
        ).hexdigest()

    def _request_key(self, query, task, method, seed) -> str:
        return hashlib.sha256(
            f"serve-request:{task}:{method}:{query.cache_token}:"
            f"{seed}".encode()
        ).hexdigest()

    def _request_seed(self, query, task, method) -> int:
        """Content-derived seed: identical requests draw identical RNG
        streams, so repeat answers are bitwise-identical and the
        request journal can replay them."""
        digest = hashlib.sha256(
            f"serve-seed:{self.config.seed}:{task}:{method}:"
            f"{query.cache_token}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    # -- metrics helpers ------------------------------------------------

    def _inc(self, name: str, value: int = 1) -> None:
        self.telemetry.metrics.inc(name, value)

    def _observe(self, name: str, value: float) -> None:
        self.telemetry.metrics.observe(name, value)

    # -- the request path -----------------------------------------------

    def handle(self, payload) -> tuple[int, dict]:
        """Evaluate one request payload; returns ``(status, body)``.

        Never raises for request-shaped input: malformed payloads are
        400s, rejections are structured 429/503/504 bodies, engine
        failures and worker crashes are structured 500 bodies.
        """
        trace_id = f"req-{next(self._trace_ids):06d}"
        self._inc("serve.requests")
        try:
            query, task, method, deadline, seed = self._parse(payload)
        except ReproError as failure:
            self._inc("serve.rejected.bad_request")
            return 400, {
                "ok": False,
                "rejected": True,
                "reason": "bad_request",
                "message": str(failure),
                "trace_id": trace_id,
            }
        key = self._request_key(query, task, method, seed)

        # 1. Circuit breaker: known worker-killers cost nothing.
        if not self.breaker.allow(key):
            self._inc("serve.rejected.quarantined")
            return 503, _rejection_body(
                QuarantineRejection(
                    f"query {query.cache_token[:12]} is quarantined "
                    f"after repeated worker crashes; retry after "
                    f"{self.config.breaker_cooldown:g}s",
                    phase="serve.breaker",
                ),
                trace_id,
            )

        # 2. Warm replay from a previous instance's journal — only when
        # the record's recorded dependency token still matches the
        # current version's projection over the query's relations (the
        # never-stale-wrong check: content equality, not version
        # equality, so deltas to *other* relations keep replays warm).
        record = self._replayable.get(key)
        if record is not None and not self._replay_eligible(record):
            self._replayable.pop(key, None)
            self._inc("serve.replay_stale")
            record = None
        if record is not None:
            self._inc("serve.replays")
            answer = self._replay.restore_answer(key)
            return 200, self._success_body(
                answer,
                trace_id=trace_id,
                rung=0,
                pressure=0.0,
                epsilon=self.engine.epsilon,
                seed=record["seed"],
                queue_seconds=0.0,
                elapsed=0.0,
                replayed=True,
            )

        # 3. Admission: bounded queue, wait charged to the deadline.
        try:
            ticket = self.admission.admit(deadline)
        except ServeRejection as rejection:
            self._inc(f"serve.rejected.{rejection.reason}")
            return rejection.status, _rejection_body(rejection, trace_id)
        self._inc("serve.admitted")
        self._observe("serve.queue_seconds", ticket.queue_seconds)
        try:
            budget = None
            if deadline is not None:
                try:
                    budget = EvaluationBudget(
                        deadline=deadline
                    ).consume_wait(ticket.queue_seconds)
                except BudgetExceededError:
                    self._inc("serve.rejected.deadline_expired")
                    rejection = DeadlineRejection(
                        f"deadline ({deadline:g}s) consumed by "
                        f"{ticket.queue_seconds:.3f}s of queueing",
                        phase="serve.admit",
                        elapsed=ticket.queue_seconds,
                    )
                    return rejection.status, _rejection_body(
                        rejection, trace_id
                    )
            try:
                return self._evaluate(
                    query, task, method, seed, key, budget, ticket,
                    trace_id,
                )
            except ReproError as failure:
                # The evaluation layers return structured records; a
                # raise here is a serving-layer fault (e.g. an injected
                # ``serve.request`` fault) — still a structured body.
                self._inc("serve.errors")
                return 500, {
                    "ok": False,
                    "rejected": False,
                    "trace_id": trace_id,
                    "error": {
                        "exception": type(failure).__name__,
                        "message": str(failure),
                        "phase": getattr(failure, "phase", None),
                        "retries": 0,
                        "degradations": [],
                    },
                }
        finally:
            self.admission.release()
            self._maybe_request_limit()

    def _parse(self, payload):
        if not isinstance(payload, dict) or "query" not in payload:
            raise ReproError(
                "request body must be a JSON object with a 'query' field"
            )
        unknown = set(payload) - {
            "query", "task", "method", "deadline", "seed"
        }
        if unknown:
            raise ReproError(f"unknown request fields {sorted(unknown)}")
        query = parse_query(payload["query"])
        task = payload.get("task", "probability")
        if task not in _TASKS:
            raise ReproError(
                f"unknown task {task!r}; choose from {_TASKS}"
            )
        method = payload.get("method", "auto")
        if not isinstance(method, str):
            raise ReproError(f"method must be a string, got {method!r}")
        deadline = payload.get("deadline", self.config.default_deadline)
        if deadline is not None:
            deadline = float(deadline)
            if deadline <= 0:
                raise ReproError(
                    f"deadline must be > 0, got {deadline}"
                )
        seed = payload.get("seed")
        if seed is None:
            seed = self._request_seed(query, task, method)
        elif not isinstance(seed, int):
            raise ReproError(f"seed must be an integer, got {seed!r}")
        return query, task, method, deadline, seed

    def _replay_eligible(self, record: dict) -> bool:
        """A journalled answer replays only while the current version's
        projection over the record's relations matches the token it was
        recorded against — bitwise content equality, so a replay can be
        stale-warm (miss) but never stale-wrong."""
        deps = record.get("deps")
        if deps is None:
            # Pre-deps record: safe only on a never-mutated database.
            return self.versioned.version == 0
        relations = frozenset(deps.get("relations", ()))
        return deps.get("token") == self.versioned.pdb.projection_token(
            relations
        )

    # -- the mutation path ----------------------------------------------

    def handle_delta(self, payload) -> tuple[int, dict]:
        """Apply one delta payload; returns ``(status, body)``.

        The mutation barrier: admission pauses so in-flight requests —
        each pinned to its admission-time version — settle before the
        head moves; a barrier that cannot go idle within
        ``drain_deadline`` aborts with a 503 *before* anything is
        journalled or invalidated, so a shed mutation has no trace.
        Conflicting ops (inserting an existing fact, deleting a missing
        one) are structured 409s; the version head is untouched.
        """
        trace_id = f"req-{next(self._trace_ids):06d}"
        self._inc("serve.delta.requests")
        try:
            delta = self._parse_delta(payload)
        except ReproError as failure:
            self._inc("serve.rejected.bad_request")
            return 400, {
                "ok": False,
                "rejected": True,
                "reason": "bad_request",
                "message": str(failure),
                "trace_id": trace_id,
            }
        with self._delta_lock:
            if self._drained.is_set() or self.admission.draining:
                self._inc("serve.rejected.draining")
                return 503, {
                    "ok": False,
                    "rejected": True,
                    "reason": "draining",
                    "message": "the daemon is draining; mutations are "
                               "closed",
                    "trace_id": trace_id,
                }
            idle = self.admission.pause(self.config.drain_deadline)
            try:
                if not idle:
                    self._inc("serve.rejected.delta_barrier")
                    return 503, {
                        "ok": False,
                        "rejected": True,
                        "reason": "delta_barrier",
                        "message": (
                            f"in-flight requests did not settle within "
                            f"{self.config.drain_deadline:g}s; delta "
                            f"aborted before the commit point"
                        ),
                        "trace_id": trace_id,
                    }
                try:
                    # The apply path emits ``delta.*`` counters through
                    # the ambient telemetry — collect them with the
                    # daemon's own.
                    with telemetry_scope(self.telemetry):
                        version = self.versioned.apply(delta)
                except DeltaError as failure:
                    self._inc("serve.delta.rejected")
                    return 409, {
                        "ok": False,
                        "rejected": True,
                        "reason": "delta_conflict",
                        "message": str(failure),
                        "trace_id": trace_id,
                    }
                except ReproError as failure:
                    self._inc("serve.errors")
                    return 500, {
                        "ok": False,
                        "rejected": False,
                        "trace_id": trace_id,
                        "error": {
                            "exception": type(failure).__name__,
                            "message": str(failure),
                            "phase": getattr(failure, "phase", None),
                            "retries": 0,
                            "degradations": [],
                        },
                    }
            finally:
                if not self._drained.is_set():
                    self.admission.resume()
        self._inc("serve.delta.applied")
        return 200, {
            "ok": True,
            "version": version.version,
            "token": version.token,
            "ops": len(delta),
            "touched": sorted(delta.touched_relations),
            "trace_id": trace_id,
        }

    def _parse_delta(self, payload) -> Delta:
        if not isinstance(payload, dict) or "ops" not in payload:
            raise ReproError(
                "delta body must be a JSON object with an 'ops' list"
            )
        unknown = set(payload) - {"ops"}
        if unknown:
            raise ReproError(f"unknown delta fields {sorted(unknown)}")
        ops = payload["ops"]
        if not isinstance(ops, list) or not ops:
            raise ReproError("'ops' must be a non-empty list of op "
                             "records")
        return Delta.from_records(ops)

    # -- delta invalidation hooks ----------------------------------------

    def _invalidate_registry(self, touched, structural) -> dict:
        """Reclaim warm registry artifacts keyed on a touched relation
        (L1 entries, their disk shadows, their kernel memos).
        Unweighted artifacts only match ``structural`` touches."""
        counts = self.registry.cache.invalidate_relations(
            touched, structural=structural
        )
        return {
            "registry": counts["cache"],
            "diskcache": counts["diskcache"],
            "kernels": counts["kernels"],
            "survived": counts["survived"],
        }

    def _invalidate_replayable(self, touched, structural) -> dict:
        """Drop replay-eligible journal records whose query read a
        touched relation (or that predate dependency tracking).

        Journalled answers depend on the probability labels, so the
        full ``touched`` set applies here — a reweight stales an
        answer even though it spares structure-only artifacts."""
        touched = set(touched)
        dropped = survived = 0
        for key, record in list(self._replayable.items()):
            deps = record.get("deps")
            if deps is None or touched & set(deps.get("relations", ())):
                self._replayable.pop(key, None)
                dropped += 1
            else:
                survived += 1
        return {"journal": dropped, "survived": survived}

    def _evaluate(
        self, query, task, method, seed, key, budget, ticket, trace_id
    ) -> tuple[int, dict]:
        fault_point("serve.request")
        decision = self.shedder.decide(ticket.queue_fraction)
        ladder = degradation_ladder(query, task, method)
        rung = min(decision.rung, len(ladder) - 1)
        engine = self.engine
        epsilon = self.policy.widened_epsilon(engine.epsilon, rung)
        if rung:
            self._inc("serve.shed")
            self._inc(f"serve.rung.{rung}")
            engine = copy.copy(engine)
            engine.epsilon = epsilon
        policy = dataclasses.replace(self.policy, routes=ladder[rung:])
        # Pin the version head exactly once: the whole evaluation (and
        # the journalled deps token below) sees one immutable snapshot,
        # even if a delta publishes mid-flight.
        pdb = self.database
        database = pdb.instance if task == "reliability" else pdb
        started = time.perf_counter()
        result = evaluate_batch(
            engine,
            [BatchItem(query, database, task=task, method=method)],
            max_workers=1,
            seed=seed,
            cache=self.registry.cache,
            budget=budget,
            on_error="degrade",
            policy=policy,
            telemetry=True,
            isolation=self.config.isolation,
            memory_limit=self.config.memory_limit,
        )
        elapsed = time.perf_counter() - started
        item = result.results[0]
        with self._settle_lock:
            self._requests_settled += 1
            registry_delta = self.registry.delta()
            if result.telemetry is not None:
                self.telemetry.merge(result.telemetry)
        self.shedder.observe(elapsed)
        self._observe("serve.latency", elapsed)
        self.telemetry.metrics.gauge("serve.pressure", decision.pressure)
        self._inc("serve.registry.hits", registry_delta.hits)
        self._inc("serve.registry.misses", registry_delta.misses)

        if item.ok:
            self.breaker.record_success(key)
            self._inc("serve.ok")
            answer = item.answer
            if (
                self.journal is not None
                and rung == 0
                and not answer.degradations
            ):
                relations = frozenset(query.relation_names)
                self.journal.record_request(
                    key, answer, seed=seed, elapsed=elapsed,
                    deps={
                        "relations": sorted(relations),
                        "token": pdb.projection_token(relations),
                    },
                )
            return 200, self._success_body(
                answer,
                trace_id=trace_id,
                rung=rung,
                pressure=decision.pressure,
                epsilon=epsilon,
                seed=seed,
                queue_seconds=ticket.queue_seconds,
                elapsed=elapsed,
                replayed=False,
                registry=registry_delta,
            )

        error = item.error
        if error.exception == "WorkerCrashError":
            self._inc("serve.crashes")
            self.breaker.record_crash(key)
        else:
            self._inc("serve.errors")
        return 500, {
            "ok": False,
            "rejected": False,
            "trace_id": trace_id,
            "ladder_rung": rung,
            "pressure": decision.pressure,
            "queue_seconds": ticket.queue_seconds,
            "elapsed": elapsed,
            "error": {
                "exception": error.exception,
                "message": error.message,
                "phase": error.phase,
                "retries": error.retries,
                "degradations": list(error.degradations),
            },
        }

    def _success_body(
        self,
        answer,
        *,
        trace_id,
        rung,
        pressure,
        epsilon,
        seed,
        queue_seconds,
        elapsed,
        replayed,
        registry=None,
    ) -> dict:
        body = {
            "ok": True,
            "value": answer.value,
            "method": answer.method,
            "exact": answer.exact,
            "rational": (
                str(answer.rational)
                if answer.rational is not None
                else None
            ),
            "degradations": list(answer.degradations),
            "retries": answer.retries,
            "ladder_rung": rung,
            "shed": rung > 0,
            "pressure": pressure,
            "epsilon": epsilon,
            "seed": seed,
            "trace_id": trace_id,
            "queue_seconds": queue_seconds,
            "elapsed": elapsed,
            "replayed": replayed,
        }
        if registry is not None:
            body["registry"] = {
                "hits": registry.hits,
                "misses": registry.misses,
            }
        return body

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        head = self.versioned.current
        return {
            "requests": self.telemetry.metrics.counters,
            "settled": self._requests_settled,
            "admission": self.admission.snapshot(),
            "shedder": self.shedder.snapshot(),
            "breaker": self.breaker.snapshot(),
            "registry": self.registry.snapshot(),
            "database": {
                "version": head.version,
                "token": head.token,
                "facts": len(head.pdb),
                "recovered": self.versioned.recovered,
                "replayable": len(self._replayable),
            },
            "draining": self.admission.draining,
        }

    # -- HTTP -----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise ReproError("server is not listening (call start())")
        return self._httpd.server_address[1]

    def start(self) -> None:
        """Bind and start serving HTTP on a background thread."""
        handler = type(
            "Handler", (_RequestHandler,), {"pqe_server": self}
        )
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="repro-serve-http",
        )
        self._http_thread.start()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""

        def _on_signal(signum, frame):
            threading.Thread(
                target=self.drain,
                kwargs={"reason": signal.Signals(signum).name},
                daemon=True,
            ).start()

        try:
            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        except ValueError:  # pragma: no cover - non-main thread
            pass

    def serve_until_drained(self) -> None:
        """Block the calling thread until :meth:`drain` completes."""
        self._drained.wait()

    # -- drain ----------------------------------------------------------

    def _maybe_request_limit(self) -> None:
        """Auto-drain once ``max_requests`` requests have settled (the
        soak-test bound).  Runs on a fresh thread: the handler thread
        triggering it must not block on its own drain."""
        limit = self.config.max_requests
        if limit is None or self._requests_settled < limit:
            return
        if not self._drained.is_set():
            threading.Thread(
                target=self.drain,
                kwargs={"reason": "max_requests"},
                daemon=True,
            ).start()

    def drain(self, reason: str = "drain") -> bool:
        """Stop admission, finish in-flight work, flush durable state.

        Idempotent; returns True when every in-flight request finished
        within ``drain_deadline`` (False = the deadline expired with
        requests still running — their slots are abandoned).
        """
        if self._drained.is_set():
            return True
        self._inc("serve.drains")
        self.admission.begin_drain()
        clean = self.admission.await_idle(self.config.drain_deadline)
        if self.journal is not None:
            self.journal.close()
        self.versioned.close()
        if self.config.trace is not None:
            meta = {
                "kind": "serve",
                "reason": reason,
                "settled": self._requests_settled,
                "clean_drain": clean,
            }
            with open(self.config.trace, "w", encoding="utf-8") as out:
                write_trace(out, self.telemetry, meta=meta)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        self._drained.set()
        return clean


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin JSON-over-HTTP shim; all logic lives in :class:`PQEServer`."""

    pqe_server: PQEServer = None  # patched onto a subclass per server
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # the daemon's telemetry replaces access logs

    def _send_json(self, status: int, body: dict) -> None:
        blob = json.dumps(body, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        # Status line, headers and body leave in one write: a second
        # small send would wait out the client's delayed ACK (~40 ms)
        # on a kept-alive connection.  ``end_headers`` without its
        # flush is the header terminator plus the body.
        self._headers_buffer.append(b"\r\n" + blob)
        self.flush_headers()

    def do_GET(self):  # noqa: N802 - stdlib casing
        server = self.pqe_server
        if self.path == "/healthz":
            self._send_json(200, {"ok": True, "status": "alive"})
        elif self.path == "/readyz":
            if server.admission.draining:
                self._send_json(
                    503, {"ok": False, "status": "draining"}
                )
            else:
                self._send_json(200, {"ok": True, "status": "ready"})
        elif self.path == "/stats":
            self._send_json(200, server.stats())
        else:
            self._send_json(
                404, {"ok": False, "message": f"no route {self.path}"}
            )

    def do_POST(self):  # noqa: N802 - stdlib casing
        if self.path not in ("/evaluate", "/delta"):
            self._send_json(
                404, {"ok": False, "message": f"no route {self.path}"}
            )
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as failure:
            self._send_json(
                400,
                {
                    "ok": False,
                    "rejected": True,
                    "reason": "bad_request",
                    "message": f"request body is not JSON: {failure}",
                },
            )
            return
        if self.path == "/delta":
            status, body = self.pqe_server.handle_delta(payload)
        else:
            status, body = self.pqe_server.handle(payload)
        self._send_json(status, body)
