"""The serve tier (``-m serve``): admission, shedding, breaker, drain.

Unit tests for the serving primitives plus integration tests that
drive :meth:`PQEServer.handle` — the full request path minus HTTP —
in-process.  Socket-level coverage lives in ``test_serve_http.py``;
the overload/chaos acceptance scenarios in ``test_serve_overload.py``.
"""

import threading
import time

import pytest

from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import (
    DeadlineRejection,
    DrainingRejection,
    QueueFullRejection,
    ReproError,
)
from repro.serve import (
    AdmissionController,
    ArtifactRegistry,
    CircuitBreaker,
    LoadShedder,
    PQEServer,
    ServerConfig,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN
from repro.testing.faults import FaultSpec, inject_faults

pytestmark = pytest.mark.serve

#: The classic non-hierarchical query (#P-hard exactly): its auto
#: ladder runs the full reduction chain, with small instances still
#: answered exactly from lineage.
BASE = "Q :- R(x), S(x, y), T(y)"
#: Self-join: unsafe, exercises the Karp–Luby / reduction chain.
SELF_JOIN = "Q :- P(x, y), P(y, z)"


@pytest.fixture
def pdb() -> ProbabilisticDatabase:
    return ProbabilisticDatabase({
        Fact("R", ("a",)): "1/2",
        Fact("R", ("b",)): "1/3",
        Fact("S", ("a", "b")): "1/2",
        Fact("S", ("b", "c")): "2/3",
        Fact("T", ("b",)): "1/2",
        Fact("T", ("c",)): "1/3",
        Fact("P", ("a", "b")): "1/2",
        Fact("P", ("b", "c")): "2/3",
    })


def make_server(pdb, **overrides) -> PQEServer:
    return PQEServer(pdb, ServerConfig(**overrides))


# ---------------------------------------------------------------------------
# AdmissionController


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAdmission:
    def test_admits_up_to_concurrency_without_queueing(self):
        admission = AdmissionController(max_concurrency=2, max_queue=4)
        first = admission.admit()
        second = admission.admit()
        assert first.queue_seconds == pytest.approx(0.0, abs=0.05)
        assert second.queue_fraction == 0.0
        admission.release()
        admission.release()

    def test_queue_full_rejects_immediately(self):
        admission = AdmissionController(max_concurrency=1, max_queue=0)
        admission.admit()
        with pytest.raises(QueueFullRejection):
            admission.admit()
        admission.release()

    def test_queued_waiter_admitted_on_release_and_charged(self):
        admission = AdmissionController(max_concurrency=1, max_queue=2)
        admission.admit()
        tickets = []

        def waiter():
            tickets.append(admission.admit())

        thread = threading.Thread(target=waiter)
        thread.start()
        # The waiter is queued, not rejected.
        deadline = time.monotonic() + 5
        while admission.snapshot()["waiting"] != 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        time.sleep(0.05)
        admission.release()
        thread.join(timeout=5)
        assert tickets and tickets[0].queue_seconds >= 0.05
        admission.release()

    def test_deadline_expires_in_queue(self):
        admission = AdmissionController(max_concurrency=1, max_queue=2)
        admission.admit()
        started = time.monotonic()
        with pytest.raises(DeadlineRejection) as info:
            admission.admit(deadline=0.1)
        assert time.monotonic() - started >= 0.1
        assert info.value.elapsed >= 0.1
        admission.release()

    def test_drain_rejects_new_arrivals_and_queued_waiters(self):
        admission = AdmissionController(max_concurrency=1, max_queue=2)
        admission.admit()
        outcomes = []

        def waiter():
            try:
                admission.admit()
                outcomes.append("admitted")
            except DrainingRejection:
                outcomes.append("draining")

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 5
        while admission.snapshot()["waiting"] != 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        admission.begin_drain()
        thread.join(timeout=5)
        assert outcomes == ["draining"]
        with pytest.raises(DrainingRejection):
            admission.admit()
        # The in-flight slot survives the drain until released.
        assert not admission.await_idle(timeout=0.05)
        admission.release()
        assert admission.await_idle(timeout=5)

    def test_queue_fraction(self):
        admission = AdmissionController(max_concurrency=1, max_queue=4)
        assert admission.queue_fraction == 0.0
        zero_queue = AdmissionController(max_concurrency=1, max_queue=0)
        assert zero_queue.queue_fraction == 0.0

    def test_validation(self):
        with pytest.raises(ReproError):
            AdmissionController(max_concurrency=0)
        with pytest.raises(ReproError):
            AdmissionController(max_queue=-1)


# ---------------------------------------------------------------------------
# LoadShedder


class TestShedding:
    def test_no_pressure_no_shed(self):
        shedder = LoadShedder(target_p95=0.5)
        decision = shedder.decide(queue_fraction=0.0)
        assert decision.rung == 0
        assert not decision.shed
        assert decision.pressure == 0.0

    def test_queue_occupancy_alone_sheds(self):
        shedder = LoadShedder(thresholds=(0.5, 0.75, 0.9))
        assert shedder.decide(0.4).rung == 0
        assert shedder.decide(0.5).rung == 1
        assert shedder.decide(0.8).rung == 2
        assert shedder.decide(1.0).rung == 3

    def test_latency_history_alone_sheds(self):
        shedder = LoadShedder(target_p95=0.1, ewma_alpha=1.0)
        shedder.observe(0.1)
        assert shedder.decide(0.0).rung == 0  # at target: no pressure
        for _ in range(3):
            shedder.observe(0.3)  # p95 at 3x target -> pressure 2.0
        decision = shedder.decide(0.0)
        assert decision.pressure == pytest.approx(2.0)
        assert decision.rung == 3

    def test_ewma_and_window(self):
        shedder = LoadShedder(target_p95=1.0, ewma_alpha=0.5, window=2)
        shedder.observe(1.0)
        assert shedder.p95_ewma == pytest.approx(0.5)
        shedder.observe(1.0)
        assert shedder.p95_ewma == pytest.approx(0.75)
        # Window of 2: the old samples age out as new ones arrive.
        shedder.observe(0.0)
        shedder.observe(0.0)
        assert shedder.snapshot()["samples"] == 2

    def test_validation(self):
        with pytest.raises(ReproError):
            LoadShedder(target_p95=0.0)
        with pytest.raises(ReproError):
            LoadShedder(thresholds=())
        with pytest.raises(ReproError):
            LoadShedder(thresholds=(0.9, 0.5))
        with pytest.raises(ReproError):
            LoadShedder(ewma_alpha=0.0)
        with pytest.raises(ReproError):
            LoadShedder(window=0)


# ---------------------------------------------------------------------------
# CircuitBreaker


class TestBreaker:
    def test_opens_at_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, clock=clock)
        assert breaker.allow("q") is True
        breaker.record_crash("q")
        breaker.record_crash("q")
        assert breaker.state("q") == CLOSED
        assert breaker.allow("q") is True
        breaker.record_crash("q")
        assert breaker.state("q") == OPEN
        assert breaker.allow("q") is False

    def test_cooldown_admits_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            threshold=1, cooldown=10.0, clock=clock
        )
        breaker.record_crash("q")
        assert breaker.allow("q") is False
        clock.now = 10.0
        assert breaker.allow("q") is True       # the probe
        assert breaker.state("q") == HALF_OPEN
        assert breaker.allow("q") is False      # concurrent: rejected
        breaker.record_success("q")
        assert breaker.state("q") == CLOSED
        assert breaker.allow("q") is True

    def test_probe_crash_reopens_for_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            threshold=1, cooldown=10.0, clock=clock
        )
        breaker.record_crash("q")
        clock.now = 10.0
        assert breaker.allow("q") is True
        breaker.record_crash("q")               # probe died too
        assert breaker.state("q") == OPEN
        clock.now = 19.0
        assert breaker.allow("q") is False      # fresh cooldown
        clock.now = 20.0
        assert breaker.allow("q") is True

    def test_crash_window_slides(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            threshold=2, window=60.0, clock=clock
        )
        breaker.record_crash("q")
        clock.now = 61.0                        # first crash aged out
        breaker.record_crash("q")
        assert breaker.state("q") == CLOSED

    def test_tokens_are_independent(self):
        breaker = CircuitBreaker(threshold=1, clock=FakeClock())
        breaker.record_crash("bad")
        assert breaker.allow("bad") is False
        assert breaker.allow("good") is True
        assert breaker.snapshot() == {"bad": OPEN}

    def test_validation(self):
        with pytest.raises(ReproError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ReproError):
            CircuitBreaker(window=0)
        with pytest.raises(ReproError):
            CircuitBreaker(cooldown=0)


# ---------------------------------------------------------------------------
# ArtifactRegistry


class TestRegistry:
    def test_delta_isolates_per_request_traffic(self):
        registry = ArtifactRegistry(maxsize=8)
        registry.cache.get_or_build("k1", lambda: "v1")
        first = registry.delta()
        assert (first.hits, first.misses) == (0, 1)
        registry.cache.get_or_build("k1", lambda: "v1")
        second = registry.delta()
        assert (second.hits, second.misses) == (1, 0)
        third = registry.delta()
        assert (third.hits, third.misses) == (0, 0)

    def test_disk_tier_appears_in_snapshot(self, tmp_path):
        registry = ArtifactRegistry(disk=str(tmp_path / "cache"))
        snapshot = registry.snapshot()
        assert snapshot["disk"]["records"] == 0
        assert ArtifactRegistry().snapshot().get("disk") is None


# ---------------------------------------------------------------------------
# PQEServer.handle — the request path in-process


class TestHandle:
    def test_success_body_shape(self, pdb):
        server = make_server(pdb)
        status, body = server.handle({"query": BASE})
        assert status == 200
        assert body["ok"] is True
        assert body["method"] == "lifted-exact" or body["exact"]
        assert body["ladder_rung"] == 0
        assert body["shed"] is False
        assert body["degradations"] == []
        assert body["trace_id"] == "req-000001"
        assert body["replayed"] is False
        assert body["rational"] is not None

    def test_repeat_requests_are_bitwise_identical(self, pdb):
        server = make_server(pdb, epsilon=0.5)
        _, first = server.handle(
            {"query": SELF_JOIN, "method": "karp-luby"}
        )
        _, second = server.handle(
            {"query": SELF_JOIN, "method": "karp-luby"}
        )
        assert first["ok"] and second["ok"]
        # Content-derived seeds: same request, same stream, same value.
        assert second["seed"] == first["seed"]
        assert second["value"] == first["value"]

    def test_repeat_fpras_request_hits_the_warm_registry(self, pdb):
        server = make_server(pdb, epsilon=0.5)
        _, first = server.handle(
            {"query": BASE, "method": "fpras"}
        )
        _, second = server.handle(
            {"query": BASE, "method": "fpras"}
        )
        assert first["registry"]["misses"] > 0
        assert second["registry"]["misses"] == 0
        assert second["registry"]["hits"] > 0
        counters = server.telemetry.metrics.counters
        assert counters["serve.registry.hits"] > 0

    @pytest.mark.parametrize("payload, match", [
        ("not a dict", "JSON object"),
        ({}, "JSON object"),
        ({"query": BASE, "bogus": 1}, "unknown request fields"),
        ({"query": BASE, "task": "nope"}, "unknown task"),
        ({"query": BASE, "method": 7}, "method must be a string"),
        ({"query": BASE, "deadline": -1}, "deadline must be > 0"),
        ({"query": BASE, "seed": "x"}, "seed must be an integer"),
        ({"query": "not a query"}, ""),
    ])
    def test_bad_requests_are_400s(self, pdb, payload, match):
        server = make_server(pdb)
        status, body = server.handle(payload)
        assert status == 400
        assert body["rejected"] is True
        assert body["reason"] == "bad_request"
        assert match in body["message"]

    def test_reliability_task(self, pdb):
        server = make_server(pdb)
        status, body = server.handle(
            {"query": BASE, "task": "reliability"}
        )
        assert status == 200 and body["ok"]

    def test_shed_request_reports_rung_and_widened_epsilon(self, pdb):
        server = make_server(pdb, shed_target_p95=0.1)
        # Feed the latency history until the pressure signal alone
        # (queue empty) clears every threshold.
        for _ in range(4):
            server.shedder.observe(1.0)
        status, body = server.handle({"query": BASE})
        assert status == 200 and body["ok"]
        assert body["shed"] is True
        assert body["ladder_rung"] >= 1
        assert body["epsilon"] > server.engine.epsilon
        assert body["pressure"] > 0
        counters = server.telemetry.metrics.counters
        assert counters["serve.shed"] == 1

    def test_shed_epsilon_honours_the_policy_cap(self, pdb):
        server = make_server(pdb, shed_target_p95=0.01, epsilon=0.3)
        for _ in range(8):
            server.shedder.observe(5.0)
        _, body = server.handle({"query": BASE})
        assert body["epsilon"] <= server.policy.epsilon_max

    def test_persistent_failure_is_a_structured_500(self, pdb):
        server = make_server(pdb)
        with inject_faults(FaultSpec("monte_carlo.sample")):
            status, body = server.handle(
                {"query": BASE, "method": "monte-carlo"}
            )
        assert status == 500
        assert body["ok"] is False
        assert body["rejected"] is False
        assert body["error"]["exception"] == "EstimationError"
        assert body["error"]["phase"]
        assert server.telemetry.metrics.counters["serve.errors"] == 1

    def test_transient_failure_degrades_not_500(self, pdb):
        server = make_server(pdb, epsilon=0.5)
        with inject_faults(FaultSpec("lineage.karp_luby", times=1)):
            status, body = server.handle(
                {"query": SELF_JOIN, "method": "karp-luby"}
            )
        assert status == 200 and body["ok"]
        assert body["degradations"] or body["retries"] > 0

    def test_serving_layer_fault_is_contained(self, pdb):
        server = make_server(pdb)
        with inject_faults(FaultSpec("serve.request")):
            status, body = server.handle({"query": BASE})
        assert status == 500
        assert body["error"]["phase"] == "serve.request"
        # The slot was released despite the fault.
        assert server.admission.snapshot()["running"] == 0

    def test_explicit_seed_wins_over_derived(self, pdb):
        server = make_server(pdb, epsilon=0.5)
        _, body = server.handle(
            {"query": BASE, "method": "fpras", "seed": 99}
        )
        assert body["seed"] == 99


class TestBreakerIntegration:
    def test_repeated_crashes_quarantine_the_query(self, pdb):
        server = make_server(pdb, breaker_threshold=2)
        key = server._request_key(
            *server._parse({"query": BASE})[:3],
            server._parse({"query": BASE})[4],
        )
        server.breaker.record_crash(key)
        server.breaker.record_crash(key)
        status, body = server.handle({"query": BASE})
        assert status == 503
        assert body["reason"] == "quarantined"
        # Other queries are unaffected.
        status, body = server.handle(
            {"query": BASE, "task": "reliability"}
        )
        assert status == 200


class TestDrain:
    def test_drain_closes_admission_and_is_idempotent(self, pdb):
        server = make_server(pdb)
        assert server.handle({"query": BASE})[0] == 200
        assert server.drain(reason="test") is True
        assert server.drain(reason="again") is True  # idempotent
        status, body = server.handle({"query": BASE})
        assert status == 503
        assert body["reason"] == "draining"
        assert server.stats()["draining"] is True
        assert server.telemetry.metrics.counters["serve.drains"] == 1

    def test_drain_writes_the_trace(self, pdb, tmp_path):
        trace = tmp_path / "serve-trace.jsonl"
        server = make_server(pdb, trace=str(trace))
        server.handle({"query": BASE})
        server.drain(reason="test")
        from repro.obs.export import read_trace, summarize_trace

        with open(trace, encoding="utf-8") as stream:
            summary = summarize_trace(read_trace(stream))
        assert summary["meta"]["kind"] == "serve"
        assert summary["meta"]["reason"] == "test"
        assert summary["meta"]["settled"] == 1
        assert summary["counters"]["serve.ok"] == 1

    def test_max_requests_auto_drains(self, pdb):
        server = make_server(pdb, max_requests=2)
        server.handle({"query": BASE})
        server.handle({"query": BASE, "task": "reliability"})
        server.serve_until_drained()
        assert server.stats()["draining"] is True


class TestRequestJournalReplay:
    def test_restart_replays_full_fidelity_answers(self, pdb, tmp_path):
        journal = str(tmp_path / "requests.wal")
        first = make_server(pdb, epsilon=0.5, journal=journal)
        _, original = first.handle(
            {"query": BASE, "method": "fpras"}
        )
        assert original["ok"]
        first.drain(reason="restart")

        second = make_server(pdb, epsilon=0.5, journal=journal)
        status, replayed = second.handle(
            {"query": BASE, "method": "fpras"}
        )
        assert status == 200
        assert replayed["replayed"] is True
        assert replayed["value"] == original["value"]
        assert replayed["seed"] == original["seed"]
        counters = second.telemetry.metrics.counters
        assert counters["serve.replays"] == 1
        # A different request still evaluates live.
        status, live = second.handle(
            {"query": BASE, "task": "reliability"}
        )
        assert status == 200 and live["replayed"] is False

    def test_shed_answers_are_never_journalled(self, pdb, tmp_path):
        journal = str(tmp_path / "requests.wal")
        server = make_server(
            pdb, journal=journal, shed_target_p95=0.01
        )
        for _ in range(8):
            server.shedder.observe(5.0)
        _, body = server.handle({"query": BASE})
        assert body["ok"] and body["shed"]
        server.drain(reason="test")

        fresh = make_server(pdb, journal=journal, shed_target_p95=0.01)
        assert fresh._replayable == {}

    def test_default_fingerprint_is_pinned(self, pdb):
        """Request journals written by default daemons stay replayable:
        the digest names the engine's kernel backend, so dropping it or
        changing the default would orphan every existing journal."""
        assert make_server(pdb).fingerprint() == (
            "4aec0a1d258a695735590f433ea568fdd2cb1c447effad25c6096413fe10c737"
        )

    def test_fingerprint_mismatch_refuses_the_journal(
        self, pdb, tmp_path
    ):
        from repro.errors import JournalError

        journal = str(tmp_path / "requests.wal")
        server = make_server(pdb, epsilon=0.5, journal=journal)
        server.handle({"query": BASE, "method": "fpras"})
        server.drain(reason="test")
        with pytest.raises(JournalError, match="fingerprint"):
            make_server(pdb, epsilon=0.25, journal=journal)


class TestConfig:
    def test_unknown_isolation_is_rejected(self, pdb):
        with pytest.raises(ReproError, match="isolation"):
            make_server(pdb, isolation="fibers")

    def test_stats_shape(self, pdb):
        server = make_server(pdb)
        server.handle({"query": BASE})
        stats = server.stats()
        assert stats["settled"] == 1
        assert stats["admission"]["running"] == 0
        assert "p95_ewma" in stats["shedder"]
        assert stats["breaker"] == {}
        assert "hits" in stats["registry"]


# ---------------------------------------------------------------------------
# POST /delta: the mutation path


def reweight_payload(relation="P", constants=("a", "b"), prob="1/9"):
    return {
        "ops": [
            {
                "op": "reweight",
                "relation": relation,
                "constants": list(constants),
                "probability": prob,
            }
        ]
    }


class TestDeltaEndpoint:
    def test_delta_applies_and_serves_the_new_version(self, pdb):
        server = make_server(pdb, epsilon=0.5)
        _, before = server.handle({"query": SELF_JOIN, "method": "karp-luby"})
        status, body = server.handle_delta(reweight_payload())
        assert status == 200
        assert body["ok"] and body["version"] == 1
        assert body["touched"] == ["P"]
        assert server.stats()["database"]["version"] == 1
        # Admission reopened after the barrier.
        assert not server.admission.draining
        _, after = server.handle({"query": SELF_JOIN, "method": "karp-luby"})
        assert after["ok"]
        assert after["value"] != before["value"]

    def test_malformed_and_conflicting_deltas_are_structured(self, pdb):
        server = make_server(pdb)
        status, body = server.handle_delta({"ops": []})
        assert status == 400 and body["reason"] == "bad_request"
        status, body = server.handle_delta({"nope": 1})
        assert status == 400
        status, body = server.handle_delta(
            {"ops": [{"op": "upsert", "relation": "P",
                      "constants": ["a", "b"]}]}
        )
        assert status == 400
        # Deleting a fact that is not there: a 409, head untouched.
        status, body = server.handle_delta(
            {"ops": [{"op": "delete", "relation": "P",
                      "constants": ["zz", "zz"]}]}
        )
        assert status == 409 and body["reason"] == "delta_conflict"
        assert server.versioned.version == 0

    def test_barrier_timeout_aborts_before_the_commit_point(
        self, pdb, tmp_path
    ):
        wal = str(tmp_path / "deltas.wal")
        server = make_server(
            pdb, drain_deadline=0.1, delta_journal=wal
        )
        server.admission.admit()          # a request that never settles
        try:
            status, body = server.handle_delta(reweight_payload())
        finally:
            server.admission.release()
        assert status == 503 and body["reason"] == "delta_barrier"
        assert server.versioned.version == 0
        # Nothing was journalled: a fresh recovery sees zero versions.
        from repro.db.delta import load_delta_journal

        assert len(load_delta_journal(wal)) == 0
        # Admission reopened; the daemon still serves.
        status, body = server.handle({"query": BASE})
        assert status == 200

    def test_draining_daemon_refuses_mutations(self, pdb):
        server = make_server(pdb)
        server.admission.begin_drain()
        status, body = server.handle_delta(reweight_payload())
        assert status == 503 and body["reason"] == "draining"

    def test_delta_journal_restores_the_version_chain(
        self, pdb, tmp_path
    ):
        wal = str(tmp_path / "deltas.wal")
        first = make_server(pdb, delta_journal=wal)
        status, _ = first.handle_delta(reweight_payload())
        assert status == 200
        head = first.versioned.cache_token
        first.drain(reason="restart")

        second = make_server(pdb, delta_journal=wal)
        assert second.versioned.version == 1
        assert second.versioned.recovered == 1
        assert second.versioned.cache_token == head
        assert second.stats()["database"]["recovered"] == 1


class TestDeltaReplayEligibility:
    def test_untouched_replays_touched_recomputes(self, pdb, tmp_path):
        journal = str(tmp_path / "requests.wal")
        first = make_server(pdb, epsilon=0.5, journal=journal)
        _, base_answer = first.handle(
            {"query": BASE, "method": "fpras"}
        )
        _, join_answer = first.handle(
            {"query": SELF_JOIN, "method": "karp-luby"}
        )
        assert base_answer["ok"] and join_answer["ok"]
        first.drain(reason="restart")

        second = make_server(pdb, epsilon=0.5, journal=journal)
        status, body = second.handle_delta(reweight_payload())
        assert status == 200
        counters = second.telemetry.metrics.counters
        # The P-dependent record was dropped by the journal hook; the
        # R/S/T record survived.
        assert counters["delta.invalidated.journal"] == 1
        assert counters["delta.survived"] >= 1

        status, replayed = second.handle(
            {"query": BASE, "method": "fpras"}
        )
        assert status == 200 and replayed["replayed"] is True
        assert replayed["value"] == base_answer["value"]

        status, live = second.handle(
            {"query": SELF_JOIN, "method": "karp-luby"}
        )
        assert status == 200 and live["replayed"] is False
        assert live["value"] != join_answer["value"]

    def test_restart_on_a_mutated_chain_prunes_stale_records(
        self, pdb, tmp_path
    ):
        journal = str(tmp_path / "requests.wal")
        deltas = str(tmp_path / "deltas.wal")
        first = make_server(
            pdb, epsilon=0.5, journal=journal, delta_journal=deltas
        )
        _, base_answer = first.handle(
            {"query": BASE, "method": "fpras"}
        )
        _, join_answer = first.handle(
            {"query": SELF_JOIN, "method": "karp-luby"}
        )
        first.drain(reason="restart")

        # Mutate the chain *offline* (no server running): the next
        # daemon recovers version 1 and must not replay the stale
        # P-dependent answer.
        from repro.db.delta import (
            Delta,
            DeltaOp,
            VersionedDatabase,
        )

        offline = VersionedDatabase(pdb, journal=deltas)
        offline.apply(
            Delta([DeltaOp.reweight(Fact("P", ("a", "b")), "1/9")])
        )
        offline.close()

        second = make_server(
            pdb, epsilon=0.5, journal=journal, delta_journal=deltas
        )
        assert second.versioned.version == 1
        status, replayed = second.handle(
            {"query": BASE, "method": "fpras"}
        )
        assert status == 200 and replayed["replayed"] is True
        assert replayed["value"] == base_answer["value"]
        status, live = second.handle(
            {"query": SELF_JOIN, "method": "karp-luby"}
        )
        assert status == 200 and live["replayed"] is False
        counters = second.telemetry.metrics.counters
        assert counters["serve.replay_stale"] == 1
