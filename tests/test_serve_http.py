"""Socket-level coverage for the serve daemon (``-m serve``).

One live :class:`ThreadingHTTPServer` per test, bound to an ephemeral
port on loopback; requests go through ``urllib`` so the wire format —
status codes, JSON bodies, Content-Length framing — is what a real
client sees.  Request-path *logic* is covered in ``test_serve.py``.
"""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.serve import PQEServer, ServerConfig
from repro.serve import server as server_module

pytestmark = pytest.mark.serve

BASE = "Q :- R(x), S(x, y), T(y)"


@pytest.fixture
def pdb() -> ProbabilisticDatabase:
    return ProbabilisticDatabase({
        Fact("R", ("a",)): "1/2",
        Fact("S", ("a", "b")): "1/2",
        Fact("T", ("b",)): "1/2",
    })


@pytest.fixture
def server(pdb):
    instance = PQEServer(pdb, ServerConfig())
    instance.start()
    yield instance
    instance.drain(reason="test-teardown")


def get(server, path):
    url = f"http://127.0.0.1:{server.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as failure:
        return failure.code, json.loads(failure.read())


def post(server, path, payload, *, raw=None):
    body = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as failure:
        return failure.code, json.loads(failure.read())


class TestEndpoints:
    def test_healthz(self, server):
        assert get(server, "/healthz") == (
            200, {"ok": True, "status": "alive"}
        )

    def test_readyz_flips_on_drain(self, server):
        assert get(server, "/readyz") == (
            200, {"ok": True, "status": "ready"}
        )
        server.drain(reason="test")
        # The HTTP listener is closed by drain, so readiness is
        # asserted through the in-process surface afterwards.
        assert server.admission.draining

    def test_evaluate_round_trip(self, server):
        status, body = post(server, "/evaluate", {"query": BASE})
        assert status == 200
        assert body["ok"] is True
        assert 0.0 <= body["value"] <= 1.0
        assert body["trace_id"].startswith("req-")

    def test_evaluate_rejects_malformed_json(self, server):
        status, body = post(
            server, "/evaluate", None, raw=b"{not json"
        )
        assert status == 400
        assert body["reason"] == "bad_request"

    def test_evaluate_rejects_bad_payload(self, server):
        status, body = post(server, "/evaluate", {"nope": 1})
        assert status == 400
        assert body["reason"] == "bad_request"

    def test_stats_endpoint(self, server):
        post(server, "/evaluate", {"query": BASE})
        status, body = get(server, "/stats")
        assert status == 200
        assert body["settled"] == 1
        assert body["requests"]["serve.ok"] == 1
        assert body["draining"] is False

    def test_unknown_routes_404(self, server):
        assert get(server, "/nope")[0] == 404
        assert post(server, "/nope", {})[0] == 404

    def test_concurrent_requests_share_the_warm_registry(self, server):
        from repro.testing.faults import request_burst

        outcomes = request_burst(
            lambda i: post(
                server, "/evaluate", {"query": BASE, "method": "fpras"}
            ),
            count=8,
            concurrency=4,
        )
        assert all(
            not isinstance(outcome, Exception) and outcome[0] == 200
            for outcome in outcomes
        )
        values = {outcome[1]["value"] for outcome in outcomes}
        assert len(values) == 1  # content-derived seed: one answer
        counters = server.telemetry.metrics.counters
        assert counters["serve.ok"] == 8
        assert counters["serve.registry.hits"] > 0


class _CountingWriter:
    """Wraps a handler's ``wfile`` and records every ``write``."""

    def __init__(self, inner, writes: list):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestWireWrites:
    def test_each_response_is_one_write_on_a_kept_alive_connection(
        self, server, monkeypatch
    ):
        """Status line, headers and body go out in one write: split
        sends stall a kept-alive client on its delayed ACK."""
        writes, connections = [], []
        original_setup = server_module._RequestHandler.setup

        def counting_setup(handler):
            original_setup(handler)
            connections.append(handler)
            handler.wfile = _CountingWriter(handler.wfile, writes)

        monkeypatch.setattr(
            server_module._RequestHandler, "setup", counting_setup
        )
        client = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            requests = [
                ("GET", "/healthz", None),
                ("POST", "/evaluate", json.dumps({"query": BASE})),
                ("GET", "/stats", None),
                ("GET", "/missing", None),
            ]
            for number, (method, path, body) in enumerate(requests, 1):
                client.request(method, path, body=body)
                response = client.getresponse()
                payload = json.loads(response.read())
                assert response.status == (404 if path == "/missing" else 200)
                assert isinstance(payload, dict)
                assert len(writes) == number
                assert writes[-1].startswith(b"HTTP/1.1 ")
                assert writes[-1].endswith(
                    json.dumps(payload, sort_keys=True).encode()
                )
        finally:
            client.close()
        assert len(connections) == 1  # every request reused one socket


class TestDrainOverHttp:
    def test_drain_stops_the_listener(self, pdb):
        instance = PQEServer(pdb, ServerConfig())
        instance.start()
        port = instance.port
        assert get(instance, "/healthz")[0] == 200
        assert instance.drain(reason="test") is True
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2
            )
