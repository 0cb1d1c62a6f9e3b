"""HTTP gateway: smoke (the CI fast-lane serving check), errors,
backpressure, and the wire contract (one write per reply, TCP_NODELAY)."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

import pytest

from repro.costmodel.accelerator import small_accelerator
from repro.engine import EngineConfig, MappingEngine, MappingRequest, MappingResponse
from repro.obs import prom
from repro.serve import MappingServer, ServeConfig, request_to_dict, start_gateway
from repro.serve.http import GatewayHandler
from repro.serve.server import ServerClosed, ServerOverloaded
from repro.workloads import make_conv1d

PROBLEM = make_conv1d("http_target", w=32, r=5)


def _post(url, payload, timeout=60):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


@pytest.fixture()
def stack():
    engine = MappingEngine(small_accelerator(), EngineConfig())
    server = MappingServer(
        engine, ServeConfig(max_batch=8, max_wait_s=0.01, workers=1)
    )
    gateway = start_gateway(server)
    yield engine, server, gateway
    gateway.shutdown()
    server.shutdown(timeout=30.0)


class TestSmoke:
    def test_post_map_returns_valid_response(self, stack):
        """The fast-lane serving smoke: start server, POST one request,
        assert 200 + a response that decodes and matches solo serving."""
        engine, _server, gateway = stack
        request = MappingRequest(
            PROBLEM, searcher="random", iterations=15, seed=1, tag="smoke"
        )
        status, payload = _post(
            f"{gateway.address}/v1/map",
            {"request": request_to_dict(request), "include_trace": True},
        )
        assert status == 200
        response = MappingResponse.from_dict(payload["response"])
        assert response.tag == "smoke"
        solo = engine.map(request)
        assert response.mapping == solo.mapping
        assert response.stats.edp == solo.stats.edp
        assert response.result.objective_values == solo.result.objective_values

    def test_healthz_and_metrics(self, stack):
        _engine, _server, gateway = stack
        status, health = _get(f"{gateway.address}/healthz")
        assert status == 200 and health["status"] == "ok"
        request = MappingRequest(PROBLEM, searcher="random", iterations=10, seed=2)
        _post(f"{gateway.address}/v1/map", {"request": request_to_dict(request)})
        status, metrics = _get(f"{gateway.address}/v1/metrics")
        assert status == 200
        assert metrics["counters"]["served"] >= 1
        assert "buckets" in metrics["batch_size"]
        assert "p99_ms" in metrics["latency"]
        assert metrics["oracle_cache"]["hits"] >= 0

    def test_high_priority_accepted(self, stack):
        _engine, _server, gateway = stack
        request = MappingRequest(PROBLEM, searcher="random", iterations=5, seed=3)
        status, _payload = _post(
            f"{gateway.address}/v1/map",
            {"request": request_to_dict(request), "priority": "high"},
        )
        assert status == 200


class TestObservabilityEndpoints:
    def _serve_one(self, gateway, seed=11):
        request = MappingRequest(
            PROBLEM, searcher="random", iterations=10, seed=seed, tag="obs"
        )
        _post(f"{gateway.address}/v1/map", {"request": request_to_dict(request)})

    def test_slo_snapshot_smoke(self, stack):
        _engine, _server, gateway = stack
        self._serve_one(gateway)
        status, snap = _get(f"{gateway.address}/v1/slo")
        assert status == 200
        assert snap["worst_state"] in ("ok", "warning", "page")
        names = {entry["name"] for entry in snap["slos"]}
        assert names  # the default SLO set is attached
        for entry in snap["slos"]:
            assert {"state", "burn_fast", "burn_slow",
                    "budget_remaining"} <= set(entry)

    def test_timeseries_projection_matches_counters(self, stack):
        _engine, _server, gateway = stack
        self._serve_one(gateway)
        status, snap = _get(
            f"{gateway.address}/v1/timeseries?metric=counters.served"
        )
        assert status == 200
        _status, metrics = _get(f"{gateway.address}/v1/metrics")
        total = sum(point["value"] for point in snap["series"])
        assert total == pytest.approx(metrics["counters"]["served"])

    def test_timeseries_bad_metric_is_400(self, stack):
        _engine, _server, gateway = stack
        self._serve_one(gateway)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{gateway.address}/v1/timeseries?metric=bogus.path")
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{gateway.address}/v1/timeseries?windows=soon")
        assert excinfo.value.code == 400

    def test_profile_reports_disabled_but_serves_hotspots(self, stack):
        _engine, _server, gateway = stack
        self._serve_one(gateway)
        status, snap = _get(f"{gateway.address}/v1/profile")
        assert status == 200
        assert snap["enabled"] is False  # profiling is opt-in
        assert "profiler" not in snap
        assert isinstance(snap["hotspots"], list) and snap["hotspots"]
        assert {"name", "problem", "self_s", "count"} <= set(snap["hotspots"][0])

    def test_unknown_event_kind_is_400_with_catalog(self, stack):
        from repro.obs.events import KNOWN_KINDS

        _engine, _server, gateway = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{gateway.address}/v1/events?kind=bogus")
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "bogus" in body["error"]
        assert body["known_kinds"] == list(KNOWN_KINDS)

    def test_known_event_kind_filters_cleanly(self, stack):
        _engine, _server, gateway = stack
        self._serve_one(gateway)
        status, body = _get(f"{gateway.address}/v1/events?kind=slo_page")
        assert status == 200
        assert body["events"] == []  # healthy server: nothing paged


class TestErrors:
    def test_invalid_json_is_400(self, stack):
        _engine, _server, gateway = stack
        request = urllib.request.Request(
            f"{gateway.address}/v1/map",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_missing_request_field_is_400(self, stack):
        _engine, _server, gateway = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{gateway.address}/v1/map", {"nope": 1})
        assert excinfo.value.code == 400

    def test_unknown_searcher_is_400(self, stack):
        _engine, _server, gateway = stack
        request = MappingRequest(PROBLEM, searcher="random", iterations=5, seed=0)
        payload = {"request": request_to_dict(request)}
        payload["request"]["searcher"] = "definitely-not-registered"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{gateway.address}/v1/map", payload)
        assert excinfo.value.code == 400
        assert "definitely-not-registered" in json.loads(excinfo.value.read())["error"]

    def test_unknown_path_is_404(self, stack):
        _engine, _server, gateway = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{gateway.address}/v1/unknown")
        assert excinfo.value.code == 404

    def test_keep_alive_survives_early_reply_with_body(self, stack):
        """A 404'd POST must drain its body so the next request on the
        same persistent connection still parses."""
        import http.client

        _engine, _server, gateway = stack
        host, port = gateway.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = json.dumps({"request": {"junk": True}})
            connection.request("POST", "/nope", body=body,
                               headers={"Content-Type": "application/json"})
            first = connection.getresponse()
            assert first.status == 404
            first.read()
            # Same socket: framing must be intact.
            connection.request("GET", "/v1/healthz")
            second = connection.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "ok"
        finally:
            connection.close()

    def test_overload_maps_to_429_with_retry_after(self):
        gate = threading.Event()

        def gated_runner(engine, requests):
            gate.wait(timeout=10.0)
            from repro.serve.cohort import serve_batch

            return serve_batch(engine, requests)

        engine = MappingEngine(small_accelerator(), EngineConfig())
        server = MappingServer(
            engine,
            ServeConfig(max_batch=1, max_wait_s=0.0, max_queue=1, workers=1,
                        collapse_duplicates=False, response_cache_size=0),
            runner=gated_runner,
        )
        gateway = start_gateway(server)
        try:
            first = MappingRequest(PROBLEM, searcher="random", iterations=5, seed=0)
            background = threading.Thread(
                target=lambda: _post(
                    f"{gateway.address}/v1/map",
                    {"request": request_to_dict(first)},
                ),
                daemon=True,
            )
            background.start()
            # Wait until the gated request occupies the whole queue ...
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and server.queue_depth < 1:
                time.sleep(0.01)
            assert server.queue_depth >= 1, "gated request never admitted"
            # ... then the next request must bounce with a retry hint.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    f"{gateway.address}/v1/map",
                    {"request": request_to_dict(
                        MappingRequest(PROBLEM, searcher="random",
                                       iterations=5, seed=1)
                    )},
                    timeout=10,
                )
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers.get("Retry-After")) >= 1
            assert json.loads(excinfo.value.read())["retry_after_s"] > 0
        finally:
            gate.set()
            background.join(timeout=30)
            gateway.shutdown()
            server.shutdown(timeout=30.0)


# ----------------------------------------------------------------------
# Wire contract: TCP_NODELAY, one write per reply, no delayed-ACK stall
# ----------------------------------------------------------------------


class _InstantResponse:
    def __init__(self, tag):
        self.tag = tag

    def to_dict(self, include_trace=False):
        return {"tag": self.tag, "include_trace": include_trace}


class _InstantServer:
    """Duck-typed server answering at once (or raising ``error``), so the
    gateway's own wire behaviour is all a request measures."""

    queue_depth = 0
    accepting = True

    def __init__(self, error=None):
        self.error = error

    def submit(self, request, priority=None):
        if self.error is not None:
            raise self.error
        future = Future()
        future.set_result(_InstantResponse(request.tag))
        return future

    def metrics_snapshot(self):
        return {"counters": {"served": 1}}


@pytest.fixture()
def wire(monkeypatch):
    """Start gateways over stub servers, recording every accepted
    connection's ``TCP_NODELAY`` and every ``wfile.write`` it makes."""
    record = {"nodelay": [], "writes": []}
    original_setup = GatewayHandler.setup

    def recording_setup(handler):
        original_setup(handler)
        record["nodelay"].append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        real_write = handler.wfile.write

        def write(data):
            record["writes"].append(bytes(data))
            return real_write(data)

        handler.wfile.write = write

    monkeypatch.setattr(GatewayHandler, "setup", recording_setup)
    gateways = []

    def start(server):
        gateway = start_gateway(server)
        gateways.append(gateway)
        return gateway

    yield start, record
    for gateway in gateways:
        gateway.shutdown()
        gateway.server_close()


def _parse_reply(raw):
    """``(status, headers, body)`` of one complete HTTP/1.1 response;
    asserts the bytes hold exactly the head plus a Content-Length body."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    assert sep, f"no end of headers in {raw[:80]!r}"
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    version, status, _reason = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    assert int(headers["content-length"]) == len(body)
    return int(status), headers, body


def _exchange(gateway, method, path, body=None):
    host, port = gateway.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        reply = connection.getresponse()
        return reply.status, reply.read()
    finally:
        connection.close()


def _map_body(seed=0):
    request = MappingRequest(PROBLEM, searcher="random", iterations=5, seed=seed,
                             tag=f"wire{seed}")
    return json.dumps({"request": request_to_dict(request)})


class TestWireContract:
    def test_accepted_socket_has_nodelay(self, wire):
        start, record = wire
        gateway = start(_InstantServer())
        assert _exchange(gateway, "GET", "/v1/healthz")[0] == 200
        assert record["nodelay"] and all(record["nodelay"])

    @pytest.mark.parametrize(
        "error, method, path, body, status, content_type",
        [
            (None, "POST", "/v1/map", _map_body(), 200, "application/json"),
            (None, "GET", "/v1/healthz", None, 200, "application/json"),
            (None, "POST", "/v1/map", "{not json", 400, "application/json"),
            (None, "GET", "/v1/nope", None, 404, "application/json"),
            (ServerOverloaded(retry_after_s=2.4, depth=9), "POST", "/v1/map",
             _map_body(), 429, "application/json"),
            (ServerClosed("draining"), "POST", "/v1/map", _map_body(), 503,
             "application/json"),
            (None, "GET", "/v1/metrics?format=prom", None, 200, prom.CONTENT_TYPE),
        ],
        ids=["json-200", "healthz-200", "400", "404", "429", "503", "prom-text"],
    )
    def test_every_reply_is_one_complete_write(
        self, wire, error, method, path, body, status, content_type
    ):
        start, record = wire
        gateway = start(_InstantServer(error))
        got_status, got_body = _exchange(gateway, method, path, body)
        assert got_status == status
        assert len(record["writes"]) == 1, record["writes"]
        parsed_status, headers, parsed_body = _parse_reply(record["writes"][0])
        assert parsed_status == status
        assert headers["content-type"] == content_type
        assert parsed_body == got_body
        if status == 429:
            assert headers["retry-after"] == "2"
        if content_type == "application/json":
            json.loads(parsed_body)

    def test_keep_alive_posts_do_not_stall(self, wire):
        """50 POSTs on one persistent connection to an instant server.
        A reply split into head and body writes waits ~40 ms for the
        client's delayed ACK, so the stall alone would take ~2 s."""
        start, record = wire
        gateway = start(_InstantServer())
        host, port = gateway.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        body = _map_body()
        try:
            started = time.perf_counter()
            for _ in range(50):
                connection.request("POST", "/v1/map", body=body,
                                   headers={"Content-Type": "application/json"})
                reply = connection.getresponse()
                assert reply.status == 200
                reply.read()
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert len(record["nodelay"]) == 1  # one connection carried all 50
        assert elapsed < 1.0, f"50 keep-alive POSTs took {elapsed:.2f}s"
