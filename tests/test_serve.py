"""End-to-end tests for the graph query service (repro.serve).

Boots the real HTTP server in-process on an ephemeral port and drives it
with ``http.client``: golden response schemas for every endpoint
(including error bodies), shutdown-drains-queue semantics, the
concurrency-equivalence acceptance criterion (concurrent served BFS is
bit-identical to serial ``api.run_queries`` and ``/metrics`` reconciles
exactly with the per-request IOReports), and a deterministic
admission-control fuzz over the offer/flush primitives.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import socket
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankAlgorithm
from repro.algorithms.reference import bfs_levels
from repro.algorithms.sssp import (
    WeightedSSSPAlgorithm,
    hash_weights,
    reference_sssp,
)
from repro.algorithms.streaming import WCCAlgorithm
from repro.api import run_queries
from repro.core.engine import FastBFSEngine
from repro.engines.session import run_staged_queries
from repro.errors import ConfigError, QueueFullError, UnknownGraphError
from repro.graph.generators import rmat_graph, star_graph
from repro.obs.exporters import parse_prometheus
from repro.obs.hostprof import ManualHostClock
from repro.serve import (
    AdmissionController,
    ArtifactRegistry,
    GraphService,
    parse_graph_spec,
)
from repro.serve import app as serve_app
from repro.serve import registry as serve_registry
from repro.serve.app import MAX_SPEC_EDGES
from repro.storage.machine import IOReport, merge_reports

TINY_SPEC = "tiny@rmat:scale=8,edge_factor=8,seed=7"


def request(service, method, path, payload=None, raw_body=None, timeout=120,
            retries=0):
    """One HTTP request; returns (status, headers dict, decoded body).

    ``retries`` re-attempts transient connection-level failures (reset /
    refused under connect bursts) — never HTTP error responses.
    """
    body = raw_body if raw_body is not None else (
        json.dumps(payload) if payload is not None else None
    )
    for attempt in range(retries + 1):
        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=timeout
        )
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            data = resp.read()
            headers = dict(resp.getheaders())
            break
        except (ConnectionError, http.client.HTTPException):
            if attempt == retries:
                raise
        finally:
            conn.close()
    if headers.get("Content-Type", "").startswith("application/json"):
        return resp.status, headers, json.loads(data)
    return resp.status, headers, data.decode("utf-8")


@pytest.fixture(scope="module")
def service():
    svc = GraphService(port=0, warmup=(TINY_SPEC,)).start()
    yield svc
    svc.shutdown()


QUERY_KEYS = {
    "graph", "algorithm", "engine", "request_id", "root",
    "flush", "result", "report", "report_id", "timing",
}


#: Per serial algorithm: the payload of request ``i`` (root ``i`` where
#: there is one) and whether a 200 body answers it.
SERIAL_QUERIES = {
    "sssp": (
        lambda i: {"root": i},
        lambda i, body: body["result"]["distances"][i] == 0,
    ),
    "pagerank": (
        lambda i: {"rounds": 1 + i % 2},
        lambda i, body: len(body["result"]["ranks"]) == 256,
    ),
}


class TestEndpointSchemas:
    def test_healthz(self, service):
        status, headers, body = request(service, "GET", "/healthz")
        assert status == 200
        assert set(body) == {"status", "graphs", "requests_served"}
        assert body["status"] == "ok"
        assert "tiny" in body["graphs"]
        assert headers["X-Request-Id"].startswith("req-")

    def test_graphs_listing(self, service):
        status, _, body = request(service, "GET", "/graphs")
        assert status == 200
        assert body == {"graphs": sorted(service.registry.names())}

    def test_stats_schema(self, service):
        status, _, body = request(service, "GET", "/graphs/tiny/stats")
        assert status == 200
        assert set(body) >= {
            "name", "graph", "engine", "partitions", "in_memory",
            "staging_report", "queries_served", "flushes", "admission",
            "fault_plan", "health",
        }
        assert body["graph"]["num_vertices"] == 256
        assert body["fault_plan"] is None  # no faults in this fixture
        assert body["health"]["state"] == "healthy"
        report = IOReport.from_dict(body["staging_report"])
        assert report.bytes_total > 0
        assert set(body["admission"]) == {
            "queue_depth", "capacity", "accepted", "rejected",
            "flushes", "flush_retries", "deadline_expired", "held", "closed",
        }

    def test_bfs_response_schema(self, service):
        status, headers, body = request(
            service, "POST", "/graphs/tiny/bfs", payload={"root": 3}
        )
        assert status == 200
        assert set(body) == QUERY_KEYS
        assert body["algorithm"] == "bfs" and body["root"] == 3
        assert body["flush"]["mode"] == "batched"
        assert 1 <= body["flush"]["size"] <= 64
        assert body["report_id"] == body["flush"]["id"]
        result = body["result"]
        assert len(result["levels"]) == 256
        assert len(result["parents"]) == 256
        assert result["levels"][3] == 0
        # every response carries request id, queue wait and the
        # simulated-time breakdown
        for header in (
            "X-Request-Id", "X-Queue-Wait-Seconds",
            "X-Sim-Execution-Seconds", "X-Sim-Compute-Seconds",
            "X-Sim-Iowait-Seconds", "X-Flush-Id", "X-Flush-Size",
        ):
            assert header in headers, header
        assert float(headers["X-Sim-Execution-Seconds"]) == pytest.approx(
            body["timing"]["sim_execution_seconds"]
        )

    def test_bfs_multi_source(self, service):
        status, _, body = request(
            service, "POST", "/graphs/tiny/bfs", payload={"roots": [1, 2]}
        )
        assert status == 200
        assert body["result"]["levels"][1] == 0
        assert body["result"]["levels"][2] == 0

    def test_sssp_response_schema(self, service):
        status, _, body = request(
            service, "POST", "/graphs/tiny/sssp",
            payload={"root": 3, "max_weight": 4},
        )
        assert status == 200
        assert set(body) == QUERY_KEYS
        assert body["algorithm"] == "sssp"
        assert body["flush"]["mode"] == "serial" and body["flush"]["size"] == 1
        result = body["result"]
        assert set(result) == {"distances", "unreached_value", "num_iterations"}
        assert len(result["distances"]) == 256
        assert result["distances"][3] == 0

    def test_pagerank_response_schema(self, service):
        status, _, body = request(
            service, "POST", "/graphs/tiny/pagerank", payload={"rounds": 2}
        )
        assert status == 200
        assert set(body) == QUERY_KEYS
        assert body["algorithm"] == "pagerank"
        ranks = body["result"]["ranks"]
        assert len(ranks) == 256
        # rank mass stays in (0, 1]: dangling vertices leak some of it
        assert 0.5 < sum(ranks) <= 1.0 + 1e-6

    def test_register_endpoint(self, service):
        status, _, body = request(
            service, "POST", "/graphs/extra",
            payload={"spec": "star:num_leaves=32"},
        )
        assert status == 201
        assert body["name"] == "extra"
        assert body["graph"]["num_vertices"] == 33
        status, _, body = request(
            service, "POST", "/graphs/extra/bfs", payload={"root": 0}
        )
        assert status == 200
        assert body["result"]["levels"][0] == 0

    def test_metrics_endpoint(self, service):
        status, headers, text = request(service, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        registry = parse_prometheus(text)
        assert registry.total("device_bytes_total") > 0
        assert registry.total("serve_requests_total") > 0


class TestErrorBodies:
    @pytest.mark.parametrize("windows", ["0", "-2", "soon"])
    def test_timeseries_windows_below_one_is_a_400(self, service, windows):
        status, _, body = request(
            service, "GET", f"/debug/timeseries?windows={windows}"
        )
        assert status == 400
        assert body["error"]["type"] == "bad_request"

    def test_unknown_graph(self, service):
        status, _, body = request(
            service, "POST", "/graphs/nope/bfs", payload={"root": 0}
        )
        assert status == 404
        assert body["error"]["type"] == "unknown_graph"
        assert "nope" in body["error"]["message"]
        assert body["request_id"].startswith("req-")

    def test_bad_root(self, service):
        for payload in ({"root": 9999}, {"root": -1}, {"root": "x"},
                        {"roots": []}, {},
                        # past int64
                        {"root": 1267650600228229401496703205376},
                        {"roots": [1, -(2 ** 70)]}):
            for algorithm in ("bfs", "sssp"):
                status, _, body = request(
                    service, "POST", f"/graphs/tiny/{algorithm}",
                    payload=payload,
                )
                assert status == 400, payload
                assert body["error"]["type"] == "bad_root", payload

    @pytest.mark.parametrize("algorithm,payload,kind", [
        ("bfs", {"root": True}, "bad_root"),
        ("bfs", {"roots": [True, False]}, "bad_root"),
        ("bfs", {"roots": [3, True]}, "bad_root"),
        ("sssp", {"root": False}, "bad_root"),
        ("sssp", {"root": 3, "max_weight": True}, "bad_request"),
        ("pagerank", {"rounds": True}, "bad_request"),
    ])
    def test_booleans_are_not_integers(
        self, service, algorithm, payload, kind
    ):
        status, _, body = request(
            service, "POST", f"/graphs/tiny/{algorithm}", payload=payload
        )
        assert status == 400, body
        assert body["error"]["type"] == kind

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "1" + "0" * 400],
        ids=["NaN", "Infinity", "401-digit-int"],
    )
    def test_non_finite_deadline_is_refused(self, service, literal):
        # json.loads accepts these literals; a NaN deadline never expires
        # and the integer is too large for float()
        status, _, body = request(
            service, "POST", "/graphs/tiny/bfs",
            raw_body='{"root": 3, "deadline_ms": %s}' % literal,
        )
        assert status == 400, body
        assert body["error"]["type"] == "bad_request"
        assert "deadline_ms" in body["error"]["message"]

    def test_malformed_json(self, service):
        status, _, body = request(
            service, "POST", "/graphs/tiny/bfs", raw_body=b"{not json"
        )
        assert status == 400
        assert body["error"]["type"] == "bad_request"
        assert "malformed JSON" in body["error"]["message"]

    def test_invalid_utf8_body(self, service):
        status, _, body = request(
            service, "POST", "/graphs/tiny/bfs", raw_body=b'{"root": \xff}'
        )
        assert status == 400, body
        assert body["error"]["type"] == "bad_request"
        assert "malformed JSON body" in body["error"]["message"]
        assert "utf-8" in body["error"]["message"]

    def test_unknown_route(self, service):
        status, _, body = request(service, "GET", "/nope")
        assert status == 404
        assert body["error"]["type"] == "not_found"

    def test_get_on_query_endpoint(self, service):
        status, _, body = request(service, "GET", "/graphs/tiny/bfs")
        assert status == 405
        assert body["error"]["type"] == "method_not_allowed"

    def test_bad_pagerank_params(self, service):
        status, _, body = request(
            service, "POST", "/graphs/tiny/pagerank", payload={"rounds": 0}
        )
        assert status == 400
        assert body["error"]["type"] == "bad_request"

    def test_bad_register_spec(self, service):
        status, _, body = request(
            service, "POST", "/graphs/bad", payload={"spec": "nope:z=1"}
        )
        assert status == 400
        assert body["error"]["type"] == "bad_request"

    @pytest.mark.parametrize("spec", [
        "rmat:scale=40,edge_factor=8,seed=1",
        "rmat:scale=-3,edge_factor=8,seed=1",
        "path:num_vertices=0",
        "random:num_vertices=5,num_edges=-1",
        "powerlaw:num_vertices=5,num_edges=-1",
        "rmat:scale=2,seed=-1",
    ])
    def test_register_spec_the_generator_refuses(self, service, spec):
        with pytest.raises(ConfigError) as exc:
            parse_graph_spec(spec)
        status, _, body = request(
            service, "POST", "/graphs/bad", payload={"spec": spec}
        )
        assert status == 400, body
        assert body["error"] == {
            "type": "bad_request", "message": str(exc.value),
        }
        assert "bad" not in service.registry

    @pytest.mark.parametrize("spec, estimate", [
        ("rmat:scale=31,edge_factor=16", 16 << 31),
        ("rmat:scale=21", 16 << 21),  # edge_factor defaults to 16
        (f"random:num_vertices=8,num_edges={MAX_SPEC_EDGES + 1}",
         MAX_SPEC_EDGES + 1),
        (f"powerlaw:num_vertices=8,num_edges={MAX_SPEC_EDGES + 1},seed=3",
         MAX_SPEC_EDGES + 1),
        # the vertex count is held to the same budget
        (f"powerlaw:num_vertices={MAX_SPEC_EDGES + 1},num_edges=1",
         MAX_SPEC_EDGES + 1),
        ("random:num_vertices=5000000000,num_edges=1", 5000000000),
        ("grid:width=4096,height=4096", 2 * 4096 * 4096),
        (f"path:num_vertices={10 ** 400}", 10 ** 400),
        (f"star:num_leaves={MAX_SPEC_EDGES + 1}", MAX_SPEC_EDGES + 1),
    ])
    def test_oversized_register_spec_is_refused_before_it_is_built(
        self, service, monkeypatch, spec, estimate
    ):
        kind = spec.partition(":")[0]
        built = []
        _, names, edge_estimate = serve_registry._GENERATORS[kind]
        monkeypatch.setitem(
            serve_registry._GENERATORS, kind,
            (lambda **params: built.append(params), names, edge_estimate),
        )
        threads_before = threading.active_count()
        status, _, body = request(
            service, "POST", "/graphs/huge", payload={"spec": spec}
        )
        assert status == 400, body
        assert body["error"]["type"] == "bad_request"
        assert f"about {estimate} edges" in body["error"]["message"]
        assert f"the limit is {MAX_SPEC_EDGES}" in body["error"]["message"]
        assert built == []  # refused by size, not by trying
        assert "huge" not in service.registry
        deadline = time.monotonic() + 5
        while (threading.active_count() > threads_before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() <= threads_before

    def test_largest_accepted_register_spec_still_registers(
        self, service, monkeypatch
    ):
        built = []
        _, names, edge_estimate = serve_registry._GENERATORS["rmat"]

        def small_stand_in(**params):
            built.append(params)
            return star_graph(8)

        monkeypatch.setitem(
            serve_registry._GENERATORS, "rmat",
            (small_stand_in, names, edge_estimate),
        )
        assert edge_estimate(scale=20, edge_factor=16) == MAX_SPEC_EDGES
        status, _, body = request(
            service, "POST", "/graphs/atlimit",
            payload={"spec": "rmat:scale=20,edge_factor=16,seed=1"},
        )
        assert status == 201, body
        assert built == [{"scale": 20, "edge_factor": 16, "seed": 1}]
        assert "atlimit" in service.registry
        # Operator warmup specs are not capped: no limit unless one is given.
        with pytest.raises(ConfigError, match="the limit is 5"):
            parse_graph_spec("path:num_vertices=6", max_edges=5)
        assert parse_graph_spec("path:num_vertices=6")[1].num_edges == 5

    def test_deeply_nested_json_is_a_typed_400(self, service):
        # json.loads gives up on this with RecursionError, not ValueError
        depth = 100_000
        status, _, body = request(
            service, "POST", "/graphs/tiny/bfs",
            raw_body="[" * depth + "]" * depth,
        )
        assert status == 400, body
        assert body["error"]["type"] == "bad_request"
        assert "malformed JSON body" in body["error"]["message"]

    def test_sssp_weight_bound_must_fit_the_update_payload(self, service):
        # json integers are unbounded; numpy's uint64 is not
        status, _, body = request(
            service, "POST", "/graphs/tiny/sssp",
            raw_body='{"root": 3, "max_weight": 1%s}' % ("0" * 30),
        )
        assert status == 400, body
        assert body["error"]["type"] == "bad_request"
        assert "max_weight" in body["error"]["message"]

    def test_pagerank_rounds_are_capped(self, service):
        from repro.serve.app import MAX_PAGERANK_ROUNDS

        for rounds in (MAX_PAGERANK_ROUNDS + 1, 1_000_000_000):
            status, _, body = request(
                service, "POST", "/graphs/tiny/pagerank",
                payload={"rounds": rounds},
            )
            assert status == 400, rounds
            assert body["error"]["type"] == "bad_request"
            assert str(MAX_PAGERANK_ROUNDS) in body["error"]["message"]
        status, _, body = request(
            service, "POST", "/graphs/tiny/pagerank",
            payload={"rounds": MAX_PAGERANK_ROUNDS},
        )
        assert status == 200
        assert len(body["result"]["ranks"]) == 256


class TestServiceClock:
    def test_timeseries_windows_follow_the_injected_clock(self):
        clock = ManualHostClock()
        svc = GraphService(port=0, warmup=(TINY_SPEC,), clock=clock).start()
        try:
            request(svc, "POST", "/graphs/tiny/bfs", payload={"root": 1})
            clock.advance(12)
            request(svc, "POST", "/graphs/tiny/bfs", payload={"root": 2})
            _, _, body = request(svc, "GET", "/debug/timeseries")
            assert [w["index"] for w in body["windows"]] == [0, 2]
        finally:
            svc.shutdown()


class TestGraphNames:
    """The ``{name}`` of every ``/graphs/{name}...`` route is outside input
    that ends up in flush ids, metrics labels and the listing: anything
    outside ``GRAPH_NAME_PATTERN`` is a typed 400 before a spec is parsed,
    a graph staged or an entry evicted."""

    HOSTILE = ["..", "%2e%2e", "x%00y", "a%2Fb", "n" * 300]

    @pytest.fixture(scope="class")
    def svc(self):
        svc = GraphService(port=0, warmup=(TINY_SPEC,)).start()
        yield svc
        svc.shutdown()

    @staticmethod
    def raw(svc, method, path, payload=None):
        """One request over a bare socket (no client-side path handling);
        returns (status, decoded JSON body)."""
        body = b"" if payload is None else json.dumps(payload).encode()
        with socket.create_connection(
            ("127.0.0.1", svc.port), timeout=5.0
        ) as sock:
            sock.sendall(
                f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                f"Connection: close\r\nContent-Length: {len(body)}\r\n\r\n"
                .encode() + body
            )
            response = b""
            while True:  # until the server closes; a stall times out
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        head, _, data = response.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(data)

    @pytest.mark.parametrize("name", HOSTILE, ids=[
        "dotdot", "pct-dotdot", "pct-nul", "pct-slash", "300-chars",
    ])
    def test_hostile_name_is_refused_on_every_route(
        self, svc, monkeypatch, name
    ):
        built = []
        _, names, edge_estimate = serve_registry._GENERATORS["star"]
        monkeypatch.setitem(
            serve_registry._GENERATORS, "star",
            (lambda **params: built.append(params), names, edge_estimate),
        )
        registered = sorted(svc.registry.names())
        threads_before = threading.active_count()
        for method, path, payload in [
            ("POST", f"/graphs/{name}", {"spec": "star:num_leaves=4"}),
            ("POST", f"/graphs/{name}", {"spec": "no-such-dataset"}),
            ("POST", f"/graphs/{name}/bfs", {"root": 0}),
            ("POST", f"/graphs/{name}/sssp", {"root": 0}),
            ("GET", f"/graphs/{name}/stats", None),
            ("GET", f"/graphs/{name}/bfs", None),
        ]:
            status, doc = self.raw(svc, method, path, payload)
            assert status == 400, (method, path, doc)
            assert doc["error"]["type"] == "bad_graph_name"
            assert len(doc["error"]["message"]) < 250
            assert doc["request_id"].startswith("req-")
        # A body that fails first must not smuggle the name into a label.
        status, _, doc = request(
            svc, "POST", f"/graphs/{name}/bfs", raw_body="{not json"
        )
        assert (status, doc["error"]["type"]) == (400, "bad_request")
        assert built == []  # refused by name, before the spec was looked at
        assert sorted(svc.registry.names()) == registered == ["tiny"]
        # ... and the name reached no metrics label and no request record.
        _, _, metrics = request(svc, "GET", "/metrics")
        assert name[:8] not in metrics
        assert all(
            r["graph"] == "tiny"
            for r in request(svc, "GET", "/debug/requests")[2]["requests"]
        )
        deadline = time.monotonic() + 5
        while (threading.active_count() > threads_before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() <= threads_before

    def test_longest_allowed_name_registers_and_serves(self, svc):
        name = "A" + "b._-0" * 12 + "xyz"
        assert len(name) == 64
        status, doc = self.raw(
            svc, "POST", f"/graphs/{name}", {"spec": "star:num_leaves=4"}
        )
        assert status == 201, doc
        assert name in svc.registry
        status, doc = self.raw(svc, "POST", f"/graphs/{name}/bfs", {"root": 0})
        assert status == 200 and doc["graph"] == name
        status, doc = self.raw(svc, "POST", f"/graphs/{name}x", {"spec": "rmat22"})
        assert (status, doc["error"]["type"]) == (400, "bad_graph_name")

    def test_library_and_warmup_callers_are_inside_the_rule(self, svc):
        with pytest.raises(ConfigError, match="graph name '..' is not allowed"):
            svc.register("..", star_graph(4))
        with pytest.raises(ConfigError, match="is not allowed"):
            svc.register("trailing-newline\n", star_graph(4))
        with pytest.raises(ConfigError, match="is not allowed"):
            GraphService(port=0, warmup=(".hidden@star:num_leaves=4",)).start()
        assert sorted(svc.registry.names())[-1] == "tiny"


class TestRootLists:
    """Pinned as tests only: a multi-source ``roots`` list may repeat a
    vertex and may name every vertex of the graph."""

    @staticmethod
    def multi_source_levels(graph, roots):
        per_root = np.stack([bfs_levels(graph, r) for r in set(roots)])
        reached = np.where(per_root >= 0, per_root, np.iinfo(np.int32).max)
        best = reached.min(axis=0)
        return np.where((per_root >= 0).any(axis=0), best, -1).tolist()

    def test_duplicate_roots(self, service):
        graph = service.registry.get("tiny").graph
        roots = [3, 5, 3, 3, 5]
        status, _, body = request(
            service, "POST", "/graphs/tiny/bfs", payload={"roots": roots}
        )
        assert status == 200, body
        assert body["result"]["levels"] == self.multi_source_levels(graph, roots)

    def test_one_root_per_vertex(self, service):
        graph = service.registry.get("tiny").graph
        roots = list(range(graph.num_vertices))
        status, _, body = request(
            service, "POST", "/graphs/tiny/bfs", payload={"roots": roots}
        )
        assert status == 200, body
        assert body["result"]["levels"] == self.multi_source_levels(graph, roots)
        assert body["result"]["levels"] == [0] * graph.num_vertices

    def test_more_distinct_roots_than_a_flush_is_wide(self, service):
        """65 sources: one more than the 64 bits of a batched mask."""
        graph = service.registry.get("tiny").graph
        roots = list(range(0, 2 * 65, 2))
        status, _, body = request(
            service, "POST", "/graphs/tiny/bfs", payload={"roots": roots}
        )
        assert status == 200, body
        assert body["result"]["levels"] == self.multi_source_levels(graph, roots)


class TestHandlerThreadCap:
    """Past ``MAX_HANDLER_THREADS`` live handlers a connection is answered
    a typed 503 on the accept thread and closed: silent peers cannot pile
    up threads, and the server serves again once they go."""

    @staticmethod
    def live_threads_reach(target, compare=int.__eq__):
        deadline = time.monotonic() + 5
        while (not compare(threading.active_count(), target)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        return compare(threading.active_count(), target)

    def test_silent_peers_fill_the_cap_and_the_next_one_reads_a_503(
        self, monkeypatch
    ):
        monkeypatch.setattr(serve_app, "MAX_HANDLER_THREADS", 2)
        svc = GraphService(port=0, warmup=(TINY_SPEC,)).start()
        try:
            baseline = threading.active_count()
            silent = [
                socket.create_connection(("127.0.0.1", svc.port), timeout=5.0)
                for _ in range(2)
            ]
            assert self.live_threads_reach(baseline + 2)
            with socket.create_connection(
                ("127.0.0.1", svc.port), timeout=5.0
            ) as third:
                third.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                response = b""
                while True:  # until the server closes; a stall times out
                    chunk = third.recv(65536)
                    if not chunk:
                        break
                    response += chunk
            head, _, data = response.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines[1:])
            assert lines[0] == "HTTP/1.1 503 Service Unavailable"
            assert headers["Retry-After"] == "1"
            assert headers["Connection"] == "close"
            assert headers["Content-Type"] == "application/json"
            assert json.loads(data) == {
                "error": {
                    "type": "server_busy",
                    "message": "all 2 connection handlers are busy",
                },
                "request_id": headers["X-Request-Id"],
            }
            assert headers["X-Request-Id"].startswith("req-")
            assert threading.active_count() == baseline + 2  # none spawned
            assert svc.metrics_snapshot().total("server_busy_total") == 1.0
            for sock in silent:
                sock.close()
            assert self.live_threads_reach(baseline, int.__le__)
            status, _, body = request(
                svc, "POST", "/graphs/tiny/bfs", payload={"root": 3}
            )
            assert status == 200 and body["root"] == 3
            assert svc.metrics_snapshot().total("server_busy_total") == 1.0
        finally:
            svc.shutdown()

    def test_a_burst_leaves_every_slot_free(self, monkeypatch):
        """Many clients at once, with thread switches forced often: each
        is served or refused, every refusal is counted, and afterwards
        exactly the cap's worth of silent peers gets a handler again (a
        lost release would refuse one of them, a double one admit one
        more)."""
        monkeypatch.setattr(serve_app, "MAX_HANDLER_THREADS", 3)
        svc = GraphService(port=0, warmup=(TINY_SPEC,)).start()
        baseline = threading.active_count()
        statuses = []

        def client():
            try:
                statuses.append(request(svc, "GET", "/healthz", timeout=10)[0])
            except (ConnectionError, http.client.HTTPException):
                statuses.append("reset")  # refused before its request was sent

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(24)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert len(statuses) == 24
            assert set(statuses) <= {200, 503, "reset"}
            assert statuses.count(200) >= 3
            refused = svc.metrics_snapshot().total("server_busy_total")
            assert refused == 24 - statuses.count(200)
            assert self.live_threads_reach(baseline, int.__le__)
            silent = [
                socket.create_connection(("127.0.0.1", svc.port), timeout=5.0)
                for _ in range(3)
            ]
            assert self.live_threads_reach(baseline + 3)
            assert request(svc, "GET", "/healthz")[0] == 503
            for sock in silent:
                sock.close()
            assert self.live_threads_reach(baseline, int.__le__)
        finally:
            svc.shutdown()


class TestHostileContentLength:
    """``Content-Length`` is outside input.  A value that cannot be a body
    size, or one past ``MAX_BODY_BYTES``, is refused at once with a typed
    error, unread (the declared body never arrives here), and the handler
    thread ends with the connection."""

    @pytest.mark.parametrize("declared,status,kind", [
        ("abc", 400, "bad_request"),
        ("-1", 400, "bad_request"),
        ("99999999999", 413, "payload_too_large"),
        ("50000000", 413, "payload_too_large"),
    ])
    def test_typed_refusal_and_no_thread_left(
        self, service, declared, status, kind
    ):
        threads_before = threading.active_count()
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=1.0
        ) as sock:
            sock.sendall(
                b"POST /graphs/tiny/bfs HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + declared.encode() + b"\r\n\r\n"
                b'{"root": 3}'
            )
            response = b""
            while True:  # until the server closes; a stall times out
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode()), head
        assert b"Connection: close" in head
        doc = json.loads(body)
        assert doc["error"]["type"] == kind
        assert doc["request_id"].startswith("req-")
        deadline = time.monotonic() + 1.0
        while (threading.active_count() > threads_before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() <= threads_before

    def test_body_at_the_limit_is_read(self, service):
        from repro.serve.app import MAX_BODY_BYTES

        padding = " " * (MAX_BODY_BYTES - len('{"root": 3}'))
        status, _, body = request(
            service, "POST", "/graphs/tiny/bfs",
            raw_body='{"root": 3}' + padding,
        )
        assert status == 200
        assert body["root"] == 3


class TestShutdownDrain:
    @staticmethod
    def drain(algorithm, payload_for, check, flushes):
        """Fill a held queue to capacity, overflow it once, shut down.

        The overflow is a deterministic 429 whose ``Retry-After`` is the
        ``flushes`` the backlog needs; ``shutdown()`` answers every
        queued request (``check(i, body)``) in that many flushes.
        """
        n = 5
        svc = GraphService(port=0, warmup=(TINY_SPEC,), capacity=n).start()
        entry = svc.registry.get("tiny")
        controller = entry.admission
        controller.hold()  # tickets accumulate, nobody can flush
        path = f"/graphs/tiny/{algorithm}"
        results = [None] * n

        def fire(i):
            results[i] = request(
                svc, "POST", path, payload=payload_for(i), retries=2
            )

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        deadline = 200
        while controller.depth < n and deadline:
            threading.Event().wait(0.05)
            deadline -= 1
        assert controller.depth == n
        status, headers, body = request(
            svc, "POST", path, payload=payload_for(0)
        )
        assert status == 429
        assert body["error"]["type"] == "queue_full"
        assert headers["Retry-After"] == str(flushes)
        svc.shutdown()  # drain=True: every queued ticket must be answered
        for t in threads:
            t.join(timeout=30)
        for i, (status, _, body) in enumerate(results):
            assert status == 200
            check(i, body)
        flush_ids = {body["flush"]["id"] for _, _, body in results}
        assert len(flush_ids) == flushes
        assert controller.depth == 0
        with pytest.raises(OSError):
            request(svc, "GET", "/healthz", timeout=2)

    def test_idle_shutdown_returns_at_once(self):
        # The serve loop sleeps until shutdown wakes it: no poll to wait out.
        svc = GraphService(port=0).start()
        assert request(svc, "GET", "/healthz")[0] == 200
        started = time.perf_counter()
        svc.shutdown()
        assert time.perf_counter() - started < 0.05
        svc.shutdown()  # a second call finds the loop stopped

    def test_shutdown_fulfills_queued_tickets(self):
        def check(i, body):
            assert body["result"]["levels"][i] == 0

        # the whole backlog goes out as one coalesced flush
        self.drain("bfs", lambda i: {"root": i}, check, flushes=1)

    @pytest.mark.parametrize("algorithm", sorted(SERIAL_QUERIES))
    def test_shutdown_fulfills_queued_serial_tickets(self, algorithm):
        payload_for, answers = SERIAL_QUERIES[algorithm]

        def check(i, body):
            assert answers(i, body)
            assert body["flush"]["size"] == 1

        self.drain(algorithm, payload_for, check, flushes=5)


class TestConcurrencyEquivalence:
    GRAPH = dict(scale=9, edge_factor=8, seed=17)

    def burst(self, queries):
        """Fire ``(algorithm, payload)`` queries at one fresh service, one
        thread each; returns the 200 bodies in query order, after checking
        that the flushes partition the burst and ``/metrics`` reconciles."""
        spec = "g@rmat:scale=9,edge_factor=8,seed=17"
        svc = GraphService(port=0, warmup=(spec,)).start()
        try:
            results = [None] * len(queries)

            def fire(i):
                algorithm, payload = queries[i]
                results[i] = request(
                    svc, "POST", f"/graphs/g/{algorithm}",
                    payload=payload, retries=2,
                )

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert all(r is not None and r[0] == 200 for r in results)
            bodies = [body for _, _, body in results]

            # flushes coalesce and never exceed the batch width
            sizes_by_flush = {}
            for body in bodies:
                sizes_by_flush[body["flush"]["id"]] = body["flush"]["size"]
            assert all(1 <= s <= 64 for s in sizes_by_flush.values())
            assert sum(sizes_by_flush.values()) == len(queries)

            # /metrics reconciles exactly with the per-request
            # IOReports: queries of one flush share that flush's delta
            # report (dedup by report_id), plus the staging report.
            _, _, metrics_text = request(svc, "GET", "/metrics")
            registry = parse_prometheus(metrics_text)
            _, _, stats = request(svc, "GET", "/graphs/g/stats")
            unique = {}
            for body in bodies:
                unique[body["report_id"]] = body["report"]
            merged = merge_reports(
                [IOReport.from_dict(stats["staging_report"])]
                + [IOReport.from_dict(d) for d in unique.values()]
            )
            assert registry.reconcile(merged) == []
            return bodies
        finally:
            svc.shutdown()

    def test_concurrent_bfs_matches_serial_and_metrics_reconcile(self):
        roots = [(7 * i) % 500 for i in range(16)]
        bodies = self.burst([("bfs", {"root": root}) for root in roots])
        # bit-identical to the serial batch front door
        serial = run_queries(rmat_graph(**self.GRAPH), roots)
        for i, body in enumerate(bodies):
            assert serial.queries[i].levels.tolist() == (
                body["result"]["levels"]
            )
            assert serial.queries[i].parents.tolist() == (
                body["result"]["parents"]
            )

    def test_concurrent_mixed_algorithms_reconcile(self):
        roots = [(7 * i) % 500 for i in range(16)]
        queries = [
            (
                ("bfs", {"root": root}),
                ("sssp", {"root": root, "max_weight": 4}),
                ("pagerank", {"rounds": 2}),
            )[i % 3]
            for i, root in enumerate(roots)
        ]
        bodies = self.burst(queries)
        graph = rmat_graph(**self.GRAPH)
        ranks = None
        for (algorithm, payload), body in zip(queries, bodies):
            assert body["algorithm"] == algorithm
            result = body["result"]
            if algorithm == "bfs":
                assert result["levels"] == bfs_levels(
                    graph, payload["root"]
                ).tolist()
                assert body["flush"]["mode"] == "batched"
                continue
            # a serial ticket never shares a flush, hence nor a report
            assert body["flush"] == {
                "id": body["report_id"], "size": 1, "mode": "serial",
            }
            if algorithm == "sssp":
                assert result["distances"] == reference_sssp(
                    graph, payload["root"], hash_weights(4)
                ).tolist()
            else:
                ranks = ranks or result["ranks"]
                assert result["ranks"] == ranks  # same query, same bits


def direct_entry():
    """The tiny graph registered as ``GraphService()`` registers it."""
    return ArtifactRegistry().register(
        "tiny", rmat_graph(scale=8, edge_factor=8, seed=7)
    )


class TestServedEqualsDirect:
    """A served serial answer and its report are, bit for bit, those of a
    direct ``run_staged_queries`` on an identically registered entry."""

    @pytest.mark.parametrize("max_weight", [1, 4])
    def test_sssp(self, service, max_weight):
        entry = direct_entry()
        for root in (3, 17, 100, 255):
            status, _, body = request(
                service, "POST", "/graphs/tiny/sssp",
                payload={"root": root, "max_weight": max_weight},
            )
            assert status == 200
            (direct,) = run_staged_queries(
                entry.engine, entry.staged, entry.checkpoint, [root],
                algorithm=WeightedSSSPAlgorithm(hash_weights(max_weight)),
            ).queries
            distances = direct.output["distance"]
            assert body["result"]["distances"] == distances.tolist()
            assert body["result"]["num_iterations"] == direct.num_iterations
            assert body["report"] == direct.report.to_dict()
            assert np.array_equal(
                distances,
                reference_sssp(entry.graph, root, hash_weights(max_weight)),
            )

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_pagerank(self, service, rounds):
        # float32: the in-memory reference agrees only to within
        # accumulation-order noise, so the direct run is the oracle
        entry = direct_entry()
        status, _, body = request(
            service, "POST", "/graphs/tiny/pagerank",
            payload={"rounds": rounds},
        )
        assert status == 200
        (direct,) = run_staged_queries(
            entry.engine, entry.staged, entry.checkpoint, [0],
            algorithm=PageRankAlgorithm(entry.graph.out_degrees(), rounds),
        ).queries
        assert body["result"]["ranks"] == direct.output["rank"].tolist()
        assert body["result"]["rounds"] == direct.num_iterations
        assert body["report"] == direct.report.to_dict()


class LeaksInOneFlush(FastBFSEngine):
    """Leaves a transient ``updates:*`` file behind its first query only."""

    leaks = 1

    def _run_passes(self, staged, rt):
        super()._run_passes(staged, rt)
        if self.leaks:
            self.leaks -= 1
            rt.machine.vfs.create("updates:0:p1", rt.staged.dev_updates)


class TestSanitizedFlush:
    def test_leaking_flush_answers_500_then_recovers(self):
        """The sanitizer's checks run in every flush: each ticket of the
        flush whose run leaked is a 500 naming the checker, the breaker
        records nothing, and the entry's next flush answers bit for bit."""
        n = 3
        svc = GraphService(port=0, warmup=(TINY_SPEC,)).start()
        try:
            entry = svc.registry.get("tiny")
            entry.engine = LeaksInOneFlush(entry.engine.config)
            controller = entry.admission
            controller.hold()  # the n tickets coalesce into one flush
            results = [None] * n

            def fire(i):
                results[i] = request(
                    svc, "POST", "/graphs/tiny/bfs", payload={"root": i},
                    retries=2,
                )

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            assert wait_for(lambda: controller.depth == n)
            controller.release()
            for t in threads:
                t.join(timeout=60)
            for status, _, body in results:
                assert status == 500
                assert body["error"]["type"] == "internal_error"
                assert "[vfs-leak] file 'updates:0:p1'" in body["error"]["message"]
            assert entry.health.snapshot()["state"] == "healthy"
            assert entry.health.transitions == []

            status, _, body = request(
                svc, "POST", "/graphs/tiny/bfs", payload={"root": 3}
            )
            assert status == 200
        finally:
            svc.shutdown()
        direct = direct_entry()
        (reference,) = run_staged_queries(
            direct.engine, direct.staged, direct.checkpoint, [3],
        ).queries
        assert body["result"]["levels"] == reference.levels.tolist()
        assert body["result"]["parents"] == reference.parents.tolist()
        assert body["report"] == reference.report.to_dict()


class TestFlushScanCounters:
    """A BFS flush's metrics delta counts the edges its run scanned: a
    shared scan once, and a flush of one ticket as its own scan."""

    @pytest.mark.parametrize("width", [1, 2, 64])
    def test_engine_counters_equal_the_run(self, width):
        entry = direct_entry()
        hubs = np.argsort(-entry.graph.out_degrees())
        roots = [int(hubs[i % 16]) for i in range(width)]
        controller = AdmissionController(entry)
        for i, root in enumerate(roots):
            controller.offer(f"r{i}", root)
        record = controller.flush()
        assert record.size == width
        direct = run_staged_queries(
            entry.engine, entry.staged, entry.checkpoint, roots,
            mode="batched",
        )
        assert direct.edges_scanned > 0
        counters = record.registry
        engine = entry.engine.name
        assert counters.get(
            "engine_edges_scanned_total", engine=engine
        ) == direct.edges_scanned
        for field in (
            "partitions_processed", "partitions_skipped", "edges_eliminated"
        ):
            assert counters.get(f"engine_{field}_total", engine=engine) == sum(
                getattr(it, field) for it in direct.shared_iterations
            ), field
        assert counters.get(
            "engine_updates_generated_total", engine=engine
        ) == sum(q.updates_generated for q in direct.queries)
        assert counters.get(
            "engine_iterations_total", engine=engine
        ) == sum(q.num_iterations for q in direct.queries)
        # Every query of the batch carries the batch's stay counters.
        stay = direct.queries[0].extras["stay_records_written"]
        assert stay > 0
        assert counters.get(
            "engine_stay_records_written_total", engine=engine
        ) == stay


def ticket_kwargs(entry, algorithm):
    """What ``offer``/``submit`` take to run ``algorithm`` (cf. serve.app)."""
    if algorithm == "sssp":
        return {"algorithm": WeightedSSSPAlgorithm(hash_weights(4))}
    if algorithm == "pagerank":
        return {"algorithm": PageRankAlgorithm(entry.graph.out_degrees(), 2)}
    return {}


def answered(ticket, algorithm, root):
    """Whether a fulfilled ticket holds its own query's answer."""
    if algorithm == "bfs":
        return ticket.result.levels[root] == 0
    if algorithm == "sssp":
        return ticket.result.output["distance"][root] == 0
    return len(ticket.result.output["rank"]) > root


class TestAdmissionFuzz:
    @staticmethod
    def seeded_bursts(draw_algorithm):
        """80 seeded offer/flush steps against a sequential model queue.

        The model applies the prefix rule (a run of BFS tickets up to
        ``width``, anything else alone) and must agree with the controller
        on every accept, every 429 hint and every flush's tickets.
        """
        registry = ArtifactRegistry(max_graphs=2)
        entry = registry.register("star", star_graph(63))
        capacity, width = 8, 4
        controller = AdmissionController(
            entry, capacity=capacity, batch_width=width
        )
        rng = random.Random(1234)
        model_queue = []  # mirrors the controller's FIFO: (id, algorithm)
        tickets = {}

        def model_flushes():
            """The runs the model queue drains in, oldest first."""
            runs = []
            for rid, algorithm in model_queue:
                if (
                    algorithm == "bfs" and runs
                    and runs[-1][-1][1] == "bfs" and len(runs[-1]) < width
                ):
                    runs[-1].append((rid, algorithm))
                else:
                    runs.append([(rid, algorithm)])
            return runs

        next_id = 0
        for step in range(80):
            if rng.random() < 0.7:
                rid = f"t-{next_id:04d}"
                next_id += 1
                root = rng.randrange(64)
                algorithm = draw_algorithm(rng)
                kwargs = ticket_kwargs(entry, algorithm)
                if len(model_queue) < capacity:
                    ticket = controller.offer(rid, root, **kwargs)
                    tickets[rid] = (ticket, algorithm, root)
                    model_queue.append((rid, algorithm))
                else:
                    # deterministic rejection with a deterministic hint
                    with pytest.raises(QueueFullError) as exc:
                        controller.offer(rid, root, **kwargs)
                    expected = max(1, len(model_flushes()))
                    assert exc.value.retry_after == float(expected)
            else:
                record = controller.flush()
                if not model_queue:
                    assert record is None
                else:
                    expected = [rid for rid, _ in model_flushes()[0]]
                    del model_queue[: len(expected)]
                    assert record is not None
                    assert record.size == len(expected) <= width
                    got = [t.request_id for t in record.tickets]
                    assert got == expected  # strict FIFO, no dup/loss
        drained = controller.drain_pending()
        assert drained == len(model_queue)

        # no lost or duplicated responses: every accepted ticket was
        # fulfilled exactly once with its own query's answer
        for rid, (ticket, algorithm, root) in tickets.items():
            assert ticket.done, rid
            assert ticket.error is None
            assert answered(ticket, algorithm, root), rid
        counters = controller.counters()
        assert counters["accepted"] == len(tickets)
        assert counters["queue_depth"] == 0
        return [algorithm for _, algorithm, _ in tickets.values()]

    def test_seeded_bursts_deterministic(self):
        self.seeded_bursts(lambda rng: "bfs")

    def test_seeded_bursts_mixed_algorithms(self):
        ran = self.seeded_bursts(
            lambda rng: rng.choice(["bfs", "bfs", "sssp", "pagerank"])
        )
        assert set(ran) == {"bfs", "sssp", "pagerank"}

    def test_flush_takes_the_prefix_that_can_share_one_run(self):
        registry = ArtifactRegistry(max_graphs=1)
        entry = registry.register("star", star_graph(15))
        controller = AdmissionController(entry)
        offered = ["bfs", "bfs", "sssp", "bfs", "pagerank"]
        for i, algorithm in enumerate(offered):
            controller.offer(f"r{i}", i, **ticket_kwargs(entry, algorithm))
        records = []
        while (record := controller.flush()) is not None:
            records.append(record)
        assert [r.size for r in records] == [2, 1, 1, 1]
        drained = [t for r in records for t in r.tickets]
        assert [t.request_id for t in drained] == [f"r{i}" for i in range(5)]
        assert [t.flush_mode for t in drained] == [
            "batched", "batched", "serial", "batched", "serial",
        ]
        for i, (ticket, algorithm) in enumerate(zip(drained, offered)):
            assert ticket.error is None and answered(ticket, algorithm, i)

    def test_same_seed_same_decisions(self):
        """The accept/reject trace is a pure function of the op sequence."""
        def run_trace():
            registry = ArtifactRegistry(max_graphs=1)
            entry = registry.register("star", star_graph(31))
            controller = AdmissionController(
                entry, capacity=5, batch_width=3
            )
            rng = random.Random(99)
            trace = []
            for i in range(50):
                if rng.random() < 0.75:
                    try:
                        controller.offer(f"r{i}", rng.randrange(32))
                        trace.append("accept")
                    except QueueFullError as exc:
                        trace.append(f"reject:{exc.retry_after:g}")
                else:
                    record = controller.flush()
                    trace.append(f"flush:{0 if record is None else record.size}")
            controller.drain_pending()
            return trace

        assert run_trace() == run_trace()

    def test_leader_raises_only_its_own_error(self, monkeypatch):
        """A flush led for someone else's ticket fails untyped: that ticket
        carries the error, and the leader goes on to answer its own."""
        registry = ArtifactRegistry(max_graphs=1)
        entry = registry.register("star", star_graph(15))
        controller = AdmissionController(entry)
        queued = controller.offer("x", 0, algorithm=WCCAlgorithm())
        boom = RuntimeError("untyped failure inside a flush")
        execute, ran = controller._execute, []

        def fail_once(flush_id, tickets):
            ran.append([t.request_id for t in tickets])
            if len(ran) == 1:
                raise boom
            return execute(flush_id, tickets)

        monkeypatch.setattr(controller, "_execute", fail_once)
        mine = controller.submit("mine", 3)
        assert mine.error is None and answered(mine, "bfs", 3)
        assert queued.done and queued.error is boom
        assert controller.depth == 0
        # every accepted ticket answered exactly once, each in its own flush
        assert ran == [["x"], ["mine"]]
        counters = controller.counters()
        assert (counters["accepted"], counters["flushes"]) == (2, 2)
        assert counters["queue_depth"] == 0


def wait_for(predicate, attempts=4000):
    """Poll ``predicate`` every 5 ms; its last value after ~20 s."""
    for _ in range(attempts):
        if predicate():
            return True
        threading.Event().wait(0.005)
    return predicate()


class TestHandOff:
    def test_answered_follower_does_not_lead(self, monkeypatch):
        """A follower whose ticket rode in the last flush returns at once;
        the next flush is led by the thread whose ticket it drains."""
        registry = ArtifactRegistry(max_graphs=1)
        entry = registry.register("star", star_graph(15))
        controller = entry.admission
        execute, runs = controller._execute, []

        def gated(flush_id, tickets):
            gate = threading.Event()
            runs.append((
                threading.current_thread().name,
                [t.request_id for t in tickets],
                gate,
            ))
            gate.wait(60)
            return execute(flush_id, tickets)

        monkeypatch.setattr(controller, "_execute", gated)
        answers, threads = {}, {}

        def start(rid, root):
            threads[rid] = threading.Thread(
                target=lambda: answers.setdefault(
                    rid, controller.submit(rid, root)
                ),
                name=rid, daemon=True,
            )
            threads[rid].start()

        try:
            controller.hold()
            start("a", 1)
            assert wait_for(lambda: controller.depth == 1)
            start("b", 2)
            assert wait_for(lambda: controller.depth == 2)
            controller.release()
            assert wait_for(lambda: len(runs) == 1)
            leader, drained, _ = runs[0]
            assert drained == ["a", "b"]
            follower = "b" if leader == "a" else "a"
            start("c", 3)  # queued behind the gated [a, b] flush
            assert wait_for(lambda: controller.depth == 1)
            runs[0][2].set()
            assert wait_for(lambda: len(runs) == 2)
            assert runs[1][:2] == ("c", ["c"])
            threads[follower].join(timeout=30)
            threads[leader].join(timeout=30)
            # both answered while the [c] flush is still at its gate
            assert not threads[follower].is_alive()
            assert not threads[leader].is_alive()
            assert threads["c"].is_alive() and "c" not in answers
        finally:
            for run in runs:
                run[2].set()
        threads["c"].join(timeout=60)
        for rid, root in (("a", 1), ("b", 2), ("c", 3)):
            assert answered(answers[rid], "bfs", root)
        assert (entry.flushes, entry.queries_served) == (2, 3)

    def test_submit_storm_answers_everyone_once(self):
        """More submitters than cores at a short switch interval: a lost
        wake-up hangs a thread (caught by the join timeout), a lost
        update breaks the counters."""
        registry = ArtifactRegistry(max_graphs=1)
        entry = registry.register("star", star_graph(31))
        controller, n = entry.admission, 24
        answers = [None] * n
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda i=i: answers.__setitem__(
                        i, controller.submit(f"s{i}", i)
                    ),
                    daemon=True,
                )
                for i in range(n)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 120
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, ticket in enumerate(answers):
            assert ticket.request_id == f"s{i}" and answered(ticket, "bfs", i)
        counters = controller.counters()
        assert (counters["accepted"], counters["queue_depth"]) == (n, 0)
        assert entry.queries_served == n
        assert entry.flushes == counters["flushes"] == len(
            {t.flush_id for t in answers}
        )
        assert not entry.flushing

    def test_two_controllers_of_one_entry_never_share_the_machine(
        self, monkeypatch
    ):
        """A benchmark's own controller beside ``entry.admission``: the
        entry's ``flushing`` flag keeps their runs apart, and the entry's
        counters are the sum of both controllers' flushes."""
        registry = ArtifactRegistry(max_graphs=1)
        entry = registry.register("star", star_graph(31))
        controllers = [entry.admission, AdmissionController(entry)]
        attempt, guard = AdmissionController._attempt, threading.Lock()
        running, widest = [0], [0]

        def exclusive(self, *args, **kwargs):
            with guard:
                running[0] += 1
                widest[0] = max(widest[0], running[0])
            try:
                threading.Event().wait(0.002)  # widen any overlap
                return attempt(self, *args, **kwargs)
            finally:
                with guard:
                    running[0] -= 1

        monkeypatch.setattr(AdmissionController, "_attempt", exclusive)
        records, errors = [[], []], []

        def drive(index):
            controller = controllers[index]
            try:
                for round_ in range(8):
                    for slot in range(1 + (round_ + index) % 3):
                        controller.offer(f"{index}-{round_}-{slot}", slot)
                    while (record := controller.flush()) is not None:
                        records[index].append(record)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(i,), daemon=True)
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors and not any(t.is_alive() for t in threads)
        assert widest[0] == 1  # no two runs ever overlapped
        executed = [r for rs in records for r in rs if r.registry is not None]
        assert entry.flushes == len(executed) == sum(map(len, records))
        assert entry.queries_served == sum(r.size for r in executed)
        for controller, mine in zip(controllers, records):
            assert controller.counters()["flushes"] == len(mine)
        for r in executed:
            for t in r.tickets:
                slot = int(t.request_id.rsplit("-", 1)[1])
                assert t.done and t.error is None
                assert answered(t, "bfs", slot)


class TestRegistry:
    def test_parse_specs(self):
        name, graph = parse_graph_spec("rmat:scale=8,edge_factor=8,seed=7")
        assert graph.num_vertices == 256
        alias, _ = parse_graph_spec("mine@star:num_leaves=10")
        assert alias == "mine"
        with pytest.raises(ConfigError):
            parse_graph_spec("nope_dataset")
        with pytest.raises(ConfigError):
            parse_graph_spec("rmat:bad=1")
        with pytest.raises(ConfigError):
            parse_graph_spec("rmat:scale")

    def test_lru_eviction(self):
        registry = ArtifactRegistry(max_graphs=2)
        registry.register("a", star_graph(8))
        registry.register("b", star_graph(9))
        registry.get("a")  # a is now most recently used
        registry.register("c", star_graph(10))
        assert registry.names() == ["a", "c"]
        with pytest.raises(UnknownGraphError):
            registry.get("b")

    def test_graphchi_not_servable(self):
        with pytest.raises(ConfigError):
            ArtifactRegistry(engine="graphchi")

    @pytest.mark.parametrize("setting, message", [
        ({"capacity": 0}, "queue capacity must be >= 1, got 0"),
        ({"default_deadline_ms": 0}, "default_deadline_ms must be > 0"),
        ({"default_deadline_ms": -5}, "default_deadline_ms must be > 0"),
        # A NaN default never expires; the per-request rule refuses it too.
        ({"default_deadline_ms": float("nan")}, "must be > 0 and finite, got nan"),
        ({"default_deadline_ms": float("inf")}, "must be > 0 and finite, got inf"),
    ])
    def test_admission_settings_are_checked_where_set(self, setting, message):
        with pytest.raises(ConfigError, match=message):
            ArtifactRegistry(**setting)
        with pytest.raises(ConfigError, match=message):
            GraphService(**setting)

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_out_of_range_port_is_refused_before_staging(self, port):
        # The constructor refuses it, so no warm-up graph is ever staged
        # and no socket is bound.
        with pytest.raises(
            ConfigError, match=rf"port must be in \[0, 65535\], got {port}"
        ):
            GraphService(port=port, warmup=["tiny@star:num_leaves=10"])


class TestEviction:
    def test_evicted_graphs_are_freed(self):
        """The LRU is the only owner: once a queried graph is evicted,
        nothing in the service keeps its machine alive."""
        svc = GraphService(max_graphs=2)
        machines = []
        for i in range(6):
            entry = svc.register(f"g{i}", star_graph(15 + i))
            machines.append(weakref.ref(entry.machine))
            body, _ = svc.handle_query(f"g{i}", "bfs", {"root": 0}, f"r{i}")
            assert body["result"]["levels"][0] == 0
        del entry
        gc.collect()
        assert [i for i, m in enumerate(machines) if m() is not None] == [
            4, 5,
        ]
        assert svc.registry.names() == ["g4", "g5"]

    def test_ticket_queued_on_an_evicted_entry_is_answered_once(self):
        svc = GraphService(max_graphs=1)
        entry = svc.register("old", star_graph(15))
        controller = entry.admission
        controller.hold()
        answers = []
        worker = threading.Thread(
            target=lambda: answers.append(
                svc.handle_query("old", "bfs", {"root": 3}, "in-flight")
            )
        )
        worker.start()
        for _ in range(2000):
            if controller.depth:
                break
            threading.Event().wait(0.005)
        assert controller.depth == 1
        svc.register("new", star_graph(16))  # evicts "old" mid-flight
        assert svc.registry.names() == ["new"]
        controller.release()
        worker.join(timeout=60)
        assert not worker.is_alive()
        ((body, _),) = answers
        assert body["request_id"] == "in-flight"
        assert body["result"]["levels"][3] == 0
        counters = controller.counters()
        assert (counters["accepted"], counters["flushes"]) == (1, 1)
        assert counters["queue_depth"] == 0
        assert entry.queries_served == 1
        ring = svc.debug_requests()["requests"]
        assert [r["request_id"] for r in ring] == ["in-flight"]
        assert svc.metrics_snapshot().total("serve_requests_total") == 1.0


class TestReportMergeRoundTrip:
    def test_to_from_dict_exact(self):
        registry = ArtifactRegistry(max_graphs=1)
        entry = registry.register("g", star_graph(16))
        report = entry.staged.staging_report
        clone = IOReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.bytes_total == report.bytes_total
        assert clone.devices[0].bytes_by_role == (
            report.devices[0].bytes_by_role
        )

    def test_merge_reports_is_sum(self):
        registry = ArtifactRegistry(max_graphs=1)
        entry = registry.register("g", star_graph(16))
        report = entry.staged.staging_report
        double = merge_reports([report, report])
        assert double.bytes_total == 2 * report.bytes_total
        assert double.execution_time == pytest.approx(
            2 * report.execution_time
        )
        assert double.devices[0].seek_count == 2 * report.devices[0].seek_count
