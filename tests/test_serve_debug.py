"""End-to-end request tracing and telemetry endpoints (repro.serve).

Boots the real HTTP server in-process and locks down the observability
surface added on top of the query API:

* **request ids** — a valid client-supplied ``X-Request-Id`` is honored
  and echoed on every response (success *and* error); invalid ids are
  replaced with a server-generated one;
* **/debug/requests** — the bounded recent-request ring: summaries,
  full per-request span trees whose timing breakdown matches the
  ``X-Queue-Wait-Seconds``/``X-Sim-*`` response headers, 404s that name
  the ring capacity, and error requests landing in the ring too;
* **/debug/timeseries** — the rolling windowed snapshot;
* **stats golden schema** — ``/graphs/{name}/stats`` carries live
  admission counters and latency quantile summaries;
* **flush attribution** — 16 concurrent BFS requests: every response's
  request id appears in exactly one flush's ``query`` span attrs,
  leaders and coalesced followers alike.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.serve import GraphService
from repro.serve.app import REQUEST_ID_PATTERN
from repro.serve.debug import DEFAULT_REQUEST_LOG_CAPACITY

TINY_SPEC = "tiny@rmat:scale=8,edge_factor=8,seed=7"

SUMMARY_KEYS = {
    "request_id", "graph", "algorithm", "status", "flush_id",
    "flush_size", "queue_wait_seconds", "sim_execution_seconds", "error",
}
QUANTILE_KEYS = {"count", "sum", "p50", "p95", "p99"}


def request(service, method, path, payload=None, headers=None, timeout=120,
            retries=2):
    """One HTTP request; returns (status, headers dict, decoded body)."""
    body = json.dumps(payload) if payload is not None else None
    for attempt in range(retries + 1):
        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            data = resp.read()
            resp_headers = dict(resp.getheaders())
            break
        except (ConnectionError, http.client.HTTPException):
            if attempt == retries:
                raise
        finally:
            conn.close()
    if resp_headers.get("Content-Type", "").startswith("application/json"):
        return resp.status, resp_headers, json.loads(data)
    return resp.status, resp_headers, data.decode("utf-8")


@pytest.fixture(scope="module")
def service():
    svc = GraphService(port=0, warmup=(TINY_SPEC,)).start()
    yield svc
    svc.shutdown()


def run_bfs(service, root, rid=None):
    headers = {"X-Request-Id": rid} if rid is not None else {}
    status, resp_headers, body = request(
        service, "POST", "/graphs/tiny/bfs", {"root": root}, headers=headers
    )
    assert status == 200, body
    return resp_headers, body


# ----------------------------------------------------------------------
# X-Request-Id: honored, validated, echoed
# ----------------------------------------------------------------------
class TestRequestIdHeader:
    def test_valid_client_id_is_honored_end_to_end(self, service):
        rid = "trace.A-01_frontend"
        assert REQUEST_ID_PATTERN.match(rid)
        headers, body = run_bfs(service, 3, rid=rid)
        assert headers["X-Request-Id"] == rid
        assert body["request_id"] == rid

    @pytest.mark.parametrize("bad", [
        "spaces are bad",
        "x" * 65,
        "no/slashes",
    ])
    def test_invalid_client_id_is_replaced(self, service, bad):
        status, headers, _ = request(
            service, "GET", "/healthz", headers={"X-Request-Id": bad}
        )
        assert status == 200
        assert headers["X-Request-Id"] != bad
        assert headers["X-Request-Id"].startswith("req-")

    def test_id_is_echoed_on_errors_too(self, service):
        rid = "err-echo-1"
        status, headers, body = request(
            service, "GET", "/no/such/route", headers={"X-Request-Id": rid}
        )
        assert status == 404
        assert headers["X-Request-Id"] == rid
        assert body["request_id"] == rid


# ----------------------------------------------------------------------
# /debug/requests: the recent-request ring
# ----------------------------------------------------------------------
class TestDebugRequests:
    def test_summaries_list_recent_requests_newest_first(self, service):
        run_bfs(service, 1, rid="ring-a")
        run_bfs(service, 2, rid="ring-b")
        status, _, body = request(service, "GET", "/debug/requests")
        assert status == 200
        summaries = body["requests"]
        ids = [s["request_id"] for s in summaries]
        assert ids.index("ring-b") < ids.index("ring-a")
        for s in summaries:
            assert set(s) == SUMMARY_KEYS

    def test_span_tree_matches_response_headers(self, service):
        headers, body = run_bfs(service, 5, rid="deep-dive-1")
        status, _, record = request(
            service, "GET", "/debug/requests/deep-dive-1"
        )
        assert status == 200
        # The ring remembers exactly what the response's headers said.
        timing = record["timing"]
        assert timing["queue_wait_seconds"] == pytest.approx(
            float(headers["X-Queue-Wait-Seconds"]), abs=5e-7
        )
        assert timing["sim_execution_seconds"] == pytest.approx(
            float(headers["X-Sim-Execution-Seconds"]), abs=5e-10
        )
        assert timing["sim_compute_seconds"] == pytest.approx(
            float(headers["X-Sim-Compute-Seconds"]), abs=5e-10
        )
        assert timing["sim_iowait_seconds"] == pytest.approx(
            float(headers["X-Sim-Iowait-Seconds"]), abs=5e-10
        )
        assert record["flush_id"] == headers["X-Flush-Id"]
        assert record["flush_size"] == int(headers["X-Flush-Size"])
        assert record["timing"] == body["timing"]

    def test_record_carries_the_flush_span_tree(self, service):
        run_bfs(service, 7, rid="span-tree-1")
        _, _, record = request(service, "GET", "/debug/requests/span-tree-1")
        spans = record["spans"]
        assert spans, "flush span trace must ride along"
        names = {sp["name"] for sp in spans}
        assert "query" in names
        # The ring keeps the flush's spans, not its device requests.
        assert "io" not in names
        # The record points at its own query span, and the admission
        # controller's dual clock stamped it with host time.
        own = [sp for sp in spans if sp["span_id"] == record["query_span_id"]]
        assert len(own) == 1
        assert "span-tree-1" in own[0]["attrs"]["request_ids"]
        assert own[0]["attrs"]["flush_id"] == record["flush_id"]
        assert record["host_service_seconds"] > 0.0

    def test_unknown_id_404_names_the_ring_capacity(self, service):
        status, _, body = request(
            service, "GET", "/debug/requests/never-seen-id"
        )
        assert status == 404
        assert body["error"]["type"] == "not_found"
        assert str(DEFAULT_REQUEST_LOG_CAPACITY) in body["error"]["message"]

    def test_failed_query_requests_land_in_the_ring(self, service):
        rid = "failed-query-1"
        status, headers, _ = request(
            service, "POST", "/graphs/nope/bfs", {"root": 0},
            headers={"X-Request-Id": rid},
        )
        assert status == 404
        assert headers["X-Request-Id"] == rid
        _, _, record = request(service, "GET", f"/debug/requests/{rid}")
        assert record["status"] == 404
        assert record["error"]["type"] == "unknown_graph"
        assert record["flush_id"] is None
        assert record["spans"] == []


# ----------------------------------------------------------------------
# /debug/timeseries: the rolling windows
# ----------------------------------------------------------------------
class TestDebugTimeseries:
    def test_snapshot_shape_and_live_traffic(self, service):
        run_bfs(service, 9)
        status, _, body = request(service, "GET", "/debug/timeseries")
        assert status == 200
        assert set(body) == {"window_seconds", "capacity", "now", "windows"}
        assert body["windows"], "traffic just happened: a window must exist"
        latest = body["windows"][-1]
        assert set(latest) == {"index", "start", "graphs"}
        tiny = latest["graphs"]["tiny"]
        assert tiny["requests"] >= 1
        assert set(tiny["queue_wait"]) == QUANTILE_KEYS

    def test_windows_parameter_limits_the_view(self, service):
        run_bfs(service, 11)
        _, _, body = request(service, "GET", "/debug/timeseries?windows=1")
        assert len(body["windows"]) == 1

    def test_bad_windows_parameter_is_a_400(self, service):
        status, _, body = request(
            service, "GET", "/debug/timeseries?windows=soon"
        )
        assert status == 400
        assert body["error"]["type"] == "bad_request"


# ----------------------------------------------------------------------
# stats golden schema: live depth, flush counts, latency quantiles
# ----------------------------------------------------------------------
class TestStatsSchema:
    def test_stats_payload_schema(self, service):
        run_bfs(service, 13)
        status, _, body = request(service, "GET", "/graphs/tiny/stats")
        assert status == 200
        assert set(body) == {
            "name", "graph", "engine", "partitions", "in_memory",
            "staging_report", "queries_served", "flushes",
            "admission", "latency", "fault_plan", "health",
        }
        assert set(body["admission"]) == {
            "queue_depth", "capacity", "accepted", "rejected",
            "flushes", "flush_retries", "serial_fallbacks",
            "deadline_expired", "held", "closed",
        }
        assert body["admission"]["queue_depth"] == 0  # idle right now
        assert body["admission"]["accepted"] >= 1
        assert body["admission"]["flushes"] >= 1
        assert set(body["latency"]) == {
            "queue_wait_seconds", "service_sim_seconds",
        }
        for summary in body["latency"].values():
            assert set(summary) == QUANTILE_KEYS
        assert body["latency"]["service_sim_seconds"]["count"] >= 1.0


# ----------------------------------------------------------------------
# flush attribution under concurrency (the satellite-4 criterion)
# ----------------------------------------------------------------------
class TestConcurrentFlushAttribution:
    N = 16

    def test_every_id_lands_in_exactly_one_flush(self, service):
        results = [None] * self.N
        errors = []

        def fire(i):
            try:
                results[i] = run_bfs(service, i + 1)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(self.N)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        # Pull each request's record; records of one flush share spans.
        flush_query_ids = {}  # flush_id -> ids named by its query spans
        flush_sizes = {}
        for headers, body in results:
            rid = body["request_id"]
            _, _, record = request(service, "GET", f"/debug/requests/{rid}")
            assert record["flush_id"] == headers["X-Flush-Id"]
            flush_sizes[record["flush_id"]] = record["flush_size"]
            ids = flush_query_ids.setdefault(record["flush_id"], [])
            if not ids:
                for sp in record["spans"]:
                    if sp["name"] == "query":
                        ids.extend(sp["attrs"]["request_ids"])

        # Every response id appears in exactly one flush's query spans —
        # coalesced followers included, never duplicated across flushes.
        all_ids = [i for ids in flush_query_ids.values() for i in ids]
        for _, body in results:
            assert all_ids.count(body["request_id"]) == 1
        # The flushes partition the burst.
        assert sum(flush_sizes.values()) == self.N
