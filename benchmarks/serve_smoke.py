"""Serving smoke check: boot the query service, burst it, reconcile.

End-to-end exercise of ``repro.serve`` (see ``docs/serving.md``) used by
the CI ``serve-smoke`` job:

1. boot a ``GraphService`` on an ephemeral port with a small R-MAT graph
   warmed up at registration;
2. fire a 16-request concurrent burst over HTTP, single-root BFS
   queries with SSSP and PageRank mixed in (every algorithm rides the
   same admission queue), and check every BFS answer is bit-identical to
   a serial ``api.run_queries`` over the same roots;
3. check ``/healthz`` and that ``/metrics`` reconciles **exactly**
   (``CounterRegistry.reconcile``) against the merged per-request
   reports (deduped by ``report_id``) plus the staging report;
4. print the coalescing achieved (flush sizes, served amortization);
5. time 30 sequential BFS requests on ONE keep-alive connection against
   30 on fresh connections and fail when keep-alive is slower by more
   than 10 ms in the median: a response that leaves in two writes stalls
   a keep-alive client for the kernel's delayed-ACK timer (~40 ms on any
   host), one that leaves in one write does not.

Runnable standalone::

    PYTHONPATH=src python benchmarks/serve_smoke.py
"""

import http.client
import json
import statistics
import sys
import threading
import time

from repro.api import run_queries
from repro.graph.generators import rmat_graph
from repro.obs.exporters import parse_prometheus
from repro.serve import GraphService
from repro.storage.machine import IOReport, merge_reports

SPEC = "smoke@rmat:scale=9,edge_factor=8,seed=17"
BURST = 16
KEEPALIVE_REQUESTS = 30
KEEPALIVE_MARGIN_MS = 10.0


def _roots(count):
    return [(7 * i) % 500 for i in range(count)]


ROOTS = _roots(BURST)
#: Algorithm of burst request ``i`` (cycled).
ALGORITHMS = ("bfs", "bfs", "bfs", "sssp", "bfs", "bfs", "bfs", "pagerank")


def _query(i):
    """``(algorithm, payload, key of the answer array)`` of request ``i``."""
    algorithm = ALGORITHMS[i % len(ALGORITHMS)]
    if algorithm == "pagerank":
        return algorithm, {"rounds": 2}, "ranks"
    if algorithm == "sssp":
        return algorithm, {"root": ROOTS[i], "max_weight": 4}, "distances"
    return algorithm, {"root": ROOTS[i]}, "levels"


def _request(port, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def _request_text(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def _timed_bfs_ms(conn, root):
    """One BFS request on ``conn``, request to last body byte, in ms."""
    start = time.perf_counter()
    conn.request(
        "POST", "/graphs/smoke/bfs", body=json.dumps({"root": root}).encode()
    )
    resp = conn.getresponse()
    resp.read()
    assert resp.status == 200, resp.status
    return (time.perf_counter() - start) * 1e3


def _keepalive_check(port) -> bool:
    roots = _roots(KEEPALIVE_REQUESTS)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        kept = [_timed_bfs_ms(conn, root) for root in roots]
    finally:
        conn.close()
    fresh = []
    for root in roots:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            fresh.append(_timed_bfs_ms(conn, root))
        finally:
            conn.close()
    kept_ms, fresh_ms = statistics.median(kept), statistics.median(fresh)
    print(
        f"{KEEPALIVE_REQUESTS} sequential BFS requests: median "
        f"{kept_ms:.1f} ms on one keep-alive connection, "
        f"{fresh_ms:.1f} ms on fresh connections"
    )
    if kept_ms > fresh_ms + KEEPALIVE_MARGIN_MS:
        print(
            "keep-alive requests stall: is a response leaving in more "
            "than one write?",
            file=sys.stderr,
        )
        return False
    return True


def main() -> int:
    service = GraphService(warmup=[SPEC]).start()
    try:
        port = service.port
        print(f"service listening on 127.0.0.1:{port}")

        status, health = _request(port, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok", health
        assert "smoke" in health["graphs"], health

        bodies = [None] * BURST
        errors = []

        def worker(i):
            try:
                algorithm, payload, answer = _query(i)
                st, body = _request(
                    port, "POST", f"/graphs/smoke/{algorithm}", payload
                )
                assert st == 200, body
                assert len(body["result"][answer]) == 512, body["result"]
                bodies[i] = body
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((i, exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(BURST)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            for i, exc in errors:
                print(f"request {i} failed: {exc!r}", file=sys.stderr)
            return 1

        bfs = [i for i in range(BURST) if _query(i)[0] == "bfs"]
        serial = run_queries(
            rmat_graph(scale=9, edge_factor=8, seed=17),
            [ROOTS[i] for i in bfs],
        )
        for query, i in zip(serial.queries, bfs):
            result = bodies[i]["result"]
            assert result["levels"] == query.levels.tolist()
            assert result["parents"] == query.parents.tolist()
        print(
            f"{len(bfs)} served BFS answers bit-identical to serial "
            f"run_queries; {BURST - len(bfs)} SSSP/PageRank answers rode "
            "the same queue"
        )

        flushes = {}
        for body in bodies:
            flushes[body["flush"]["id"]] = body["flush"]["size"]
        assert sum(flushes.values()) == BURST, flushes
        assert all(1 <= size <= 64 for size in flushes.values()), flushes
        print(
            f"coalesced into {len(flushes)} flush(es), "
            f"sizes {sorted(flushes.values(), reverse=True)}"
        )

        status, stats = _request(port, "GET", "/graphs/smoke/stats")
        assert status == 200, stats
        reports = {"__staging__": IOReport.from_dict(stats["staging_report"])}
        for body in bodies:
            reports[body["report_id"]] = IOReport.from_dict(body["report"])
        merged = merge_reports(list(reports.values()))

        status, metrics = _request_text(port, "/metrics")
        assert status == 200
        mismatches = parse_prometheus(metrics).reconcile(merged)
        assert mismatches == [], mismatches
        print(
            "/metrics reconciles exactly with "
            f"{len(reports) - 1} deduped request report(s) + staging"
        )

        served_bytes = sum(
            d.bytes_read + d.bytes_written
            for d in merge_reports(
                [reports["__staging__"]]
                + [
                    reports[rid]
                    for rid in sorted({bodies[i]["report_id"] for i in bfs})
                ]
            ).devices
        )
        serial_bytes = sum(
            d.bytes_read + d.bytes_written
            for d in merge_reports(
                [serial.staging_report] + [q.report for q in serial.queries]
            ).devices
        )
        print(
            f"served BFS amortization: {served_bytes / serial_bytes:.3f}x "
            f"of serial bytes ({served_bytes} vs {serial_bytes})"
        )
        return 0 if _keepalive_check(port) else 1
    finally:
        service.shutdown()


if __name__ == "__main__":
    sys.exit(main())
