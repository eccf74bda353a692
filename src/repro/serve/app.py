"""HTTP/JSON front door for the graph query service.

Stdlib only (``http.server`` + ``ThreadingHTTPServer`` — no new runtime
deps): each request runs on its own thread, and every query, whatever its
algorithm, is a ticket of the per-graph
:class:`~repro.serve.admission.AdmissionController` (concurrent BFS roots
coalesce into MS-BFS batches; an SSSP or PageRank ticket runs alone, in
queue order).  This module parses payloads and encodes results; it never
runs anything on a graph's machine or reports to its breaker itself.

Endpoints (details + curl examples in docs/serving.md):

* ``GET  /healthz`` — liveness + per-graph readiness/health states.
* ``GET  /debug/health`` — breaker snapshots + transition logs.
* ``GET  /metrics`` — Prometheus text exposition of the service registry.
* ``GET  /graphs`` — registered graph names.
* ``POST /graphs/{name}`` — register a graph from a spec
  (``{"spec": "rmat:scale=10,edge_factor=8,seed=7"}``).
* ``GET  /graphs/{name}/stats`` — artifact + serving statistics.
* ``POST /graphs/{name}/bfs`` — ``{"root": 3}`` or ``{"roots": [3, 4]}``
  (one multi-source query); coalesced + batched.
* ``POST /graphs/{name}/sssp`` — ``{"root": 3, "max_weight": 8}``.
* ``POST /graphs/{name}/pagerank`` — ``{"rounds": 5, "damping": 0.85}``.

The three query endpoints take an optional ``"deadline_ms"`` bounding
queue wait + flush time (expired → 504).

Every response leaves through one responder (``_Handler._respond``) as
ONE write of head + body on a ``TCP_NODELAY`` socket, so a keep-alive
client never waits out a delayed ACK between headers and body; that
includes the refusals ``http.server`` makes on its own (bad request line,
414, 431, 501, 505), which are typed JSON problems like every other
error.  A peer silent for :data:`READ_TIMEOUT_SECONDS` is given up: in
the middle of a declared body with a typed 408, before that by closing.
A connection past :data:`MAX_HANDLER_THREADS` live handlers gets no
thread: a typed 503 on the accept thread, then the connection closes.
Every response with a head carries ``X-Request-Id`` (a request
line without an HTTP/1.x version gets, per HTTP/0.9, the body alone);
query responses additionally carry queue-wait and simulated-time
breakdown headers plus the flush id (``report_id``) that keys the
per-flush delta :class:`~repro.storage.machine.IOReport` echoed in the
JSON body — the handle the metrics-reconciliation tests dedup shared
batch reports by.

The ``/metrics`` registry is **exactly reconcilable**: it is built purely
by merging per-staging and per-flush ``CounterRegistry.from_report``
registries (plus engine counters, span histograms and ``serve_*``
series), so ``parse_prometheus(metrics).reconcile(merge_reports(staging
reports + unique flush reports)) == []`` bit-for-bit.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from repro.algorithms.pagerank import PageRankAlgorithm
from repro.algorithms.sssp import WeightedSSSPAlgorithm, hash_weights
from repro.algorithms.streaming import check_roots
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    EngineError,
    FlushFailedError,
    GraphQuarantinedError,
    QueueFullError,
    ReproError,
    ServeError,
    UnknownGraphError,
)
from repro.obs.counters import DEFAULT_DURATION_BUCKETS, CounterRegistry
from repro.obs.exporters import PROMETHEUS_CONTENT_TYPE, to_prometheus
from repro.obs.hostprof import HOST_CLOCK, HostClock
from repro.obs.timeseries import TimeSeries, quantile_summary
from repro.serve.debug import REQUEST_LOG_CAPACITY, RequestLog, RequestRecord
from repro.serve.health import STATE_CODES
from repro.serve.registry import ArtifactRegistry, GraphEntry, parse_graph_spec
from repro.storage.faults import FaultPlan

JSON_CONTENT_TYPE = "application/json"

#: Bucket bounds for the ``serve_queue_wait_seconds`` histogram (wall
#: seconds a request sat in the admission queue).
QUEUE_WAIT_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

#: Largest request body the server reads; a larger ``Content-Length`` is
#: refused with a typed 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20

#: Most edges a ``POST /graphs/{name}`` generator spec may ask for; a
#: larger one is refused with a typed 400 before anything is allocated
#: (16M edges is 128 MB of edge records).  Operator ``--warmup`` specs are
#: not capped.
MAX_SPEC_EDGES = 1 << 24

#: Most PageRank rounds one request may ask for: every round is a full
#: edge scan on the graph's one machine, with every other ticket waiting.
MAX_PAGERANK_ROUNDS = 100

#: Seconds a connection may stay silent in a read (request line, headers
#: or a declared body) before its handler thread gives it up.  Not
#: smaller: keep-alive clients legitimately idle between requests, and
#: ``benchmarks/perf``'s connections park for seconds at phase and block
#: boundaries while the harness probes the host.
READ_TIMEOUT_SECONDS = 30.0

#: Most connections with a live handler thread.  One past it is answered
#: a typed ``503 server_busy`` on the accept thread and closed, so N silent
#: peers cannot hold N threads for :data:`READ_TIMEOUT_SECONDS` each.
MAX_HANDLER_THREADS = 64

#: Client-supplied ``X-Request-Id`` values must match this (safe charset,
#: length-capped); anything else falls back to a generated id.
REQUEST_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: What a graph may be registered and addressed as.  The name rides in
#: every flush id, metrics label and ``/graphs`` listing, so it is held to
#: a safe charset, may not start with a dot and is length-capped.
GRAPH_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_-][A-Za-z0-9._-]{0,63}$")

#: Problem types of the statuses ``BaseHTTPRequestHandler`` refuses a
#: request with before any ``do_*`` method runs.
PROTOCOL_PROBLEM_KINDS = {
    400: "bad_request",
    414: "uri_too_long",
    431: "headers_too_large",
    501: "method_not_implemented",
    505: "http_version_not_supported",
}


class _RequestProblem(Exception):
    """Internal: an HTTP error response (status + typed JSON body)."""

    def __init__(self, status: int, kind: str, message: str,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.message = message
        self.headers = headers or {}
        #: Queue wait carried by deadline problems (504 accounting).
        self.queue_wait: Optional[float] = None


def check_graph_name(name: str) -> None:
    """Refuse a graph name outside :data:`GRAPH_NAME_PATTERN`."""
    if not GRAPH_NAME_PATTERN.fullmatch(name):
        raise ConfigError(
            f"graph name {name[:80]!r} is not allowed: 1-64 characters of "
            "[A-Za-z0-9._-], not starting with a dot"
        )


def _is_int(value: object) -> bool:
    """A JSON integer: ``true``/``false`` are ``int`` to Python, not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _problem_for(exc: Exception) -> _RequestProblem:
    """Map a library exception to its HTTP problem."""
    if isinstance(exc, _RequestProblem):
        return exc
    if isinstance(exc, UnknownGraphError):
        return _RequestProblem(404, "unknown_graph", str(exc))
    if isinstance(exc, QueueFullError):
        return _RequestProblem(
            429, "queue_full", str(exc),
            headers={"Retry-After": f"{exc.retry_after:g}"},
        )
    if isinstance(exc, DeadlineExceededError):
        problem = _RequestProblem(504, "deadline_exceeded", str(exc))
        problem.queue_wait = exc.queue_wait
        return problem
    if isinstance(exc, GraphQuarantinedError):
        return _RequestProblem(
            503, "graph_quarantined", str(exc),
            headers={"Retry-After": f"{exc.retry_after:g}"},
        )
    if isinstance(exc, FlushFailedError):
        return _RequestProblem(
            503, "flush_failed", str(exc),
            headers={"Retry-After": f"{exc.retry_after:g}"},
        )
    if isinstance(exc, ServeError):
        return _RequestProblem(503, "shutting_down", str(exc))
    if isinstance(exc, EngineError):
        return _RequestProblem(400, "bad_root", str(exc))
    if isinstance(exc, ConfigError):
        return _RequestProblem(400, "bad_request", str(exc))
    if isinstance(exc, ReproError):
        return _RequestProblem(500, "internal_error", str(exc))
    return _RequestProblem(
        500, "internal_error", f"{type(exc).__name__}: {exc}"
    )


def _extract_roots(entry: GraphEntry, payload: Dict):
    """Pull root/roots out of a payload, boundary-validated."""
    if "roots" in payload:
        roots = payload["roots"]
        if (
            not isinstance(roots, list)
            or not roots
            or not all(_is_int(r) for r in roots)
        ):
            raise _RequestProblem(
                400, "bad_root",
                "\"roots\" must be a non-empty list of integers",
            )
        root_entry: object = roots
    elif "root" in payload:
        if not _is_int(payload["root"]):
            raise _RequestProblem(
                400, "bad_root", "\"root\" must be an integer"
            )
        root_entry = int(payload["root"])
    else:
        raise _RequestProblem(
            400, "bad_root", "payload needs \"root\" or \"roots\""
        )
    # Validate here so a bad root 400s instead of poisoning a batch.
    check_roots(entry.graph.num_vertices, root_entry)
    return root_entry


def _extract_deadline(payload: Dict) -> Optional[float]:
    """Pull an optional per-request ``deadline_ms`` out of a payload."""
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is None:
        return None
    if (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, (int, float))
        # False for NaN (it never expires), for +-Infinity and for an
        # integer float() cannot hold; int/float comparison is exact.
        or not 0 < deadline_ms <= sys.float_info.max
    ):
        raise _RequestProblem(
            400, "bad_request",
            "\"deadline_ms\" must be a finite number > 0 (milliseconds)",
        )
    return float(deadline_ms)


# Per algorithm: a payload parser returning what the ticket carries,
# ``(root entry or None, kernel or None = BFS)``, and an encoder of the
# result's JSON.

def _parse_bfs(entry: GraphEntry, payload: Dict):
    return _extract_roots(entry, payload), None


def _parse_sssp(entry: GraphEntry, payload: Dict):
    root_entry = _extract_roots(entry, payload)
    max_weight = payload.get("max_weight", 8)
    # Weights ride in the u4 update payload; a larger bound would only
    # fail inside the flush, in whichever thread leads it.
    if not _is_int(max_weight) or not 1 <= max_weight < 1 << 32:
        raise _RequestProblem(
            400, "bad_request", "\"max_weight\" must be an int in [1, 2^32)"
        )
    return root_entry, WeightedSSSPAlgorithm(hash_weights(max_weight))


def _parse_pagerank(entry: GraphEntry, payload: Dict):
    rounds = payload.get("rounds", 5)
    if not _is_int(rounds) or not 1 <= rounds <= MAX_PAGERANK_ROUNDS:
        raise _RequestProblem(
            400, "bad_request",
            f"\"rounds\" must be an int in [1, {MAX_PAGERANK_ROUNDS}]",
        )
    damping = payload.get("damping", 0.85)
    if not isinstance(damping, (int, float)) or not 0.0 < damping < 1.0:
        raise _RequestProblem(
            400, "bad_request", "\"damping\" must be in (0, 1)"
        )
    return None, PageRankAlgorithm(
        entry.graph.out_degrees(), rounds, damping=float(damping)
    )


def _encode_bfs(result) -> Dict:
    return {
        "levels": result.levels.tolist(),
        "parents": result.parents.tolist(),
        "num_iterations": int(result.num_iterations),
        "edges_scanned": int(result.edges_scanned),
    }


def _encode_sssp(result) -> Dict:
    return {
        "distances": result.output["distance"].tolist(),
        "unreached_value": 0xFFFFFFFF,
        "num_iterations": int(result.num_iterations),
    }


def _encode_pagerank(result) -> Dict:
    return {
        "ranks": result.output["rank"].tolist(),
        "rounds": int(result.num_iterations),
    }


#: The whole dispatch: algorithm -> (payload parser, result encoder).
_QUERIES = {
    "bfs": (_parse_bfs, _encode_bfs),
    "sssp": (_parse_sssp, _encode_sssp),
    "pagerank": (_parse_pagerank, _encode_pagerank),
}

QUERY_ALGORITHMS = tuple(_QUERIES)


class GraphService:
    """The long-lived serving process: registry + admission + HTTP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        warmup: Sequence[str] = (),
        engine: str = "fastbfs",
        capacity: int = 128,
        max_graphs: int = 4,
        config=None,
        machine_factory=None,
        fault_plan: Optional[FaultPlan] = None,
        default_deadline_ms: Optional[float] = None,
        clock: Optional[HostClock] = None,
    ) -> None:
        if not 0 <= port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {port}")
        self.host = host
        self._requested_port = port
        # Host time (deadlines, breaker cooldowns, queue-wait stamps) flows
        # through one injectable clock so fault/chaos tests can drive it.
        self.clock = clock if clock is not None else HOST_CLOCK
        # The books: the counter registry behind /metrics, the request-id
        # counter, the recent-request ring and the rolling time series,
        # all under ``_lock``.  It is a leaf: nothing else is acquired
        # while it is held, so a graph's monitor holder (a breaker
        # transition) may take it.
        self._lock = threading.Lock()
        self._registry_metrics = CounterRegistry()
        self._request_count = 0
        #: Bounded recent-request ring behind ``GET /debug/requests``.
        self.request_log = RequestLog()
        #: Rolling windowed metrics behind ``GET /debug/timeseries``.
        self.timeseries = TimeSeries(clock=self.clock)
        self.registry = ArtifactRegistry(
            engine=engine,
            config=config,
            machine_factory=machine_factory,
            max_graphs=max_graphs,
            fault_plan=fault_plan,
            clock=self.clock,
            on_transition=self._on_breaker_transition,
            capacity=capacity,
            default_deadline_ms=default_deadline_ms,
            metrics_sink=self._merge_metrics,
        )
        self._warmup_specs = tuple(warmup)
        self._draining = False
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "GraphService":
        """Warm up the registry, bind the socket, serve on a thread."""
        for spec in self._warmup_specs:
            name, graph = parse_graph_spec(spec)
            self.register(name, graph)
        service = self

        class _Server(ThreadingHTTPServer):
            daemon_threads = True
            # Survive bursts of simultaneous connects (the admission
            # queue, not the TCP backlog, is the intended choke point).
            request_queue_size = 128
            # One slot per live handler thread.
            handler_slots = threading.BoundedSemaphore(MAX_HANDLER_THREADS)

            def process_request(self, request, client_address):
                # The accept thread: past the cap, answer here and close.
                if not self.handler_slots.acquire(blocking=False):
                    _BusyHandler(request, client_address, self)
                    self.shutdown_request(request)
                    return
                try:
                    super().process_request(request, client_address)
                except BaseException:
                    self.handler_slots.release()  # no thread was started
                    raise

            def process_request_thread(self, request, client_address):
                try:
                    super().process_request_thread(request, client_address)
                finally:
                    self.handler_slots.release()

        self._httpd = _Server((self.host, self._requested_port), _Handler)
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise ServeError("service is not started")
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block until the serving thread exits (shutdown() from afar)."""
        if self._thread is not None:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)

    def shutdown(self) -> None:
        """Stop serving, fulfilling every queued ticket first.

        New query/registration requests are rejected (503) the moment this
        is called; queued tickets are flushed to completion so no
        admitted request is ever dropped, then the HTTP loop stops.
        """
        self._draining = True
        for entry in self.registry.entries().values():
            controller = entry.admission
            controller.stop_accepting()
            controller.release()
            controller.drain_pending()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # registry plumbing
    # ------------------------------------------------------------------
    def register(self, name: str, graph) -> GraphEntry:
        """Stage ``graph`` under ``name`` and account its staging I/O."""
        if self._draining:
            raise ServeError("service is shutting down")
        check_graph_name(name)
        entry = self.registry.register(name, graph)
        if entry.staged.staging_report is not None:
            staging = CounterRegistry.from_report(entry.staged.staging_report)
            staging.inc("serve_graphs_registered_total", 1.0, graph=name)
            self._merge_metrics(staging)
        state = float(entry.health.state_code())
        with self._lock:
            self._registry_metrics.set("breaker_state", state, graph=name)
        return entry

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _merge_metrics(self, registry: CounterRegistry) -> None:
        with self._lock:
            self._registry_metrics.merge(registry)
            # Feed the rolling time-series from the same per-flush samples
            # the admission controller emits (no second accounting source).
            for name, labels, value in registry.items():
                if name == "serve_flushes_total":
                    self.timeseries.record_flush(
                        labels.get("graph", "?"), flushes=int(value)
                    )
                elif name == "serve_flushed_queries_total":
                    self.timeseries.record_flush(
                        labels.get("graph", "?"), flushes=0,
                        queries=int(value),
                    )

    def _on_breaker_transition(
        self, name: str, frm: str, to: str, reason: str
    ) -> None:
        """Breaker sink: keep the gauge + transition counter in lockstep.

        ``breaker_state`` is a *gauge* (set, never merged — merging adds)
        while ``breaker_transitions_total`` is an ordinary counter; both
        live directly on the long-lived service registry.
        """
        with self._lock:
            self._registry_metrics.inc(
                "breaker_transitions_total", 1.0,
                graph=name, **{"from": frm, "to": to},
            )
            self._registry_metrics.set(
                "breaker_state", float(STATE_CODES[to]), graph=name
            )

    def count_disconnect(self, path: str, request_id: str) -> None:
        """A client hung up mid-response: count it, no stack trace."""
        with self._lock:
            self._registry_metrics.inc("client_disconnect_total", 1.0)

    def count_timeout(self) -> None:
        """A peer went silent mid-request and its connection was given up."""
        with self._lock:
            self._registry_metrics.inc("client_timeout_total", 1.0)

    def count_busy(self) -> None:
        """A connection came past MAX_HANDLER_THREADS and was refused."""
        with self._lock:
            self._registry_metrics.inc("server_busy_total", 1.0)

    def metrics_snapshot(self) -> CounterRegistry:
        """Copy of the service registry (safe to export/reconcile)."""
        snap = CounterRegistry()
        with self._lock:
            snap.merge(self._registry_metrics)
        return snap

    def finish_request(self, record: RequestRecord) -> None:
        """Account one answered query request, whatever its status.

        ``serve_requests_total`` and the wait / service histograms, the
        rolling time-series and the debug ring all read the one record,
        in one critical section, so the three views never disagree: a 429
        burst or a 504 is explainable after the fact by id, and an
        expired ticket's queue wait stays visible in the histograms.
        """
        queue_wait = record.timing.get("queue_wait_seconds")
        sim_seconds = record.timing.get("sim_execution_seconds")
        with self._lock:
            self._registry_metrics.inc(
                "serve_requests_total",
                1.0,
                graph=record.graph,
                algorithm=record.algorithm,
                status=record.status,
            )
            if queue_wait is not None:
                self._registry_metrics.observe(
                    "serve_queue_wait_seconds",
                    queue_wait,
                    buckets=QUEUE_WAIT_BUCKETS,
                    graph=record.graph,
                )
            if sim_seconds is not None:
                self._registry_metrics.observe(
                    "serve_service_sim_seconds",
                    sim_seconds,
                    buckets=DEFAULT_DURATION_BUCKETS,
                    graph=record.graph,
                )
            self.timeseries.record_request(
                record.graph,
                queue_wait=queue_wait or 0.0,
                service_time=sim_seconds or 0.0,
                error=record.status >= 400,
            )
            self.request_log.record(record)

    def next_request_id(self) -> str:
        with self._lock:
            self._request_count += 1
            return f"req-{self._request_count:06d}"

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def handle_query(
        self, name: str, algorithm: str, payload: Dict, request_id: str
    ) -> Tuple[Dict, Dict[str, str]]:
        """Run one query; returns (JSON body, extra headers).

        Every algorithm takes the same path: parse and validate the
        payload, wait for the ticket's flush, encode the result.  Raises
        library errors for the handler to map to HTTP problems.
        """
        if self._draining:
            raise ServeError("service is shutting down")
        entry = self.registry.get(name)
        if algorithm not in _QUERIES:
            raise _RequestProblem(
                404, "not_found",
                f"unknown algorithm {algorithm!r}; options: {QUERY_ALGORITHMS}",
            )
        parse, encode = _QUERIES[algorithm]
        root_entry, kernel = parse(entry, payload)
        deadline_ms = _extract_deadline(payload)
        ticket = entry.admission.submit(
            request_id,
            # A root-free algorithm still fills a slot; 0 satisfies the API.
            0 if root_entry is None else root_entry,
            deadline_ms=deadline_ms,
            algorithm=kernel,
        )
        report = ticket.report
        body = {
            "graph": entry.name,
            "algorithm": algorithm,
            "engine": entry.engine.name,
            "request_id": request_id,
            "root": root_entry,
            "flush": {
                "id": ticket.flush_id,
                "size": ticket.flush_size,
                "mode": ticket.flush_mode,
            },
            "result": encode(ticket.result),
            "report": report.to_dict(),
            "report_id": ticket.flush_id,
            "timing": {
                "queue_wait_seconds": ticket.queue_wait,
                "sim_execution_seconds": report.execution_time,
                "sim_compute_seconds": report.compute_time,
                "sim_iowait_seconds": report.iowait_time,
            },
        }
        headers = {
            "X-Queue-Wait-Seconds": f"{ticket.queue_wait:.6f}",
            "X-Sim-Execution-Seconds": f"{report.execution_time:.9f}",
            "X-Sim-Compute-Seconds": f"{report.compute_time:.9f}",
            "X-Sim-Iowait-Seconds": f"{report.iowait_time:.9f}",
            "X-Flush-Id": str(ticket.flush_id),
            "X-Flush-Size": str(ticket.flush_size),
        }
        depth = entry.admission.depth
        with self._lock:
            self.timeseries.sample_depth(entry.name, depth)
        self.finish_request(
            RequestRecord(
                request_id=request_id,
                graph=entry.name,
                algorithm=algorithm,
                roots=root_entry,
                status=200,
                flush_id=ticket.flush_id,
                flush_size=ticket.flush_size,
                timing=body["timing"],
                spans=ticket.spans,
            )
        )
        return body, headers

    # ------------------------------------------------------------------
    # non-query endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        """Liveness + per-graph readiness (`"tiny" in body["graphs"]` holds).

        ``graphs`` maps each registered name to its breaker state and
        readiness — quarantined graphs are registered but not ready.
        ``requests_served`` counts the query requests answered, whatever
        their status: ``serve_requests_total`` summed over its labels.
        """
        graphs = {
            name: {
                "state": entry.health.state,
                "ready": entry.health.ready,
            }
            for name, entry in sorted(self.registry.entries().items())
        }
        with self._lock:
            served = self._registry_metrics.total("serve_requests_total")
        return {
            "status": "draining" if self._draining else "ok",
            "graphs": graphs,
            "requests_served": int(served),
        }

    def stats(self, name: str) -> Dict:
        entry = self.registry.get(name)
        payload = entry.stats()
        payload["admission"] = entry.admission.counters()
        snap = self.metrics_snapshot()
        payload["latency"] = {
            "queue_wait_seconds": quantile_summary(
                snap.histogram("serve_queue_wait_seconds", graph=name)
            ),
            "service_sim_seconds": quantile_summary(
                snap.histogram("serve_service_sim_seconds", graph=name)
            ),
        }
        return payload

    def debug_requests(self) -> Dict:
        with self._lock:
            return {"requests": self.request_log.summaries()}

    def debug_request(self, request_id: str) -> Dict:
        with self._lock:
            record = self.request_log.get(request_id)
        if record is None:
            raise _RequestProblem(
                404, "not_found",
                f"request {request_id!r} is not in the recent-request ring "
                f"(capacity {REQUEST_LOG_CAPACITY})",
            )
        return record.to_dict()

    def debug_timeseries(self, windows: Optional[int] = None) -> Dict:
        with self._lock:
            return self.timeseries.snapshot(windows=windows)

    def debug_health(self) -> Dict:
        """Full breaker snapshots incl. transition logs, per graph.

        The chaos harness replays a fault schedule twice and asserts the
        ``(from, to, reason)`` transition sequences here are identical —
        health evolution is deterministic per seed.
        """
        return {
            "graphs": {
                name: entry.health.snapshot()
                for name, entry in sorted(self.registry.entries().items())
            }
        }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: the tail of a response larger
    # than one segment is never held for the peer's ACK either.
    disable_nagle_algorithm = True
    # socketserver's own class attribute: a socket timeout on every
    # accepted connection, so a silent peer cannot pin its handler thread.
    # Expiry is caught as socket.timeout, the class raised on Python 3.9
    # (an alias of TimeoutError only from 3.10).
    timeout = READ_TIMEOUT_SECONDS

    @property
    def service(self) -> GraphService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # HTTP access logging is the deployment's job, not ours

    def log_error(self, format, *args):  # noqa: A002 - stdlib signature
        # With send_error overridden the stdlib has one caller left:
        # handle_one_request, whose read of a request line or of headers
        # timed out.  It closes the connection without a response (there
        # is no request to answer); all that is left to do is count it.
        if args and isinstance(args[0], socket.timeout):
            self.service.count_timeout()

    def handle_one_request(self) -> None:
        # The stdlib refuses some requests before it parses their path or
        # headers; on a keep-alive connection those refusals must not see
        # (and answer with the id of) the previous request's.
        self.path = ""
        self.headers = self.MessageClass()
        super().handle_one_request()

    def send_error(self, code, message=None, explain=None) -> None:
        """Refusals ``BaseHTTPRequestHandler`` makes on its own (bad request
        line, 414, 431, 501, 505) leave as typed problems, not HTML pages.

        No ``do_*`` ran, so the rest of the request is unread and the
        connection closes, as it does in the stdlib.
        """
        status = int(code)
        text = message or HTTPStatus(status).phrase
        if explain:
            text = f"{text}: {explain}"
        problem = _RequestProblem(
            status,
            PROTOCOL_PROBLEM_KINDS.get(status, "protocol_error"),
            text,
            headers={"Connection": "close"},
        )
        self._send_problem(problem, self._request_id())

    def _request_id(self) -> str:
        """Honor a valid client-supplied ``X-Request-Id``, else generate.

        Validated against :data:`REQUEST_ID_PATTERN` (safe charset, at
        most 64 chars) so external correlation ids can't smuggle header
        injection or unbounded strings into traces and logs.
        """
        supplied = self.headers.get("X-Request-Id", "")
        if supplied and REQUEST_ID_PATTERN.match(supplied):
            return supplied
        return self.service.next_request_id()

    def _route(self) -> List[str]:
        """The path's segments; the name of a ``/graphs/{name}...`` route
        is refused here, before anything is parsed, built or labelled
        with it."""
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) >= 2 and parts[0] == "graphs":
            try:
                check_graph_name(parts[1])
            except ConfigError as exc:
                raise _RequestProblem(400, "bad_graph_name", str(exc))
        return parts

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        request_id = self._request_id()
        try:
            parts = self._route()
            if parts == ["healthz"]:
                self._send_json(200, self.service.healthz(), request_id)
            elif parts == ["metrics"]:
                text = to_prometheus(self.service.metrics_snapshot())
                self._send_text(200, text, request_id)
            elif parts == ["graphs"]:
                body = {"graphs": sorted(self.service.registry.names())}
                self._send_json(200, body, request_id)
            elif len(parts) == 3 and parts[0] == "graphs" and parts[2] == "stats":
                self._send_json(
                    200, self.service.stats(parts[1]), request_id
                )
            elif parts == ["debug", "health"]:
                self._send_json(
                    200, self.service.debug_health(), request_id
                )
            elif parts == ["debug", "requests"]:
                self._send_json(
                    200, self.service.debug_requests(), request_id
                )
            elif len(parts) == 3 and parts[:2] == ["debug", "requests"]:
                self._send_json(
                    200, self.service.debug_request(parts[2]), request_id
                )
            elif parts == ["debug", "timeseries"]:
                query = parse_qs(urlparse(self.path).query)
                windows: Optional[int] = None
                if "windows" in query:
                    try:
                        windows = int(query["windows"][0])
                    except ValueError:
                        raise _RequestProblem(
                            400, "bad_request",
                            "\"windows\" must be an integer",
                        )
                    if windows < 1:
                        raise _RequestProblem(
                            400, "bad_request", "\"windows\" must be at least 1"
                        )
                self._send_json(
                    200, self.service.debug_timeseries(windows), request_id
                )
            elif len(parts) >= 2 and parts[0] == "graphs" and parts[-1] in (
                QUERY_ALGORITHMS
            ):
                raise _RequestProblem(
                    405, "method_not_allowed",
                    f"use POST for /{'/'.join(parts)}",
                )
            else:
                raise _RequestProblem(
                    404, "not_found", f"no route for GET {self.path}"
                )
        except Exception as exc:  # noqa: BLE001 - single HTTP error funnel
            self._send_problem(_problem_for(exc), request_id)

    def do_POST(self) -> None:
        request_id = self._request_id()
        try:
            payload = self._read_json()
            parts = self._route()
            if len(parts) == 3 and parts[0] == "graphs" and parts[2] in (
                QUERY_ALGORITHMS
            ):
                body, headers = self.service.handle_query(
                    parts[1], parts[2], payload, request_id
                )
                self._send_json(200, body, request_id, headers)
            elif len(parts) == 2 and parts[0] == "graphs":
                spec = payload.get("spec")
                if not isinstance(spec, str) or not spec:
                    raise _RequestProblem(
                        400, "bad_request",
                        "registration payload needs a \"spec\" string",
                    )
                _, graph = parse_graph_spec(spec, max_edges=MAX_SPEC_EDGES)
                entry = self.service.register(parts[1], graph)
                self._send_json(201, entry.stats(), request_id)
            else:
                raise _RequestProblem(
                    404, "not_found", f"no route for POST {self.path}"
                )
        except Exception as exc:  # noqa: BLE001 - single HTTP error funnel
            self._send_problem(_problem_for(exc), request_id)

    # ------------------------------------------------------------------
    def _read_json(self) -> Dict:
        declared = (self.headers.get("Content-Length") or "0").strip()
        # A refused body stays unread, and an unread body cannot be
        # resynchronised on a keep-alive socket: both refusals close it.
        if not (declared.isascii() and declared.isdigit()):
            raise _RequestProblem(
                400, "bad_request",
                "Content-Length must be a non-negative integer, got "
                f"{declared[:32]!r}",
                headers={"Connection": "close"},
            )
        # Digit count first: int() itself refuses absurdly long strings.
        if len(declared) > 18 or int(declared) > MAX_BODY_BYTES:
            raise _RequestProblem(
                413, "payload_too_large",
                f"request body of {declared[:32]} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                headers={"Connection": "close"},
            )
        try:
            raw = self.rfile.read(int(declared))
        except socket.timeout:
            # Raised out of do_POST's funnel it would be a 500; the rest
            # of the body may still arrive, so the connection closes.
            self.service.count_timeout()
            raise _RequestProblem(
                408, "request_timeout",
                f"request body stopped short of its {declared} declared "
                f"bytes for {self.timeout:g}s",
                headers={"Connection": "close"},
            )
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            # RecursionError is the parser's own refusal of absurd nesting.
            raise _RequestProblem(
                400, "bad_request", f"malformed JSON body: {exc}"
            )
        if not isinstance(payload, dict):
            raise _RequestProblem(
                400, "bad_request", "JSON body must be an object"
            )
        return payload

    def _respond(
        self,
        status: int,
        content_type: str,
        data: bytes,
        request_id: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """The one responder: status line, headers and body in ONE write.

        Two writes on a keep-alive socket let Nagle hold the body until
        the peer's delayed ACK (~40 ms) fires; one buffer is one syscall
        and, for a small answer, one segment.
        """
        extras = headers or {}
        lines = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
            f"X-Request-Id: {request_id}",
            *(f"{key}: {value}" for key, value in extras.items()),
            "",
            "",
        ]
        if extras.get("Connection", "").lower() == "close":
            self.close_connection = True
        # An HTTP/0.9 request (no version on its request line) is answered
        # with the body alone, and a HEAD with the head alone.
        head = b"" if self.request_version == "HTTP/0.9" else (
            "\r\n".join(lines).encode("latin-1")
        )
        try:
            self.wfile.write(head if self.command == "HEAD" else head + data)
        except (ConnectionError, socket.timeout):
            # The client hung up, or stopped reading, mid-response.  The
            # work is already done and accounted; swallow the write
            # failure (re-raising would just stack-trace in the handler
            # thread), count it, and write nothing more to a connection
            # that holds half a response.
            self.close_connection = True
            self.service.count_disconnect(self.path, request_id)

    def _send_json(
        self,
        status: int,
        body: Dict,
        request_id: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        self._respond(status, JSON_CONTENT_TYPE, data, request_id, headers)

    def _send_text(self, status: int, text: str, request_id: str) -> None:
        self._respond(
            status, PROMETHEUS_CONTENT_TYPE, text.encode("utf-8"), request_id
        )

    def _send_problem(self, problem: _RequestProblem, request_id: str) -> None:
        graph = None
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        # A refused name labels nothing, whatever the request failed on
        # first (a malformed body is read before the route is looked at).
        if (
            len(parts) >= 2
            and parts[0] == "graphs"
            and GRAPH_NAME_PATTERN.fullmatch(parts[1])
        ):
            graph = parts[1]
        algorithm = parts[2] if len(parts) == 3 else None
        if graph is not None and algorithm in QUERY_ALGORITHMS:
            self.service.finish_request(
                RequestRecord(
                    request_id=request_id,
                    graph=graph,
                    algorithm=algorithm,
                    status=problem.status,
                    # Deadline problems carry the expired ticket's wait.
                    timing=(
                        {"queue_wait_seconds": problem.queue_wait}
                        if problem.queue_wait is not None
                        else None
                    ),
                    error={"type": problem.kind, "message": problem.message},
                )
            )
        body = {
            "error": {"type": problem.kind, "message": problem.message},
            "request_id": request_id,
        }
        self._send_json(problem.status, body, request_id, problem.headers)


class _BusyHandler(_Handler):
    """A connection past :data:`MAX_HANDLER_THREADS`, on the accept thread:
    a typed 503 through the one responder, its request left unread."""

    def handle(self) -> None:
        self.path, self.command = "", None
        self.request_version = self.protocol_version
        self.headers = self.MessageClass()
        self.service.count_busy()
        self._send_problem(
            _RequestProblem(
                503, "server_busy",
                f"all {MAX_HANDLER_THREADS} connection handlers are busy",
                headers={"Retry-After": "1", "Connection": "close"},
            ),
            self._request_id(),
        )


__all__ = ["GraphService", "JSON_CONTENT_TYPE", "QUERY_ALGORITHMS"]
