"""Resilient-serving tests: faults, recovery, breaker, deadlines, drain.

Boots real :class:`~repro.serve.app.GraphService` instances whose
registered machines carry :class:`~repro.storage.faults.FaultPlan`s, and
asserts the serving resilience contract end to end over HTTP:

* success-after-retry responses are bit-identical to fault-free runs;
* exhausted flushes surface as typed 503s (never hangs, never drops);
* the per-graph circuit breaker walks healthy → degraded → quarantined
  deterministically and quarantined requests never touch the machine;
* per-request deadlines expire as typed 504s at dequeue and post-flush;
* client disconnects mid-response are counted, not crashed on;
* ``drain_pending`` / ``shutdown()`` fulfil every queued ticket with a
  typed error even when every flush faults.

The out-of-core configuration mirrors the chaos harness: faults fire on
simulated *device* I/O, so graphs must not be served from memory
(``allow_in_memory=False``).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from dataclasses import replace

import pytest

from repro.core.config import FastBFSConfig
from repro.errors import (
    DeadlineExceededError,
    FlushFailedError,
    GraphQuarantinedError,
)
from repro.graph.generators import rmat_graph
from repro.obs.exporters import parse_prometheus
from repro.obs.hostprof import ManualHostClock
from repro.serve import AdmissionController, GraphService
from repro.serve.health import QUARANTINE_AFTER
from repro.storage.device import DeviceSpec
from repro.storage.faults import FaultPlan, FaultSpec
from repro.storage.machine import IOReport, Machine, merge_reports
from repro.tooling.chaos import serve_fault_plan
from repro.utils.units import KB, MB

from tests.test_serve import request, ticket_kwargs

GRAPH = rmat_graph(scale=8, edge_factor=8, seed=7)

#: Same shape the chaos harness serves under: tiny buffers, two disks,
#: out-of-core always (its plans allow four I/O attempts, cf. ``hostile``).
CONFIG = FastBFSConfig(
    edge_buffer_bytes=2 * KB,
    update_buffer_bytes=1 * KB,
    stay_buffer_bytes=1 * KB,
    num_partitions=4,
    allow_in_memory=False,
    rotate_streams=True,
)

CRASH_PLAN = FaultPlan(
    specs=(
        FaultSpec(kind="crash", role="vertices", probability=1.0, max_fires=1),
    ),
    seed=11,
)

BROKEN_PLAN = FaultPlan(
    specs=(FaultSpec(kind="persistent_error", probability=1.0),),
    seed=11,
)


def make_service(fault_plan=None, **kwargs):
    return GraphService(
        port=0,
        engine="fastbfs",
        config=CONFIG,
        machine_factory=lambda: Machine(
            [DeviceSpec.hdd("hdd0"), DeviceSpec.hdd("hdd1")],
            memory=2 * MB,
            cores=4,
        ),
        fault_plan=fault_plan,
        **kwargs,
    ).start()


def wait_until(predicate, attempts=2000, interval=0.005):
    gate = threading.Event()
    for _ in range(attempts):
        if predicate():
            return True
        gate.wait(interval)
    return predicate()


class TestFaultWiring:
    def test_registry_attaches_plan_after_clean_staging(self):
        svc = make_service(fault_plan=CRASH_PLAN)
        try:
            entry = svc.register("g", GRAPH)
            assert entry.fault_plan is CRASH_PLAN
            injector = entry.machine.fault_injector
            assert injector is not None
            # Staging ran before the plan was attached: nothing fired yet.
            assert injector.faults_injected == 0
            status, _, stats = request(svc, "GET", "/graphs/g/stats")
            assert status == 200
            assert stats["fault_plan"] == {"specs": 1, "seed": 11}
            assert stats["health"]["state"] == "healthy"
        finally:
            svc.shutdown()


class TestRecoveryBitIdentity:
    def test_crash_recovery_is_bit_identical_over_http(self):
        clean = make_service()
        try:
            clean.register("g", GRAPH)
            status, _, want = request(
                clean, "POST", "/graphs/g/bfs", payload={"root": 3}
            )
            assert status == 200
        finally:
            clean.shutdown()

        svc = make_service(fault_plan=CRASH_PLAN)
        try:
            entry = svc.register("g", GRAPH)
            status, _, body = request(
                svc, "POST", "/graphs/g/bfs", payload={"root": 3}
            )
            assert status == 200
            assert body["flush"]["mode"] == "batched"
            assert body["result"] == want["result"]
            injector = entry.machine.fault_injector
            assert injector.total("fault_crash") == 1
            assert injector.total("crash_recoveries") == 1
            assert entry.health.state == "healthy"
            # /metrics still reconciles exactly: the crash fired, the
            # session recovered, and the flush report is the single
            # source of device truth.
            _, _, metrics_text = request(svc, "GET", "/metrics")
            registry = parse_prometheus(metrics_text)
            merged = merge_reports(
                [entry.staged.staging_report, IOReport.from_dict(body["report"])]
            )
            assert registry.reconcile(merged) == []
            assert registry.total("fault_crash_total", graph="g") == 1.0
            assert registry.total("crash_recoveries_total", graph="g") == 1.0
        finally:
            svc.shutdown()


class TestBreakerOverHTTP:
    def test_unrecoverable_flushes_degrade_then_quarantine(self):
        clock = ManualHostClock()
        svc = make_service(fault_plan=BROKEN_PLAN, clock=clock)
        try:
            entry = svc.register("g", GRAPH)
            # Failures 1..3: typed 503 flush_failed (a one-ticket flush
            # fails on its one run), breaker marching on.
            for i, want_state in enumerate(
                ("degraded", "degraded", "quarantined")
            ):
                status, headers, body = request(
                    svc, "POST", "/graphs/g/bfs", payload={"root": 3}
                )
                assert status == 503, body
                assert body["error"]["type"] == "flush_failed"
                assert "Retry-After" in headers
                assert entry.health.state == want_state
            # Quarantined: rejected up front, machine untouched.
            counts_before = entry.machine.fault_injector.counts_snapshot()
            status, headers, body = request(
                svc, "POST", "/graphs/g/bfs", payload={"root": 3}
            )
            assert status == 503
            assert body["error"]["type"] == "graph_quarantined"
            assert float(headers["Retry-After"]) > 0
            assert entry.machine.fault_injector.counts_snapshot() == counts_before
            # Readiness surfaces per graph without touching the machine.
            status, _, health = request(svc, "GET", "/healthz")
            assert health["graphs"]["g"] == {
                "state": "quarantined", "ready": False,
            }
            # Cooldown elapses on the host clock -> probation half-open.
            clock.advance(entry.health.reopen_at - clock.now())
            status, _, body = request(
                svc, "POST", "/graphs/g/bfs", payload={"root": 3}
            )
            assert status == 503
            assert body["error"]["type"] == "flush_failed"
            assert entry.health.state == "quarantined"  # probe failed
            # The transition log is exact and typed.
            status, _, debug = request(svc, "GET", "/debug/health")
            walked = [
                (t["from"], t["to"]) for t in debug["graphs"]["g"]["transitions"]
            ]
            assert walked == [
                ("healthy", "degraded"),
                ("degraded", "quarantined"),
                ("quarantined", "probing"),
                ("probing", "quarantined"),
            ]
            registry = svc.metrics_snapshot()
            assert registry.total("breaker_state", graph="g") == 3.0
            assert registry.total("breaker_transitions_total", graph="g") == 4.0
        finally:
            svc.shutdown()


class TestFlushLadder:
    """Each fault schedule runs once: a rewind also rewinds the injector,
    so a failed run is final at any width."""

    @pytest.mark.parametrize("width", [1, 2, 16])
    def test_failed_flush_makes_one_run(self, width):
        svc = make_service(fault_plan=BROKEN_PLAN)
        try:
            entry = svc.register("g", GRAPH)
            controller = entry.admission
            cooldown = entry.health.cooldown_seconds()
            tickets = [controller.offer(f"t{i}", 3 + i) for i in range(width)]
            record = controller.flush()
            assert record.tickets == tickets and record.report is None
            for ticket in tickets:
                assert ticket.done
                assert isinstance(ticket.error, FlushFailedError)
                assert "batched run (PersistentIOError)" in str(ticket.error)
                assert ticket.error.retry_after == cooldown
            injector = entry.machine.fault_injector
            assert injector.total("fault_persistent_error") == 1
            assert controller.counters()["flush_retries"] == 0
            assert entry.health.failures_total == 1
            assert entry.health.state == "degraded"
            registry = svc.metrics_snapshot()
            assert registry.total("serve_flush_failed_total", graph="g") == width
        finally:
            svc.shutdown()


class TestSerialEndpointFaultAccounting:
    """Check (4) of ``chaos._reconcile_serve`` (every injector count was
    sampled into exactly one metrics delta) holds for the serial
    endpoints too, including when the query fails."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_failed_sssp_faults_reach_metrics(self, seed):
        svc = make_service(
            fault_plan=replace(serve_fault_plan("hostile", seed), max_attempts=4)
        )
        try:
            entry = svc.register("g", GRAPH)
            statuses = [
                request(svc, "POST", "/graphs/g/sssp", payload={"root": 3})[0]
                for _ in range(5)
            ]
            assert statuses == [503] * 5
            counts = entry.machine.fault_injector.counts_snapshot()
            assert sum(counts.values()) == 3  # then the breaker opened
            registry = parse_prometheus(request(svc, "GET", "/metrics")[2])
            for (cname, device), count in sorted(counts.items()):
                labels = {} if device == "-" else {"device": device}
                got = registry.total(f"{cname}_total", graph="g", **labels)
                assert got == float(count), (cname, device)
        finally:
            svc.shutdown()


#: One request per algorithm, for the cases that must not care which.
PAYLOADS = {
    "bfs": {"root": 3},
    "sssp": {"root": 3, "max_weight": 4},
    "pagerank": {"rounds": 2},
}
SERIAL = ["sssp", "pagerank"]


class TestDeadlines:
    @staticmethod
    def bad_deadline_payloads(algorithm):
        svc = make_service()
        try:
            svc.register("g", GRAPH)
            for bad in (-5, 0, "fast", True):
                status, _, body = request(
                    svc, "POST", f"/graphs/g/{algorithm}",
                    payload={**PAYLOADS[algorithm], "deadline_ms": bad},
                )
                assert status == 400
                assert body["error"]["type"] == "bad_request"
        finally:
            svc.shutdown()

    @staticmethod
    def queue_expiry(algorithm):
        clock = ManualHostClock()
        svc = make_service(clock=clock)
        try:
            entry = svc.register("g", GRAPH)
            controller = entry.admission
            controller.hold()
            outcomes = {}

            def fire(i):
                outcomes[i] = request(
                    svc, "POST", f"/graphs/g/{algorithm}",
                    payload={**PAYLOADS[algorithm], "deadline_ms": 50.0},
                )

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(3)
            ]
            for t in threads:
                t.start()
            assert wait_until(lambda: controller.depth == 3)
            clock.advance(0.2)
            controller.release()
            for t in threads:
                t.join()
            for status, headers, body in outcomes.values():
                assert status == 504
                assert body["error"]["type"] == "deadline_exceeded"
                # the 504 carries the wait that ate the budget
                assert "queue wait 200.0ms" in body["error"]["message"]
                _, _, record = request(
                    svc, "GET", f"/debug/requests/{body['request_id']}"
                )
                assert record["queue_wait_seconds"] == pytest.approx(0.2)
            assert controller.counters()["deadline_expired"] == 3
            assert controller.depth == 0
            registry = svc.metrics_snapshot()
            assert registry.total("deadline_exceeded_total", graph="g") == 3.0
        finally:
            svc.shutdown()

    @staticmethod
    def default_deadline(algorithm):
        clock = ManualHostClock()
        svc = make_service(clock=clock, default_deadline_ms=50.0)
        try:
            entry = svc.register("g", GRAPH)
            controller = entry.admission
            controller.hold()
            out = {}
            t = threading.Thread(
                target=lambda: out.update(
                    r=request(
                        svc, "POST", f"/graphs/g/{algorithm}",
                        payload=PAYLOADS[algorithm],
                    )
                )
            )
            t.start()
            assert wait_until(lambda: controller.depth == 1)
            clock.advance(0.2)
            controller.release()
            t.join()
            status, _, body = out["r"]
            assert status == 504
            assert body["error"]["type"] == "deadline_exceeded"
        finally:
            svc.shutdown()

    @staticmethod
    def post_flush_expiry(algorithm):
        clock = ManualHostClock()
        svc = make_service(clock=clock)
        try:
            entry = svc.register("g", GRAPH)
            controller = AdmissionController(
                entry,
                clock=clock,
                metrics_sink=lambda registry: clock.advance(10.0),
            )
            ticket = controller.offer(
                "late", 3, deadline_ms=1000.0,
                **ticket_kwargs(entry, algorithm),
            )
            controller.flush()
            assert ticket.done
            assert isinstance(ticket.error, DeadlineExceededError)
            assert "post-flush" in str(ticket.error)
            assert controller.counters()["deadline_expired"] == 1
        finally:
            svc.shutdown()

    def test_bad_deadline_payloads_are_rejected(self):
        self.bad_deadline_payloads("bfs")

    def test_queue_expiry_is_a_typed_504(self):
        self.queue_expiry("bfs")

    def test_default_deadline_applies_server_wide(self):
        self.default_deadline("bfs")

    def test_post_flush_expiry_never_drops_the_ticket(self):
        self.post_flush_expiry("bfs")

    @pytest.mark.parametrize("algorithm", SERIAL)
    @pytest.mark.parametrize("case", [
        "bad_deadline_payloads", "queue_expiry", "default_deadline",
        "post_flush_expiry",
    ])
    def test_serial_algorithms_keep_the_deadline_contract(
        self, case, algorithm
    ):
        getattr(self, case)(algorithm)

    @pytest.mark.parametrize("algorithm", SERIAL)
    def test_served_serial_ticket_reports_its_queue_wait(self, algorithm):
        clock = ManualHostClock()
        svc = make_service(clock=clock)
        try:
            entry = svc.register("g", GRAPH)
            controller = entry.admission
            controller.hold()
            out = {}
            t = threading.Thread(
                target=lambda: out.update(
                    r=request(
                        svc, "POST", f"/graphs/g/{algorithm}",
                        payload=PAYLOADS[algorithm],
                    )
                )
            )
            t.start()
            assert wait_until(lambda: controller.depth == 1)
            clock.advance(5.0)
            controller.release()
            t.join()
            status, headers, body = out["r"]
            assert status == 200
            assert headers["X-Queue-Wait-Seconds"] == "5.000000"
            assert body["timing"]["queue_wait_seconds"] == 5.0
            assert headers["X-Flush-Id"] == body["flush"]["id"]
            assert headers["X-Flush-Size"] == "1"
        finally:
            svc.shutdown()


class TestClientDisconnect:
    def test_mid_response_reset_is_counted_not_crashed_on(self):
        svc = make_service()
        try:
            svc.register("g", GRAPH)
            payload = json.dumps({"root": 3}).encode("utf-8")
            raw = (
                b"POST /graphs/g/bfs HTTP/1.1\r\n"
                b"Host: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode("utf-8")
                + payload
            )
            sock = socket.create_connection(("127.0.0.1", svc.port))
            try:
                sock.sendall(raw)
                # RST on close: the handler's response write fails with
                # BrokenPipeError/ConnectionResetError mid-send.
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
            finally:
                sock.close()
            assert wait_until(
                lambda: svc.metrics_snapshot().total("client_disconnect_total")
                >= 1.0
            ), "disconnect was never counted"
            # The service is still fully alive afterwards.
            status, _, body = request(
                svc, "POST", "/graphs/g/bfs", payload={"root": 3}
            )
            assert status == 200
        finally:
            svc.shutdown()


class TestDrainUnderFaults:
    @staticmethod
    def drain_pending_types_every_ticket(algorithm):
        svc = make_service(fault_plan=BROKEN_PLAN)
        # Keep the breaker out of the way: this test pins down drain
        # semantics, not quarantine (covered above).  A serial algorithm
        # flushes each ticket alone, so the drain and the submit after it
        # are QUARANTINE_AFTER failed flushes and the breaker opens only
        # on the last.
        n = QUARANTINE_AFTER - 1
        try:
            entry = svc.register("g", GRAPH)
            controller = entry.admission
            kwargs = ticket_kwargs(entry, algorithm)
            controller.hold()
            tickets = [
                controller.offer(f"drain-{i}", 3, **kwargs) for i in range(n)
            ]
            assert controller.depth == n
            controller.release()
            assert controller.drain_pending() == n
            assert controller.depth == 0
            for ticket in tickets:
                assert ticket.done
                assert isinstance(ticket.error, FlushFailedError)
            with pytest.raises(FlushFailedError):
                controller.submit("one-more", 3, **kwargs)
        finally:
            svc.shutdown()  # must not hang

    @staticmethod
    def quarantined_offer_is_rejected(algorithm):
        svc = make_service(fault_plan=BROKEN_PLAN)
        try:
            entry = svc.register("g", GRAPH)
            kwargs = ticket_kwargs(entry, algorithm)
            for _ in range(QUARANTINE_AFTER):
                with pytest.raises(FlushFailedError):
                    entry.admission.submit("x", 3, **kwargs)
            assert entry.health.state == "quarantined"
            with pytest.raises(GraphQuarantinedError) as exc:
                entry.admission.offer("y", 3, **kwargs)
            assert exc.value.retry_after > 0
            assert entry.admission.depth == 0
        finally:
            svc.shutdown()

    def test_drain_pending_types_every_ticket_and_empties_the_queue(self):
        self.drain_pending_types_every_ticket("bfs")

    def test_quarantined_offer_is_rejected_before_the_queue(self):
        self.quarantined_offer_is_rejected("bfs")

    @pytest.mark.parametrize("algorithm", SERIAL)
    @pytest.mark.parametrize("case", [
        "drain_pending_types_every_ticket", "quarantined_offer_is_rejected",
    ])
    def test_serial_algorithms_drain_and_quarantine_alike(
        self, case, algorithm
    ):
        getattr(self, case)(algorithm)

    @pytest.mark.parametrize("algorithm", sorted(PAYLOADS))
    def test_ticket_queued_when_the_breaker_opens(self, algorithm):
        """Quarantine at dequeue: the ticket fails typed and the machine is
        never touched (on this plan any run would move the injector)."""
        svc = make_service(fault_plan=BROKEN_PLAN)
        try:
            entry = svc.register("g", GRAPH)
            controller = entry.admission
            ticket = controller.offer(
                "queued", 3, **ticket_kwargs(entry, algorithm)
            )
            for _ in range(QUARANTINE_AFTER):
                entry.health.record_flush_failure("elsewhere")
            assert entry.health.state == "quarantined"
            injector = entry.machine.fault_injector
            counts_before = injector.counts_snapshot()
            record = controller.flush()
            assert record.tickets == [ticket] and ticket.done
            assert isinstance(ticket.error, GraphQuarantinedError)
            assert ticket.error.retry_after > 0
            assert injector.counts_snapshot() == counts_before
            assert ticket.result is None and controller.depth == 0
            registry = svc.metrics_snapshot()
            assert registry.total(
                "serve_quarantine_rejections_total", graph="g"
            ) == 1.0
        finally:
            svc.shutdown()

    def test_quarantined_sssp_over_http_never_touches_the_machine(self):
        """The same, end to end: a request that passed ``admit()`` before
        the breaker opened is answered ``503 graph_quarantined``."""
        svc = make_service(fault_plan=BROKEN_PLAN)
        try:
            entry = svc.register("g", GRAPH)
            controller = entry.admission
            controller.hold()
            out = {}
            t = threading.Thread(
                target=lambda: out.update(
                    r=request(
                        svc, "POST", "/graphs/g/sssp", payload={"root": 3}
                    )
                )
            )
            t.start()
            assert wait_until(lambda: controller.depth == 1)
            for _ in range(QUARANTINE_AFTER):
                entry.health.record_flush_failure("elsewhere")
            counts_before = entry.machine.fault_injector.counts_snapshot()
            controller.release()
            t.join()
            status, headers, body = out["r"]
            assert status == 503
            assert body["error"]["type"] == "graph_quarantined"
            assert float(headers["Retry-After"]) > 0
            assert (
                entry.machine.fault_injector.counts_snapshot() == counts_before
            )
        finally:
            svc.shutdown()
