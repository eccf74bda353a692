"""Wire-contract tests for the served path (``repro.serve.app._Handler``).

What a client sees below the JSON: every response leaves the server in
ONE write (head + body, so a keep-alive client never waits out a delayed
ACK), accepted sockets carry ``TCP_NODELAY``, the head is byte-for-byte
the one the service has always sent, responses on a keep-alive connection
are framed exactly by ``Content-Length`` and answered in order, and the
refusals that leave a request body unread (or that the stdlib makes
before any ``do_*`` runs) close the connection with a typed JSON problem.

Two drivers: :class:`RecordingSocket` runs the handler synchronously on a
fake accepted socket and records each ``sendall`` (the syscall boundary);
:class:`RawConnection` talks to the real server over one raw socket.
"""

from __future__ import annotations

import io
import json
import socket
import struct
import sys
import threading
from email.utils import parsedate_to_datetime
from http import HTTPStatus
from types import SimpleNamespace

import pytest

from repro.graph.generators import rmat_graph
from repro.serve import GraphService
from repro.serve.app import _Handler

from tests.test_serve import TINY_SPEC
from tests.test_serve_faults import wait_until

TINY = rmat_graph(scale=8, edge_factor=8, seed=7)
TOO_MANY_HEADERS = b"".join(b"X-Pad-%d: 1\r\n" % i for i in range(150))


def http_request(method, path, body=b"", request_id=None, headers=b""):
    """One HTTP/1.1 request as the bytes a client puts on the wire."""
    lines = [f"{method} {path} HTTP/1.1\r\nHost: t\r\n".encode("ascii"), headers]
    if request_id is not None:
        lines.append(f"X-Request-Id: {request_id}\r\n".encode("ascii"))
    if body:
        lines.append(b"Content-Length: %d\r\n" % len(body))
    return b"".join(lines) + b"\r\n" + body


def split_response(raw):
    """``(status line, [(name, value), ...], body)`` of one raw response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = [tuple(line.split(": ", 1)) for line in header_lines]
    return status_line, headers, body


class RecordingSocket:
    """An accepted socket as the handler sees it: serves ``request`` to the
    handler's reader and records every ``sendall`` its writer makes."""

    def __init__(self, request):
        self._request = request
        self.writes = []

    def makefile(self, mode, bufsize=None):
        return io.BytesIO(self._request)

    def sendall(self, data):
        self.writes.append(bytes(data))

    def setsockopt(self, *args):
        pass

    def settimeout(self, timeout):
        pass


@pytest.fixture(scope="module")
def offline():
    """A service that is never bound: requests reach it through
    :func:`writes_for`.  Capacity 1 so one held ticket fills the queue."""
    svc = GraphService(capacity=1)
    svc.register("tiny", TINY)
    return svc


def writes_for(svc, raw):
    """Run the handler over ``raw`` on this thread; the writes it made."""
    sock = RecordingSocket(raw)
    _Handler(sock, ("127.0.0.1", 0), SimpleNamespace(service=svc))
    return sock.writes


class TestOneWritePerResponse:
    def assert_one_whole_response(self, writes, status):
        assert len(writes) == 1, [w[:60] for w in writes]
        status_line, headers, body = split_response(writes[0])
        assert status_line.startswith(f"HTTP/1.1 {status} ")
        assert len(body) == int(dict(headers)["Content-Length"]) > 0
        return dict(headers), body

    def test_bfs_200(self, offline):
        writes = writes_for(
            offline, http_request("POST", "/graphs/tiny/bfs", b'{"root": 3}')
        )
        _, body = self.assert_one_whole_response(writes, 200)
        assert json.loads(body)["result"]["levels"][3] == 0

    def test_text_metrics_200(self, offline):
        writes = writes_for(offline, http_request("GET", "/metrics"))
        headers, body = self.assert_one_whole_response(writes, 200)
        assert headers["Content-Type"].startswith("text/plain")
        assert b"# TYPE " in body

    def test_typed_problem_with_extras(self, offline):
        controller = offline.registry.get("tiny").admission
        controller.hold()
        try:
            controller.offer("held", 3)  # the queue (capacity 1) is now full
            writes = writes_for(
                offline,
                http_request("POST", "/graphs/tiny/bfs", b'{"root": 4}'),
            )
        finally:
            controller.release()
            controller.drain_pending()
        headers, body = self.assert_one_whole_response(writes, 429)
        assert headers["Retry-After"] == "1"
        assert json.loads(body)["error"]["type"] == "queue_full"

    def test_413(self, offline):
        writes = writes_for(
            offline,
            http_request("POST", "/graphs/tiny/bfs",
                         headers=b"Content-Length: 99999999999\r\n"),
        )
        headers, body = self.assert_one_whole_response(writes, 413)
        assert headers["Connection"] == "close"
        assert json.loads(body)["error"]["type"] == "payload_too_large"

    def test_send_error_501(self, offline):
        writes = writes_for(offline, http_request("PUT", "/graphs/tiny"))
        headers, body = self.assert_one_whole_response(writes, 501)
        assert headers["Connection"] == "close"
        assert json.loads(body)["error"]["type"] == "method_not_implemented"

    def test_every_request_of_a_connection_gets_its_own_write(self, offline):
        raw = (
            http_request("GET", "/healthz", request_id="a")
            + http_request("GET", "/nope", request_id="b")
            + http_request("GET", "/graphs", request_id="c")
        )
        writes = writes_for(offline, raw)
        assert [dict(split_response(w)[1])["X-Request-Id"] for w in writes] == [
            "a", "b", "c"
        ]


class TestGoldenHead:
    """Header names, order and values are the ones the service sent when
    headers and body were two writes; only ``Date`` is free."""

    SERVER = "BaseHTTP/0.6 Python/" + sys.version.split()[0]

    def test_bfs_200(self):
        svc = GraphService()  # fresh: the flush id below is its first
        svc.register("tiny", TINY)
        (raw,) = writes_for(
            svc,
            http_request("POST", "/graphs/tiny/bfs", b'{"root": 3}', "golden-1"),
        )
        status_line, headers, body = split_response(raw)
        doc = json.loads(body)
        timing = doc["timing"]
        assert status_line == "HTTP/1.1 200 OK"
        date = dict(headers)["Date"]
        assert parsedate_to_datetime(date).tzinfo is not None
        assert headers == [
            ("Server", self.SERVER),
            ("Date", date),
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(body))),
            ("X-Request-Id", "golden-1"),
            ("X-Queue-Wait-Seconds", f"{timing['queue_wait_seconds']:.6f}"),
            ("X-Sim-Execution-Seconds", f"{timing['sim_execution_seconds']:.9f}"),
            ("X-Sim-Compute-Seconds", f"{timing['sim_compute_seconds']:.9f}"),
            ("X-Sim-Iowait-Seconds", f"{timing['sim_iowait_seconds']:.9f}"),
            ("X-Flush-Id", "tiny-flush-000001"),
            ("X-Flush-Size", "1"),
        ]
        assert body == json.dumps(doc).encode("utf-8")

    def test_413(self, offline):
        (raw,) = writes_for(
            offline,
            http_request("POST", "/graphs/tiny/bfs", request_id="golden-2",
                         headers=b"Content-Length: 99999999999\r\n"),
        )
        status_line, headers, body = split_response(raw)
        assert status_line == f"HTTP/1.1 413 {HTTPStatus(413).phrase}"
        assert headers == [
            ("Server", self.SERVER),
            ("Date", dict(headers)["Date"]),
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(body))),
            ("X-Request-Id", "golden-2"),
            ("Connection", "close"),
        ]
        assert body == json.dumps({
            "error": {
                "type": "payload_too_large",
                "message": "request body of 99999999999 bytes exceeds the "
                           "1048576-byte limit",
            },
            "request_id": "golden-2",
        }).encode("utf-8")

    def test_head_request_gets_the_head_alone(self, offline):
        (raw,) = writes_for(offline, http_request("HEAD", "/healthz"))
        status_line, headers, body = split_response(raw)
        assert status_line == "HTTP/1.1 501 Not Implemented"
        assert int(dict(headers)["Content-Length"]) > 0 and body == b""

    def test_http09_request_gets_the_body_alone(self, offline):
        (raw,) = writes_for(offline, b"GET /healthz\r\n\r\n")
        assert json.loads(raw)["status"] == "ok"


# ----------------------------------------------------------------------
# over a real socket
# ----------------------------------------------------------------------


class RawConnection:
    """One raw client socket; reads responses framed by Content-Length."""

    def __init__(self, service):
        self.sock = socket.create_connection(
            ("127.0.0.1", service.port), timeout=30
        )
        self.buffer = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()

    def send(self, data):
        self.sock.sendall(data)

    def _fill(self):
        chunk = self.sock.recv(65536)
        assert chunk, "server closed the connection mid-response"
        self.buffer += chunk

    def read_response(self):
        """``(status, headers dict, body bytes)`` of the next response."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        status_line, headers, rest = split_response(self.buffer)
        headers = dict(headers)
        length = int(headers["Content-Length"])
        while len(rest) < length:
            self._fill()
            rest = split_response(self.buffer)[2]
        self.buffer = rest[length:]
        return int(status_line.split(" ", 2)[1]), headers, rest[:length]

    def closed_by_server(self):
        """True when nothing but the end of the connection follows what
        was already read."""
        try:
            return self.buffer == b"" and self.sock.recv(65536) == b""
        except ConnectionResetError:  # closed with request bytes unread
            return True

    def idle(self):
        """True when the server has sent nothing beyond what was read and
        keeps the connection open."""
        self.sock.settimeout(0.05)
        try:
            self.sock.recv(65536)  # data or EOF: not idle
            return False
        except socket.timeout:
            return self.buffer == b""
        finally:
            self.sock.settimeout(30)


@pytest.fixture(scope="module")
def service():
    svc = GraphService(port=0, warmup=(TINY_SPEC,)).start()
    yield svc
    svc.shutdown()


class TestKeepAlive:
    def test_mixed_sequence_on_one_socket(self, service):
        bfs = ("POST", "/graphs/tiny/bfs", b'{"root": 3}')
        steps = [
            (bfs, 200),
            (("GET", "/nope", b""), 404),
            (("POST", "/graphs/tiny/bfs", b"{not json"), 400),
            (("POST", "/graphs/tiny/bfs", b'{"root": "x"}'), 400),
            (("GET", "/metrics", b""), 200),
            (("GET", "/healthz", b""), 200),
            (bfs, 200),
        ]
        with RawConnection(service) as conn:
            for i, (request, expected) in enumerate(steps):
                conn.send(http_request(*request, request_id=f"ka-{i}"))
                status, headers, body = conn.read_response()
                assert status == expected, (i, body[:200])
                assert headers["X-Request-Id"] == f"ka-{i}"
                # exactly Content-Length bytes and not one more: the next
                # response's status line parses where this body ended
                assert conn.buffer == b""
                if headers["Content-Type"] == "application/json":
                    doc = json.loads(body)
                    if "request_id" in doc:
                        assert doc["request_id"] == f"ka-{i}"
                    if status == 400:
                        assert doc["error"]["type"] in ("bad_request", "bad_root")

            # two requests pipelined in one segment: answered in order
            conn.send(
                http_request(*bfs, request_id="pipe-0")
                + http_request("POST", "/graphs/tiny/bfs", b'{"root": 5}',
                               request_id="pipe-1")
            )
            for i, root in enumerate((3, 5)):
                status, headers, body = conn.read_response()
                assert status == 200
                assert headers["X-Request-Id"] == f"pipe-{i}"
                assert json.loads(body)["root"] == root
            assert conn.idle()

    @pytest.mark.parametrize("refused,status,kind", [
        (http_request("POST", "/graphs/tiny/bfs",
                      headers=b"Content-Length: 99999999999\r\n"),
         413, "payload_too_large"),
        (http_request("POST", "/graphs/tiny/bfs",
                      headers=b"Content-Length: abc\r\n"),
         400, "bad_request"),
        (http_request("PUT", "/graphs/tiny"), 501, "method_not_implemented"),
        (http_request("GET", "/healthz", headers=TOO_MANY_HEADERS),
         431, "headers_too_large"),
        (b"GET /healthz extra HTTP/1.1\r\n\r\n", 400, "bad_request"),
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414, "uri_too_long"),
    ], ids=["413", "bad-content-length", "501", "431", "400-request-line", "414"])
    def test_refusals_that_close_the_connection(
        self, service, refused, status, kind
    ):
        with RawConnection(service) as conn:
            conn.send(http_request("GET", "/healthz", request_id="before"))
            assert conn.read_response()[0] == 200
            conn.send(refused)
            got, headers, body = conn.read_response()
            assert got == status
            assert headers["Content-Type"] == "application/json"
            assert headers["Connection"] == "close"
            doc = json.loads(body)
            assert set(doc) == {"error", "request_id"}
            assert set(doc["error"]) == {"type", "message"}
            assert doc["error"]["type"] == kind
            # the refused request's own id, never the previous request's
            assert doc["request_id"] == headers["X-Request-Id"] != "before"
            assert conn.closed_by_server()

    def test_send_error_honors_a_parsed_request_id(self, service):
        with RawConnection(service) as conn:
            conn.send(http_request("PUT", "/graphs/tiny", request_id="mine"))
            status, headers, body = conn.read_response()
            assert status == 501
            assert headers["X-Request-Id"] == "mine"
            assert json.loads(body)["request_id"] == "mine"


class TestSilentPeers:
    """A peer that stops sending is given up after ``_Handler.timeout``
    seconds of silence: counted, its handler thread ended, and answered
    only when there is a request to answer."""

    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.2)

    @staticmethod
    def timeouts(service):
        return service.metrics_snapshot().total("client_timeout_total")

    @pytest.mark.parametrize("sent", [
        b"",
        b"POST /graphs/tiny/bfs HTT",
        b"POST /graphs/tiny/bfs HTTP/1.1\r\nHost: t\r\n",
    ], ids=["nothing", "half-a-request-line", "unfinished-headers"])
    def test_silence_before_a_request_closes_without_a_response(
        self, service, sent
    ):
        before = self.timeouts(service)
        threads_before = threading.active_count()
        with RawConnection(service) as conn:
            conn.send(sent)
            assert conn.closed_by_server()
        assert wait_until(lambda: self.timeouts(service) == before + 1)
        assert wait_until(lambda: threading.active_count() <= threads_before)

    def test_body_short_of_its_content_length_is_a_typed_408(self, service):
        before = self.timeouts(service)
        threads_before = threading.active_count()
        with RawConnection(service) as conn:
            conn.send(
                b"POST /graphs/tiny/bfs HTTP/1.1\r\nHost: t\r\n"
                b"X-Request-Id: short-1\r\nContent-Length: 1000\r\n\r\n"
                b'{"root": 3'
            )
            status, headers, body = conn.read_response()
            assert status == 408
            assert headers["Connection"] == "close"
            assert headers["X-Request-Id"] == "short-1"
            assert json.loads(body) == {
                "error": {
                    "type": "request_timeout",
                    "message": "request body stopped short of its 1000 "
                               "declared bytes for 0.2s",
                },
                "request_id": "short-1",
            }
            assert conn.closed_by_server()
        assert self.timeouts(service) == before + 1
        assert wait_until(lambda: threading.active_count() <= threads_before)
        requests = service.metrics_snapshot().total(
            "serve_requests_total", graph="tiny", status=408
        )
        assert requests >= 1.0  # a query request like any other refused one

    def test_idle_keep_alive_connection_is_given_up_too(self, service):
        with RawConnection(service) as conn:
            conn.send(http_request("GET", "/healthz"))
            assert conn.read_response()[0] == 200
            assert conn.closed_by_server()  # after the timeout, not before

    def test_peer_that_stops_reading_is_counted_not_crashed_on(
        self, offline, capsys
    ):
        class StalledSocket(RecordingSocket):
            def sendall(self, data):
                # not TimeoutError: a separate class until Python 3.10
                raise socket.timeout("timed out")

        before = offline.metrics_snapshot().total("client_disconnect_total")
        sock = StalledSocket(
            http_request("GET", "/healthz") + http_request("GET", "/graphs")
        )
        _Handler(sock, ("127.0.0.1", 0), SimpleNamespace(service=offline))
        # one failed write, and the pipelined second request is not served
        after = offline.metrics_snapshot().total("client_disconnect_total")
        assert after == before + 1
        assert "Traceback" not in capsys.readouterr().err


class TestSockets:
    def test_accepted_connection_has_tcp_nodelay(self, service, monkeypatch):
        seen = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        with RawConnection(service) as conn:
            conn.send(http_request("GET", "/healthz"))
            assert conn.read_response()[0] == 200
        assert seen and all(seen)

    def test_reset_before_a_large_answer_is_counted_without_traceback(
        self, capsys
    ):
        svc = GraphService(
            port=0, warmup=("big@rmat:scale=13,edge_factor=8,seed=7",)
        ).start()
        threads_before = threading.active_count()
        try:
            request = http_request("POST", "/graphs/big/bfs", b'{"root": 3}')
            with RawConnection(svc) as conn:
                conn.send(request)
                assert len(conn.read_response()[2]) > 100_000
            sock = socket.create_connection(("127.0.0.1", svc.port))
            try:
                sock.sendall(request)
                # RST on close: the one response write fails part-way.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            finally:
                sock.close()
            assert wait_until(
                lambda: svc.metrics_snapshot().total("client_disconnect_total")
                >= 1.0
            ), "disconnect was never counted"
            assert wait_until(
                lambda: threading.active_count() <= threads_before
            ), "a handler thread never ended"
            with RawConnection(svc) as conn:  # still fully alive
                conn.send(request)
                assert conn.read_response()[0] == 200
        finally:
            svc.shutdown()
        assert "Traceback" not in capsys.readouterr().err
