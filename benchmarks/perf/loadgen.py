"""Closed-loop HTTP load generator over raw keep-alive sockets.

Each connection sends its next request only after the previous answer has
arrived (callers of this API wait for their answer).  To keep the client
out of the numbers it reports:

* a request leaves in one ``sendall`` (headers and body in one segment) on a
  socket with ``TCP_NODELAY``;
* latency is stamped from just before the send to the last body byte;
* response bodies are kept as bytes and decoded after the timed phase;
* between blocks of requests, while its connection is idle, connection 0
  times the host-speed probe (see hostspeed.py).

What the client still costs is measured, not assumed: ``client.floor_ms``
is the same loop against :func:`echo_server`'s handler, which does no work.
"""

from __future__ import annotations

import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence

from hostspeed import Block, speed_probe


class Sample(NamedTuple):
    op_id: str
    root: int
    start: float          # time.perf_counter()
    end: float
    status: int           # 0 when the request raised before a status arrived
    body: bytes
    block: int            # index of the Block the request completed in

    @property
    def latency(self) -> float:
        return self.end - self.start


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = f"{host}:{port}".encode("ascii")
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def close(self) -> None:
        self.sock.close()

    def post(self, path: str, body: bytes, request_id: str):
        """POST ``body``; returns ``(start, end, status, response body)``."""
        request = b"".join((
            b"POST ", path.encode("ascii"), b" HTTP/1.1\r\nHost: ", self.host,
            b"\r\nContent-Type: application/json\r\nContent-Length: ",
            str(len(body)).encode("ascii"),
            b"\r\nX-Request-Id: ", request_id.encode("ascii"), b"\r\n\r\n", body,
        ))
        start = time.perf_counter()
        self.sock.sendall(request)
        head = self._read_until(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        payload = self._read_exactly(length)
        end = time.perf_counter()
        return start, end, status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        self._buffer += chunk

    def _read_until(self, marker: bytes) -> bytes:
        while True:
            at = self._buffer.find(marker)
            if at >= 0:
                head = bytes(self._buffer[:at])
                del self._buffer[: at + len(marker)]
                return head
            self._fill()

    def _read_exactly(self, count: int) -> bytes:
        while len(self._buffer) < count:
            self._fill()
        payload = bytes(self._buffer[:count])
        del self._buffer[:count]
        return payload


def closed_loop(
    port: int,
    path: str,
    root_sequences: Sequence[Iterator[int]],
    seconds: float,
    id_prefix: str,
    max_ops: Optional[int] = None,
    cpu_mark: Optional[Callable[[], float]] = None,
    block_seconds: float = 0.5,
    host: str = "127.0.0.1",
):
    """Drive one connection per root sequence until ``seconds`` elapse.

    Every connection stops at the first request boundary past the deadline,
    or after ``max_ops`` requests each (warm-up; no blocks are kept then).
    Returns ``(samples, blocks)``.

    With ``cpu_mark`` (the server's CPU clock) the phase is cut into blocks
    of ``block_seconds``: at each boundary every connection parks once its
    request in flight is answered, and with the server idle one thread
    closes the :class:`Block` (requests completed, server CPU used, the
    host-speed probe) before all go on.  The probe has to see an idle
    system: timed next to a busy server it reads that server's own load on
    the shared cores, not the host's speed.
    """
    keeps_blocks = cpu_mark is not None and max_ops is None
    connections = [Connection(host, port) for _ in root_sequences]
    done = [0] * len(connections)     # each thread writes only its own slot
    samples: List[List[Sample]] = [[] for _ in connections]
    blocks: List[Block] = []
    begin = time.perf_counter()
    deadline = begin + seconds
    edges = [begin + block_seconds * k for k in range(1, int(seconds / block_seconds))]
    edges.append(deadline)
    open_block = {}

    def start_block() -> None:
        open_block.update(done=sum(done), cpu=cpu_mark(), probe=speed_probe(),
                          start=time.perf_counter())

    def close_block() -> None:
        end, total = time.perf_counter(), sum(done)
        cpu, probe = cpu_mark(), speed_probe()
        if total > open_block["done"]:
            blocks.append(Block(
                end - open_block["start"], total - open_block["done"],
                cpu - open_block["cpu"], (open_block["probe"] + probe) / 2.0,
            ))
        open_block.update(done=total, cpu=cpu, probe=probe, start=time.perf_counter())

    barrier = threading.Barrier(len(connections), action=close_block)

    def drive(index: int) -> None:
        conn, roots, mine = connections[index], root_sequences[index], samples[index]
        count, edge = 0, 0
        try:
            while max_ops is None or count < max_ops:
                now = time.perf_counter()
                if keeps_blocks and now >= edges[edge]:
                    barrier.wait()
                    edge += 1
                    if edge == len(edges):
                        return
                    continue
                if not keeps_blocks and now >= deadline:
                    return
                root = next(roots)
                op_id = f"{id_prefix}-c{index}-{count}"
                start, end, status, payload = conn.post(path, b'{"root": %d}' % root, op_id)
                mine.append(Sample(op_id, root, start, end, status, payload, len(blocks)))
                count += 1
                if status == 200:
                    done[index] += 1
        except threading.BrokenBarrierError:
            return          # another connection failed; its sample says why
        except (OSError, ValueError, IndexError):
            # The connection is in an unknown state: record the failure and
            # release the others rather than leave them parked.
            now = time.perf_counter()
            mine.append(Sample(f"{id_prefix}-c{index}-{count}", -1, now, now, 0, b"", len(blocks)))
            barrier.abort()

    if keeps_blocks:
        start_block()
    threads = [
        threading.Thread(target=drive, args=(i,), name=f"loadgen-{i}")
        for i in range(1, len(connections))
    ]
    try:
        for thread in threads:
            thread.start()
        drive(0)
    finally:
        for thread in threads:
            thread.join()
        for conn in connections:
            conn.close()
    return [s for per_conn in samples for s in per_conn], blocks


# ----------------------------------------------------------------------
# the client's floor
# ----------------------------------------------------------------------
def echo_server(response_bytes: int) -> ThreadingHTTPServer:
    """A stdlib server whose POST handler does nothing but answer.

    Same server machinery as the service (``ThreadingHTTPServer``, one
    thread per connection) and an answer of ``response_bytes``, sent as
    one write; what a request costs here is the load generator's floor.
    """
    payload = b"x" * response_bytes
    head = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(payload)
    )

    class Echo(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            self.wfile.write(head + payload)

        def log_message(self, *args):
            pass

    return ThreadingHTTPServer(("127.0.0.1", 0), Echo)
