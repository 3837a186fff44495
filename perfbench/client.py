"""Closed-loop HTTP/1.1 client over keep-alive connections.

Each connection is a thread with a blocking socket that sends its next
request only after the previous response has been read in full: the
callers of ``repro serve`` are schedulers that wait for each answer.
Requests are encoded before the clock starts.
"""

from __future__ import annotations

import json
import socket
import threading
import time


#: A request unanswered for this long fails its connection.
TIMEOUT_S = 60.0


def encode(method: str, path: str, body, request_id: str) -> bytes:
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"X-Repro-Request-Id: {request_id}\r\n"
            "\r\n")
    return head.encode("latin-1") + data


class Connection:
    """One keep-alive connection to the server under test."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one encoded request; return (status, body)."""
        self.sock.sendall(raw)
        status_line = self.rfile.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = self.rfile.read(length)
        if len(body) != length:
            raise ConnectionError("short response body")
        return status, body

    def get_json(self, path: str) -> tuple[int, dict]:
        status, body = self.request(encode("GET", path, None, "bench-get"))
        return status, json.loads(body)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Outcome:
    """Per-request results of one closed-loop sequence, in request order."""

    def __init__(self, n: int) -> None:
        self.status = [0] * n          # 0: no response (connection error)
        self.latency_s = [0.0] * n
        self.body: list[bytes | None] = [None] * n
        self.elapsed_s = 0.0

    @property
    def ok(self) -> int:
        return sum(1 for s in self.status if 200 <= s < 300)

    @property
    def failed(self) -> int:
        return len(self.status) - self.ok


def closed_loop(port: int, requests: list[bytes],
                connections: int) -> Outcome:
    """Send ``requests`` over ``connections`` keep-alive connections.

    Connection ``c`` sends requests ``c, c + connections, ...`` in turn.
    A connection error counts as a failed request and the connection is
    reopened for the next one.
    """
    out = Outcome(len(requests))
    conns = [Connection(port) for _ in range(connections)]
    start = threading.Barrier(connections + 1)

    def drive(c: int) -> None:
        conn = conns[c]
        start.wait()
        for i in range(c, len(requests), connections):
            t0 = time.perf_counter()
            try:
                status, body = conn.request(requests[i])
            except (OSError, ValueError, IndexError):
                conn.close()
                conn = conns[c] = Connection(port)
                continue
            out.latency_s[i] = time.perf_counter() - t0
            out.status[i] = status
            out.body[i] = body

    threads = [threading.Thread(target=drive, args=(c,), daemon=True)
               for c in range(connections)]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    out.elapsed_s = time.perf_counter() - t0
    for conn in conns:
        conn.close()
    return out
