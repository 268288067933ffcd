"""A stdlib open-loop HTTP client that times requests from their due time.

Arrivals follow a seeded Poisson schedule fixed before the run starts.
At most ``connections`` requests are in flight; a request whose sender
is still busy when it falls due waits, and that wait is part of its
latency, because latency runs from the due time, not the send time.
How late each request was sent is recorded separately, so a slow
generator shows up as lateness rather than as a fast server.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence


@dataclass
class Outcome:
    """One scheduled request: its target, timings and parsed reply."""

    index: int
    user: object
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: Optional[dict] = None
    error: Optional[str] = None
    context: dict = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def late_s(self) -> float:
        return self.sent - self.due


def poisson_schedule(rate: float, seconds: float, rng: random.Random) -> List[float]:
    """Arrival offsets (s) of a Poisson process of ``rate`` per second."""
    offsets, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return offsets
        offsets.append(t)


def http_request(
    host: str, port: int, method: str, target: str, timeout: float = 30.0
) -> tuple:
    """One ``Connection: close`` request; returns ``(status, json body)``."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: 0\r\n\r\n".encode("ascii")
        )
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed before the headers")
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = None
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if length is None:
            raise ConnectionError("response without Content-Length")
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-body")
            body += chunk
    return status, json.loads(body[:length])


def run_open_loop(
    host: str,
    port: int,
    users: Sequence[object],
    offsets: Sequence[float],
    start: float,
    connections: int,
    n: int,
    before_send: Optional[Callable[[Outcome], None]] = None,
    span=None,
) -> List[Outcome]:
    """Send ``GET /recommend`` for ``users[i]`` due at ``start + offsets[i]``.

    ``before_send`` runs in the sender thread just before each request
    is sent (the swap bookkeeping hooks in there); ``span`` optionally
    wraps each request in a trace span.
    """
    outcomes = [Outcome(i, user) for i, user in enumerate(users)]
    cursor = iter(range(len(outcomes)))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            outcome = outcomes[index]
            outcome.due = start + offsets[index]
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if before_send is not None:
                before_send(outcome)
            outcome.sent = time.perf_counter()
            target = f"/recommend?user={outcome.user}&n={n}"
            try:
                with span("serve.http_request") if span else nullcontext():
                    outcome.status, outcome.body = http_request(
                        host, port, "GET", target
                    )
            except (OSError, ValueError) as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.done = time.perf_counter()

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes
