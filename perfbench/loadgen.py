"""HTTP load generator over a few keep-alive connections.

:func:`run_open_loop`: requests are due on a fixed schedule whatever the
server does.  A due request waits in a queue for a free connection, so a
stalled response delays the requests scheduled behind it, and every latency
is timed from when the request was *due*, not from when it was sent.
``lag`` is how late the dispatcher itself queued a request; a large lag
means the generator, not the server, fell behind and the run should not be
trusted.

:func:`run_closed_loop`: each connection sends its next request as soon as
the previous answer arrives, for a fixed time, which keeps the server busy
and so measures its capacity.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Request:
    offset: float  # seconds after the schedule starts
    method: str
    path: str
    body: bytes = b""


@dataclass
class Outcome:
    due: float
    queued: float
    sent: float
    done: float
    status: int  # 0 when no response arrived (connection error or timeout)
    body: bytes
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        return (self.queued - self.due) * 1000.0


def poisson_offsets(rate: float, duration: float, seed: int) -> List[float]:
    """Arrival times of a Poisson process of ``rate``/s over ``duration`` s,
    conditioned on exactly ``round(rate * duration)`` arrivals (sorted
    uniform times), so every seed offers the same amount of work."""
    rng = np.random.default_rng([int(seed), 0xA441])
    count = int(round(rate * duration))
    return sorted(float(t) for t in rng.uniform(0.0, duration, size=count))


async def exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: Request
) -> Tuple[int, bytes]:
    """One HTTP/1.1 request/response on an open keep-alive connection."""
    head = (
        f"{request.method} {request.path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(request.body)}\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + request.body)
    await writer.drain()
    blob = await reader.readuntil(b"\r\n\r\n")
    lines = blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _close(writer: Optional[asyncio.StreamWriter]) -> None:
    if writer is not None:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def _answer(
    host: str, port: int, connection, request: Request, timeout_s: float
) -> Tuple[int, bytes, Optional[str], Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]]:
    """Send ``request`` on ``connection`` (reopened if None): status, body,
    error, and the connection to use next (None after an error)."""
    try:
        if connection is None:
            connection = await asyncio.wait_for(asyncio.open_connection(host, port), timeout_s)
        status, body = await asyncio.wait_for(exchange(*connection, request), timeout_s)
        return status, body, None, connection
    except (OSError, ValueError, IndexError, asyncio.TimeoutError,
            asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
        await _close(None if connection is None else connection[1])
        return 0, b"", f"{type(exc).__name__}: {exc}", None


async def run_open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    *,
    connections: int = 2,
    timeout_s: float = 10.0,
    lead_s: float = 0.05,
) -> List[Outcome]:
    """Send ``requests`` on schedule; one :class:`Outcome` per request, in order."""
    queue: "asyncio.Queue[Optional[Tuple[int, float, float]]]" = asyncio.Queue()
    outcomes: List[Outcome] = [None] * len(requests)  # type: ignore[list-item]
    opened = [await asyncio.open_connection(host, port) for _ in range(connections)]
    start = time.perf_counter() + lead_s

    async def dispatch() -> None:
        for index, request in enumerate(requests):
            due = start + request.offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, due, time.perf_counter()))
        for _ in range(connections):
            queue.put_nowait(None)

    async def work(connection) -> None:
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                index, due, queued = item
                sent = time.perf_counter()
                status, body, error, connection = await _answer(
                    host, port, connection, requests[index], timeout_s
                )
                outcomes[index] = Outcome(due, queued, sent, time.perf_counter(), status, body, error)
        finally:
            await _close(None if connection is None else connection[1])

    # Every queued request gets an outcome: an answer, or the error that
    # replaced it.
    await asyncio.gather(dispatch(), *(work(c) for c in opened))
    return outcomes


async def run_closed_loop(
    host: str,
    port: int,
    requests: Iterator[Tuple[int, Request]],
    duration_s: float,
    *,
    connections: int = 2,
    timeout_s: float = 10.0,
) -> Tuple[List[Tuple[int, Outcome]], float]:
    """Keep ``connections`` requests in flight for ``duration_s`` seconds.

    ``requests`` yields ``(key, request)`` pairs and is shared by the
    connections.  Returns each sent request's key and outcome, in completion
    order, and the elapsed time from the start to the last answer.  Here
    ``due`` is when the request was sent, so latency is service time.
    """
    outcomes: List[Tuple[int, Outcome]] = []
    opened = [await asyncio.open_connection(host, port) for _ in range(connections)]
    start = time.perf_counter()
    end = start + duration_s

    async def work(connection) -> None:
        try:
            for key, request in requests:
                sent = time.perf_counter()
                if sent >= end:
                    return
                status, body, error, connection = await _answer(host, port, connection, request, timeout_s)
                outcomes.append((key, Outcome(sent, sent, sent, time.perf_counter(), status, body, error)))
        finally:
            await _close(None if connection is None else connection[1])

    await asyncio.gather(*(work(c) for c in opened))
    last = max((o.done for _, o in outcomes), default=end)
    return outcomes, last - start
