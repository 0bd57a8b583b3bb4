"""Open-loop load: one generator thread, one completion collector.

The generator walks a seeded schedule and sends each request at its due
time through the non-blocking ``InferenceServer.submit``; it never waits
for an answer, so a stalled server keeps receiving load and its queue
grows.  The collector takes the submitted requests in FIFO order, waits
for each to complete and timestamps it.  Latency is measured from the
request's *due* time, not from when it was actually sent, so a stall
that delays the generator (or the requests queued behind a slow batch)
shows up in every later request's latency; how late the generator ran
is reported beside it.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

#: a request that takes longer than this is failed by the collector
RESULT_TIMEOUT_S = 60.0
#: the schedule starts this long after the threads are launched
LEAD_S = 0.05
_DONE = object()


@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and its answer."""

    pool_index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    req_id: int | None = None
    probs: object = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1e3


@dataclass
class LoadResult:
    outcomes: list[Outcome] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


def run_open_loop(server, schedule, pool) -> LoadResult:
    """Drive ``server`` with ``schedule`` (``[(due_s, [pool index])]``)."""
    result = LoadResult(start=time.perf_counter() + LEAD_S)
    handoff: queue.SimpleQueue = queue.SimpleQueue()

    def generate() -> None:
        try:
            for due_s, picks in schedule:
                due = result.start + due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                for i in picks:
                    out = Outcome(pool_index=i, due=due)
                    try:
                        req = server.submit(pool[i])
                    except Exception as err:  # noqa: BLE001 -- counted as failed
                        out.sent = out.done = time.perf_counter()
                        out.error = f"{type(err).__name__}: {err}"
                        req = None
                    else:
                        out.sent = time.perf_counter()
                        out.req_id = req.id
                    result.outcomes.append(out)
                    handoff.put((req, out))
        finally:
            handoff.put(_DONE)

    def collect() -> None:
        while True:
            item = handoff.get()
            if item is _DONE:
                return
            req, out = item
            if req is None:
                continue
            try:
                out.probs = req.result(RESULT_TIMEOUT_S)
            except Exception as err:  # noqa: BLE001 -- counted as failed
                out.error = f"{type(err).__name__}: {err}"
            out.done = time.perf_counter()

    threads = [
        threading.Thread(
            target=generate, name="bench-generator", daemon=True
        ),
        threading.Thread(
            target=collect, name="bench-collector", daemon=True
        ),
    ]
    for t in threads:
        t.start()
    limit = time.perf_counter() + (schedule[-1][0] if schedule else 0) + 120
    for t in threads:
        t.join(max(0.0, limit - time.perf_counter()))
        if t.is_alive():
            raise RuntimeError(f"{t.name} did not finish")
    result.end = max((o.done for o in result.outcomes), default=result.start)
    return result
