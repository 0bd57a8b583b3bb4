"""Bounded admission queue with load-aware shedding.

Admission control is the only place a request can be rejected.  Two
independent signals shed *new* arrivals (``serve.shed``) instead of
letting latency grow without bound:

* the hard **capacity** bound (the original fixed-depth FIFO rule), and
* **adaptive backpressure**: an EWMA of observed per-request service
  time turns the current depth into an *estimated queue wait*; when that
  estimate exceeds ``max_wait_s`` the request is shed
  (``serve.shed_backpressure``) even though the queue is nowhere near
  capacity.  A queue of 200 one-millisecond requests is healthy; a queue
  of 20 hundred-millisecond requests is already a latency disaster --
  depth alone cannot tell the two apart.

The server's worker drains the queue through :meth:`take`, which
implements the dynamic-batching wait.  A batch closes at the earliest
of three points: ``max_n`` requests are pending, ``window_s`` has passed
since the taker began waiting with a request in hand (the cap), or no
request has been admitted for ``window_s * IDLE_FRACTION`` (the idle
gap).  So a lone request leaves after the idle gap, a burst keeps its
batch open for as long as its requests keep coming, and a queue that
went idle while the previous batch ran closes at once.  ``take`` also
drops requests whose deadline already expired while queued -- they are
failed with :class:`~repro.serve.request.DeadlineExceeded`
(``serve.deadline_expired``) rather than padded into a bucket.

:meth:`pause` stops admission without closing (the graceful-drain
front door): queued work still drains, blocked takers keep taking, but
new puts fail with :class:`ServerClosed` until :meth:`resume`.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.obs.metrics import Ewma, MetricsRegistry, get_metrics
from repro.serve.request import (
    DeadlineExceeded,
    InferenceRequest,
    RequestShed,
    ServerClosed,
)

__all__ = ["AdmissionQueue"]

#: A batch closes once no request has been admitted for this fraction of
#: ``window_s``: 0.5 ms at the default 2 ms window.  Requests inside one
#: of perfbench's ``serve_blocked_burst`` bursts arrive 12-16 us apart at
#: the median and 154-239 us at p99, so a burst stays one batch, while
#: the Poisson requests of ``serve_fast_light`` that shared a whole 2 ms
#: window arrived 0.52 ms apart at the median, so a lone request stops
#: waiting out the window for a neighbour that rarely comes
#: (EXPERIMENTS.md, "Closing the batch window when arrivals stop").
IDLE_FRACTION = 0.25


class AdmissionQueue:
    """FIFO of :class:`InferenceRequest` with a hard capacity and an
    estimated-wait shed rule.

    ``metrics`` scopes the queue's counters/gauges to one server; it
    defaults to the process-wide registry for standalone use.
    ``max_wait_s`` enables adaptive backpressure (``None`` = depth-only
    shedding).
    """

    def __init__(
        self,
        capacity: int,
        metrics: MetricsRegistry | None = None,
        *,
        max_wait_s: float | None = None,
    ):
        self.capacity = capacity
        self.max_wait_s = max_wait_s
        self._metrics = metrics if metrics is not None else get_metrics()
        self._q: deque[InferenceRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._paused = False
        #: requests handed to a worker whose batch has not finished yet;
        #: drain waits on depth AND this, so a batch popped the instant
        #: before a drain is still waited for (no lost-update race --
        #: both counters move under the queue's own lock)
        self._inflight = 0
        #: decayed per-request service seconds, fed by the worker after
        #: every batch (batch wall time / live rows)
        self._service_ewma = Ewma(alpha=0.2)
        #: perf_counter of the latest admission; :meth:`take` closes a
        #: batch once it is an idle gap old
        self._last_put = 0.0

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._q)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def paused(self) -> bool:
        with self._cond:
            return self._paused

    @property
    def inflight(self) -> int:
        """Requests taken by a worker but not yet acknowledged via
        :meth:`task_done`."""
        with self._cond:
            return self._inflight

    def task_done(self, n: int) -> None:
        """A worker finished (served, failed or dropped) ``n`` requests
        it previously took; wakes anything waiting in :meth:`join`."""
        with self._cond:
            self._inflight = max(0, self._inflight - n)
            self._cond.notify_all()

    def join(self, timeout_s: float) -> bool:
        """Block until the queue is empty AND no batch is in flight (the
        drain condition); returns False on timeout."""
        deadline = time.perf_counter() + timeout_s
        with self._cond:
            while self._q or self._inflight:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.05))
            return True

    # -- adaptive backpressure -----------------------------------------
    def record_service(self, batch_seconds: float, n: int) -> None:
        """Fold one served batch into the service-time EWMA (called by
        the worker; ``n`` is the batch's live row count)."""
        if n > 0:
            per_req = self._service_ewma.update(batch_seconds / n)
            self._metrics.set_gauge("serve.service_ewma_ms", per_req * 1e3)

    def estimated_wait_s(self) -> float:
        """Expected queue wait for a request admitted *now*: decayed
        per-request service time x current depth.  0.0 until the first
        batch has been observed (optimistic start: never shed before
        there is evidence of slowness)."""
        per_req = self._service_ewma.value
        if per_req is None:
            return 0.0
        return per_req * self.depth

    # ------------------------------------------------------------------
    def put(self, req: InferenceRequest) -> None:
        """Admit a request, or shed it.

        Rejection reasons, in order: closed/paused (:class:`ServerClosed`),
        hard capacity (:class:`RequestShed`, ``serve.shed``), estimated
        wait over budget (:class:`RequestShed`, ``serve.shed`` +
        ``serve.shed_backpressure``).
        """
        with self._cond:
            if self._closed:
                raise ServerClosed("server is stopped; request rejected")
            if self._paused:
                raise ServerClosed(
                    "server is draining; admission is stopped"
                )
            if len(self._q) >= self.capacity:
                self._metrics.inc("serve.shed")
                raise RequestShed(
                    f"queue at capacity ({self.capacity}); request shed"
                )
            if self.max_wait_s is not None:
                per_req = self._service_ewma.value
                est = 0.0 if per_req is None else per_req * len(self._q)
                if est > self.max_wait_s:
                    self._metrics.inc("serve.shed")
                    self._metrics.inc("serve.shed_backpressure")
                    raise RequestShed(
                        f"estimated queue wait {est * 1e3:.1f}ms exceeds "
                        f"the {self.max_wait_s * 1e3:.1f}ms budget; "
                        "request shed"
                    )
            self._q.append(req)
            self._last_put = time.perf_counter()
            self._metrics.set_gauge("serve.queue_depth", len(self._q))
            self._cond.notify()

    def _pop_live(self, max_n: int) -> list[InferenceRequest]:
        """Pop up to ``max_n`` *unexpired* requests (caller holds the
        lock).  Expired entries are failed on the spot -- never handed to
        the batcher."""
        batch: list[InferenceRequest] = []
        while self._q and len(batch) < max_n:
            req = self._q.popleft()
            if req.expired:
                self._metrics.inc("serve.deadline_expired")
                req._fail(DeadlineExceeded(
                    f"request {req.id} expired after "
                    f"{(time.perf_counter() - req.t_submit) * 1e3:.1f}ms "
                    "in the admission queue"
                ))
                continue
            batch.append(req)
        return batch

    def take(
        self, max_n: int, window_s: float = 0.0
    ) -> list[InferenceRequest]:
        """Dequeue up to ``max_n`` live requests as one batch.

        Blocks until at least one request is available (or the queue is
        closed AND drained, returning ``[]``).  Once a request is in hand
        the batch stays open until ``max_n`` requests are pending, until
        ``window_s`` has passed, or until no request has been admitted
        for ``window_s * IDLE_FRACTION``, whichever comes first;
        ``window_s = 0`` takes what is queued without waiting.  Requests
        whose deadline expired while queued are failed and skipped here.

        An empty pop (every popped request had expired, or a second
        taker drained the batch first) loops back to the outer wait
        instead of returning, so ``[]`` is an unambiguous shutdown
        signal.
        """
        idle_s = window_s * IDLE_FRACTION
        with self._cond:
            while True:
                while not self._q and not self._closed:
                    self._cond.wait()
                if not self._q:
                    return []  # closed and drained
                cap = time.perf_counter() + window_s
                while len(self._q) < max_n and not self._closed:
                    close = min(cap, self._last_put + idle_s)
                    remaining = close - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                batch = self._pop_live(max_n)
                self._metrics.set_gauge("serve.queue_depth", len(self._q))
                if not batch:
                    # another taker drained the window's batch, or every
                    # popped request had already expired
                    self._cond.notify_all()  # a join may now be done
                    continue
                self._inflight += len(batch)
                return batch

    def drain(self) -> list[InferenceRequest]:
        """Remove and return everything still queued (used at shutdown
        to fail leftover requests)."""
        with self._cond:
            leftover = list(self._q)
            self._q.clear()
            self._metrics.set_gauge("serve.queue_depth", 0)
            return leftover

    def pause(self) -> None:
        """Stop admission (puts raise :class:`ServerClosed`) while
        letting queued work drain -- the graceful-drain front door."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        """Re-open admission after :meth:`pause` (no-op once closed)."""
        with self._cond:
            self._paused = False

    def close(self) -> None:
        """Reject future puts and wake every blocked :meth:`take`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
