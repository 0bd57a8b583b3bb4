"""Circuit breaker: convert a failing dependency into fast failure.

Under overload or partial failure, the worst thing a front end can do
is keep queueing work behind a dependency that is already drowning --
every retry adds load exactly when capacity is lowest.  The breaker
watches a rolling window of request outcomes and, once the error rate
crosses a threshold, **opens**: calls are rejected immediately (HTTP
503 / :class:`~repro.serve.request.RequestShed`) without touching the
server.  After a cool-down it **half-opens**, letting a bounded number
of probe requests through; enough probe successes close it again, any
probe failure re-opens it and restarts the cool-down.

The same class serves both sides of the connection: ``serve_http``
fast-503s ahead of the admission queue, and
:class:`~repro.serve.client.ServeClient` stops hammering a server that
keeps shedding.  Time is injected (``clock``) so tests drive the state
machine deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.obs.metrics import MetricsRegistry, get_metrics

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Error-rate circuit breaker with half-open probing.

    Parameters
    ----------
    window:
        Number of most-recent outcomes the error rate is computed over.
    error_threshold:
        Open when ``failures / window_len >= error_threshold`` (and at
        least ``min_volume`` outcomes have been seen -- one failed
        request out of one must not trip a cold breaker).
    reset_s:
        Cool-down before an open breaker half-opens.
    probes:
        Consecutive probe successes required to close from half-open;
        also the number of concurrent trial calls half-open admits.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        window: int = 32,
        error_threshold: float = 0.5,
        min_volume: int = 8,
        reset_s: float = 1.0,
        probes: int = 2,
        metrics: MetricsRegistry | None = None,
        clock=time.monotonic,
    ):
        if not 0.0 < error_threshold <= 1.0:
            raise ValueError(
                f"error_threshold must be in (0, 1], got {error_threshold}"
            )
        if window < 1 or min_volume < 1 or probes < 1:
            raise ValueError("window, min_volume and probes must be >= 1")
        self.error_threshold = error_threshold
        self.min_volume = min_volume
        self.reset_s = reset_s
        self.probes = probes
        self._clock = clock
        self._metrics = metrics if metrics is not None else get_metrics()
        self._lock = threading.Lock()
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = failure
        self._state = CLOSED
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        """Lock held: open -> half-open once the cool-down elapsed."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.reset_s
        ):
            self._state = HALF_OPEN
            self._probes_in_flight = 0
            self._probe_successes = 0

    def allow(self) -> bool:
        """May a call proceed right now?

        ``False`` means fast-fail (counted in ``serve.breaker_fast_fail``).
        Half-open admits at most ``probes`` concurrent trial calls; the
        caller MUST report the outcome via :meth:`record_success` /
        :meth:`record_failure`, or :meth:`release` the slot, or the probe
        slots leak.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                if self._probes_in_flight < self.probes:
                    self._probes_in_flight += 1
                    return True
            self._metrics.inc("serve.breaker_fast_fail")
            return False

    def record_success(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.probes:
                    # recovered: forget the bad window entirely
                    self._state = CLOSED
                    self._outcomes.clear()
                return
            self._outcomes.append(False)

    def release(self) -> None:
        """End an admitted call without an outcome: it was refused as
        malformed (HTTP 400), which says nothing about the server's
        health.  Half-open, its probe slot is freed; without that, as
        many malformed requests as there are probes would leave every
        later call fast-failed."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state == HALF_OPEN:
                # a failed probe re-opens immediately; the cool-down
                # restarts so recovery is retried, not hammered
                self._trip()
                return
            self._outcomes.append(True)
            if self._state == CLOSED and len(self._outcomes) >= self.min_volume:
                rate = sum(self._outcomes) / len(self._outcomes)
                if rate >= self.error_threshold:
                    self._trip()

    def _trip(self) -> None:
        """Lock held: enter (or re-enter) the open state."""
        self._state = OPEN
        self._opened_at = self._clock()
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._metrics.inc("serve.breaker_open")

    def snapshot(self) -> dict:
        """State + window stats for health/stats payloads."""
        with self._lock:
            self._maybe_half_open()
            n = len(self._outcomes)
            return {
                "state": self._state,
                "window": n,
                "error_rate": (sum(self._outcomes) / n) if n else 0.0,
                "opens": self._metrics.value("serve.breaker_open"),
            }
