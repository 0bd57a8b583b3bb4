"""A real serving client: timeouts, bounded retries, hedging.

Naive callers (the old loadgen, ad-hoc scripts) call ``predict`` with a
hard-coded timeout and crash -- or hang -- on anything else.
:class:`ServeClient` is the production shape of that call:

* **per-request timeout** from :class:`ClientConfig`, never a magic
  constant at the call site;
* **bounded retries with jittered exponential backoff**, and only for
  outcomes retrying can help: load shedding / 503 (the server said "not
  now").  4xx (the request itself is wrong) and deadline overruns / 504
  (the answer is already worthless) are never retried;
* an optional client-side :class:`~repro.serve.breaker.CircuitBreaker`,
  so a client facing a drowning server stops adding load and fast-fails
  instead;
* **hedging**: once enough latency samples exist, a request that is
  still unresolved at the observed p95 places one backup attempt and
  takes whichever answer lands first (tail latency traded for a little
  extra load; in-process transport only -- an HTTP hedge would need a
  second connection pool for little test value).

The same client drives an in-process :class:`InferenceServer` (pass the
server) or a remote one (pass a base URL string); the HTTP transport
maps status codes back to the in-process exception types so callers and
the retry policy see one vocabulary.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import numpy as np

from repro.serve.breaker import CircuitBreaker
from repro.serve.request import (
    DeadlineExceeded,
    InvalidImage,
    RequestShed,
    ServerClosed,
)
from repro.types import ReproError, ShapeError

__all__ = ["ClientConfig", "ServeClient"]

#: latency samples retained for the hedge-cutoff p95
_LAT_WINDOW = 512


@dataclass(frozen=True)
class ClientConfig:
    """How one :class:`ServeClient` behaves.

    ``max_retries`` counts *re*-tries: 2 means up to three attempts.
    ``jitter`` spreads each backoff uniformly over ``+/- jitter`` of its
    nominal value so a shed burst does not resynchronise into a retry
    stampede.  ``hedge`` arms the p95 backup attempt once
    ``hedge_min_samples`` latencies have been observed.
    """

    timeout_s: float = 30.0
    max_retries: int = 2
    backoff_base_s: float = 0.01
    backoff_max_s: float = 0.5
    jitter: float = 0.5
    hedge: bool = False
    hedge_min_samples: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff bounds must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")


class _InProcessTransport:
    """Submit/await against an :class:`InferenceServer` in this process
    (the only transport that can hedge: it sees individual requests)."""

    def __init__(self, server):
        self.server = server

    def call(self, x, timeout_s, deadline, hedge_cutoff_s):
        """Returns ``(probs, hedged, hedge_won)``."""
        if hedge_cutoff_s is None or hedge_cutoff_s >= timeout_s:
            req = self.server.submit(x, deadline=deadline)
            return req.result(timeout_s), False, False
        primary = self.server.submit(x, deadline=deadline)
        if primary._event.wait(hedge_cutoff_s):
            return primary.result(0), False, False
        # slow: place the backup attempt.  If admission sheds it, the
        # hedge simply doesn't happen -- the primary is still in flight
        # and adding retries here would feed the very overload that made
        # the primary slow.
        try:
            backup = self.server.submit(x, deadline=deadline)
        except (RequestShed, ServerClosed):
            backup = None
        end = time.perf_counter() + max(0.0, timeout_s - hedge_cutoff_s)
        winner = None
        while time.perf_counter() < end:
            if primary.done:
                winner = primary
                break
            if backup is not None and backup.done:
                winner = backup
                break
            time.sleep(0.0005)
        if winner is None:
            primary.cancel()
            if backup is not None:
                backup.cancel()
            raise TimeoutError(
                f"request not completed within {timeout_s}s (hedged)"
            )
        loser = backup if winner is primary else primary
        if loser is not None:
            loser.cancel()
        return winner.result(0), backup is not None, winner is not primary


class _HttpTransport:
    """POST /predict against a remote server; status codes map back to
    the in-process exception vocabulary so one retry policy serves both
    transports."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def call(self, x, timeout_s, deadline, hedge_cutoff_s):
        try:
            body = json.dumps({"input": np.asarray(x).tolist()}).encode()
        except (TypeError, ValueError) as err:  # complex or ragged
            raise InvalidImage(f"image cannot be sent as JSON: {err}") from err
        headers = {"Content-Type": "application/json"}
        if deadline is not None:
            remaining_ms = (deadline - time.perf_counter()) * 1e3
            if remaining_ms <= 0:
                raise DeadlineExceeded("deadline expired before the call")
            headers["X-Deadline-Ms"] = f"{remaining_ms:.3f}"
        req = urllib.request.Request(
            f"{self.base_url}/predict", data=body, headers=headers
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout_s) as resp:
                doc = json.loads(resp.read())
        except urllib.error.HTTPError as err:
            detail, etype = self._error_detail(err)
            if err.code == 503:
                raise RequestShed(detail) from err
            if err.code == 504:
                raise DeadlineExceeded(detail) from err
            if 400 <= err.code < 500:
                cls = InvalidImage if etype == "InvalidImage" else ShapeError
                raise cls(detail) from err
            raise ReproError(f"HTTP {err.code}: {detail}") from err
        except urllib.error.URLError as err:
            if isinstance(err.reason, TimeoutError):
                raise TimeoutError(
                    f"no response within {timeout_s}s"
                ) from err
            raise ReproError(f"request failed: {err.reason}") from err
        except TimeoutError:
            raise TimeoutError(f"no response within {timeout_s}s") from None
        return np.asarray(doc["probs"], dtype=np.float32), False, False

    @staticmethod
    def _error_detail(err: urllib.error.HTTPError) -> tuple[str, str | None]:
        """The body's ``error`` message and ``type`` (error class name)."""
        try:
            doc = json.loads(err.read())
            return doc.get("error", str(err)), doc.get("type")
        except Exception:  # noqa: BLE001 -- body is best-effort
            return str(err), None


class ServeClient:
    """Retrying, hedging, breaker-guarded front door to one server.

    ``target`` is an :class:`~repro.serve.server.InferenceServer` or an
    HTTP base URL string.  Thread-safe: the load generators share one
    client across every worker thread.
    """

    def __init__(
        self,
        target,
        config: ClientConfig | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        self.config = config if config is not None else ClientConfig()
        self.breaker = breaker
        self._transport = (
            _HttpTransport(target) if isinstance(target, str)
            else _InProcessTransport(target)
        )
        self._lock = threading.Lock()
        self._rng = np.random.default_rng(self.config.seed)
        self._latencies_s: list[float] = []
        self._counters = {
            "requests": 0,
            "completed": 0,
            "retries": 0,
            "timeouts": 0,
            "deadline_exceeded": 0,
            "shed_failures": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "breaker_fast_fails": 0,
        }

    def _inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] += n

    def _hedge_cutoff_s(self) -> float | None:
        """The observed p95 latency, once hedging is armed and fed."""
        if not self.config.hedge:
            return None
        with self._lock:
            n = len(self._latencies_s)
            if n < self.config.hedge_min_samples:
                return None
            s = sorted(self._latencies_s)
        return s[min(n - 1, int(0.95 * n))]

    def _backoff_s(self, attempt: int) -> float:
        nominal = min(
            self.config.backoff_max_s,
            self.config.backoff_base_s * (2 ** attempt),
        )
        if self.config.jitter == 0.0:
            return nominal
        with self._lock:
            spread = self._rng.uniform(-self.config.jitter,
                                       self.config.jitter)
        return max(0.0, nominal * (1.0 + spread))

    def predict(
        self, x: np.ndarray, deadline_ms: float | None = None
    ) -> np.ndarray:
        """One image's probabilities, with the full client policy.

        ``deadline_ms`` (relative, from now) becomes the request's
        absolute deadline and is propagated through every attempt --
        including over HTTP via the ``X-Deadline-Ms`` header.  Raises
        :class:`RequestShed` once retries are exhausted (or immediately
        when the breaker is open), :class:`DeadlineExceeded` /
        ``TimeoutError`` without any retry, and 4xx-class errors
        (:class:`ShapeError`, :class:`InvalidImage`) untouched.
        """
        cfg = self.config
        deadline = (
            time.perf_counter() + deadline_ms / 1e3
            if deadline_ms is not None else None
        )
        self._inc("requests")
        last_shed: BaseException | None = None
        for attempt in range(cfg.max_retries + 1):
            if self.breaker is not None and not self.breaker.allow():
                self._inc("breaker_fast_fails")
                raise RequestShed(
                    "client circuit breaker is open; fast-failing"
                )
            t0 = time.perf_counter()
            try:
                probs, hedged, hedge_won = self._transport.call(
                    x, cfg.timeout_s, deadline, self._hedge_cutoff_s()
                )
            except (RequestShed, ServerClosed) as err:
                # 503-class: the server said "not now" -- the one
                # outcome a backoff-and-retry can actually fix
                if self.breaker is not None:
                    self.breaker.record_failure()
                last_shed = err
                if attempt < cfg.max_retries:
                    self._inc("retries")
                    delay = self._backoff_s(attempt)
                    if deadline is not None:
                        remaining = deadline - time.perf_counter()
                        if remaining <= delay:
                            break  # retrying past the deadline is waste
                    time.sleep(delay)
                    continue
                break
            except DeadlineExceeded:
                self._inc("deadline_exceeded")
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise  # 504: the answer is already worthless
            except TimeoutError:
                self._inc("timeouts")
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            except (ShapeError, InvalidImage):
                if self.breaker is not None:
                    self.breaker.release()
                raise  # 4xx: our fault, not the server's health
            except ReproError:
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise  # 500-class: not retryable by policy
            if self.breaker is not None:
                self.breaker.record_success()
            with self._lock:
                self._counters["completed"] += 1
                if hedged:
                    self._counters["hedges"] += 1
                if hedge_won:
                    self._counters["hedge_wins"] += 1
                self._latencies_s.append(time.perf_counter() - t0)
                if len(self._latencies_s) > _LAT_WINDOW:
                    del self._latencies_s[0]
            return probs
        self._inc("shed_failures")
        raise last_shed

    def stats(self) -> dict:
        """Counter snapshot plus the hedge cutoff currently in force."""
        with self._lock:
            out = dict(self._counters)
        cutoff = self._hedge_cutoff_s()
        out["hedge_cutoff_ms"] = (
            cutoff * 1e3 if cutoff is not None else None
        )
        return out
