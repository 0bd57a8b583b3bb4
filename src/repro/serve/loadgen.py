"""Synthetic load generation against an in-process server.

Two canonical driver shapes:

* **closed loop** -- ``clients`` threads, each submitting its next
  request only after the previous one completes.  Measures capacity at
  a fixed concurrency (offered load adapts to the server).
* **open loop** -- requests arrive on a seeded Poisson process at
  ``rate_rps`` regardless of completions, so queueing delay and load
  shedding actually show up (a closed loop can never over-run the
  server; an open loop is how SLO violations are found).

Both drive the server through a :class:`~repro.serve.client.ServeClient`
(closed loop) or its timeout configuration (open loop), so the
client-side policy -- per-request timeout, bounded retries with jittered
backoff, optional hedging, per-request deadlines -- is exactly what a
production caller would run, and its effects (``timeouts``,
``retries``, ``hedges``, ``deadline_exceeded``) are first-class columns
of the :class:`LoadReport` instead of crashes in the driver.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.client import ClientConfig, ServeClient
from repro.serve.request import (
    DeadlineExceeded,
    RequestShed,
    ServerClosed,
)

__all__ = ["LoadReport", "run_closed_loop", "run_open_loop"]


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    mode: str
    requests: int
    completed: int
    shed: int
    errors: int
    duration_s: float
    throughput_rps: float
    timeouts: int = 0
    deadline_exceeded: int = 0
    retries: int = 0
    hedges: int = 0
    latency_ms: dict[str, float] = field(default_factory=dict)
    client_stats: dict = field(default_factory=dict)
    server_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "deadline_exceeded": self.deadline_exceeded,
            "retries": self.retries,
            "hedges": self.hedges,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": self.latency_ms,
            "client_stats": self.client_stats,
            "server_stats": self.server_stats,
        }


def _percentiles(latencies_s: list[float]) -> dict[str, float]:
    if not latencies_s:
        return {}
    arr = np.sort(np.asarray(latencies_s)) * 1e3
    def pct(q: float) -> float:
        idx = min(len(arr) - 1, int(np.ceil(q / 100 * len(arr))) - 1)
        return float(arr[max(idx, 0)])
    return {
        "p50": pct(50),
        "p95": pct(95),
        "p99": pct(99),
        "mean": float(arr.mean()),
        "max": float(arr[-1]),
    }


def _random_inputs(shape, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, *shape)).astype(np.float32)


def run_closed_loop(
    server,
    clients: int = 4,
    requests: int = 64,
    seed: int = 0,
    client_config: ClientConfig | None = None,
    deadline_ms: float | None = None,
) -> LoadReport:
    """``clients`` threads round-robin ``requests`` total submissions
    through one shared :class:`ServeClient`."""
    inputs = _random_inputs(server.config.input_shape, requests, seed)
    client = ServeClient(server, config=client_config)
    latencies: list[float] = []
    shed = errors = completed = timeouts = expired = 0
    lock = threading.Lock()

    def worker(worker_idx: int) -> None:
        nonlocal shed, errors, completed, timeouts, expired
        for i in range(worker_idx, requests, clients):
            t0 = time.perf_counter()
            try:
                client.predict(inputs[i], deadline_ms=deadline_ms)
            except RequestShed:
                with lock:
                    shed += 1
                continue
            except TimeoutError:
                # recorded, never a crash: a timed-out request is a
                # data point about the server, not a driver bug
                with lock:
                    timeouts += 1
                continue
            except DeadlineExceeded:
                with lock:
                    expired += 1
                continue
            except ServerClosed:
                with lock:
                    errors += 1
                continue
            dt = time.perf_counter() - t0
            with lock:
                completed += 1
                latencies.append(dt)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    duration = time.perf_counter() - t0
    cstats = client.stats()
    return LoadReport(
        mode=f"closed:{clients}",
        requests=requests,
        completed=completed,
        shed=shed,
        errors=errors,
        timeouts=timeouts,
        deadline_exceeded=expired,
        retries=cstats["retries"],
        hedges=cstats["hedges"],
        duration_s=duration,
        throughput_rps=completed / duration if duration > 0 else 0.0,
        latency_ms=_percentiles(latencies),
        client_stats=cstats,
        server_stats=server.stats(),
    )


def run_open_loop(
    server,
    rate_rps: float = 100.0,
    duration_s: float = 2.0,
    seed: int = 0,
    client_config: ClientConfig | None = None,
    deadline_ms: float | None = None,
) -> LoadReport:
    """Poisson arrivals at ``rate_rps``; waits for stragglers at the end.

    Each arrival is submitted from the generator thread (submission is
    non-blocking) and completion is collected by a small reaper pool, so
    a slow server builds real queueing delay instead of throttling the
    generator.  The reaper's wait comes from ``client_config.timeout_s``
    (no more hard-coded 60 s) and a timed-out or expired request is a
    report column, never a crash.
    """
    cfg = client_config if client_config is not None else ClientConfig()
    rng = np.random.default_rng(seed)
    horizon = max(1, int(rate_rps * duration_s))
    inputs = _random_inputs(server.config.input_shape, horizon, seed + 1)
    gaps = rng.exponential(1.0 / rate_rps, size=horizon)

    latencies: list[float] = []
    shed = errors = completed = timeouts = expired = 0
    lock = threading.Lock()
    pending: list = []

    def reap(req) -> None:
        nonlocal completed, errors, timeouts, expired
        t0 = req.t_submit
        try:
            req.result(timeout=cfg.timeout_s)
        except TimeoutError:
            with lock:
                timeouts += 1
            return
        except DeadlineExceeded:
            with lock:
                expired += 1
            return
        except ServerClosed:
            with lock:
                errors += 1
            return
        dt = time.perf_counter() - t0
        with lock:
            completed += 1
            latencies.append(dt)

    t_start = time.perf_counter()
    next_arrival = t_start
    for i in range(horizon):
        next_arrival += gaps[i]
        delay = next_arrival - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        deadline = (
            time.perf_counter() + deadline_ms / 1e3
            if deadline_ms is not None else None
        )
        try:
            req = server.submit(inputs[i], deadline=deadline)
        except RequestShed:
            with lock:
                shed += 1
            continue
        except ServerClosed:
            with lock:
                errors += 1
            continue
        t = threading.Thread(target=reap, args=(req,), daemon=True)
        t.start()
        pending.append(t)
    for t in pending:
        t.join()
    duration = time.perf_counter() - t_start
    return LoadReport(
        mode=f"open:{rate_rps:g}rps",
        requests=horizon,
        completed=completed,
        shed=shed,
        errors=errors,
        timeouts=timeouts,
        deadline_exceeded=expired,
        duration_s=duration,
        throughput_rps=completed / duration if duration > 0 else 0.0,
        latency_ms=_percentiles(latencies),
        server_stats=server.stats(),
    )
