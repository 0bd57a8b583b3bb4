"""Named counters, gauges and distributions shared by every subsystem.

The paper's methodology reports the same handful of numbers for every
experiment -- kernels generated, cache hits/misses, stream segments, µops
executed, simulated traffic bytes, img/s.  :class:`MetricsRegistry` is the
single home for them: counters are monotonically increasing (and merge
additively across processes), gauges hold last-written values, and
distributions keep a bounded window of observed samples for the serving
SLO percentiles (request latency, batch occupancy).

All mutation happens under one lock so concurrent replay threads and the
kernel cache can update counters safely; reads return copies.  As with the
tracer there is ONE process-wide registry (:func:`get_metrics`) whose
identity never changes, so modules may bind it at import time.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["Ewma", "MetricsRegistry", "get_metrics"]

#: retained samples per distribution -- a rolling window, enough for a
#: stable p99 over any recent load burst without unbounded growth
_DIST_WINDOW = 32768


class Ewma:
    """Thread-safe exponentially weighted moving average.

    The serving admission controller estimates queue wait from a decayed
    per-request service time; an EWMA tracks the recent regime (a load
    spike shifts it within ~1/alpha samples) without keeping a window.
    ``value`` is ``None`` until the first update so callers can tell
    "no samples yet" apart from a genuine 0.
    """

    __slots__ = ("alpha", "_value", "_lock")

    def __init__(self, alpha: float = 0.2):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value: float | None = None
        self._lock = threading.Lock()

    def update(self, sample: float) -> float:
        with self._lock:
            if self._value is None:
                self._value = float(sample)
            else:
                self._value += self.alpha * (sample - self._value)
            return self._value

    @property
    def value(self) -> float | None:
        with self._lock:
            return self._value


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and distributions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._dists: dict[str, deque] = {}
        self._dist_counts: dict[str, int] = {}

    # -- writing -------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into distribution ``name`` (rolling window)."""
        with self._lock:
            d = self._dists.get(name)
            if d is None:
                d = self._dists[name] = deque(maxlen=_DIST_WINDOW)
            d.append(value)
            self._dist_counts[name] = self._dist_counts.get(name, 0) + 1

    # -- reading -------------------------------------------------------
    def value(self, name: str, default: float = 0) -> float:
        """Current value of a counter or gauge (counters win on collision)."""
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            return self._gauges.get(name, default)

    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def percentile(self, name: str, q: float) -> float:
        """The ``q``-th percentile (0-100, nearest-rank) of distribution
        ``name`` over its retained window; 0.0 if nothing observed."""
        with self._lock:
            d = self._dists.get(name)
            if not d:
                return 0.0
            samples = sorted(d)
        rank = max(0, min(len(samples) - 1, int(round(q / 100.0 * len(samples))) - 1))
        if q <= 0:
            rank = 0
        return samples[rank]

    def distributions(self) -> dict[str, dict[str, float]]:
        """Summary per distribution: total count plus window min/mean/max
        and the p50/p95/p99 SLO percentiles."""
        with self._lock:
            items = [
                (name, sorted(d), self._dist_counts.get(name, 0))
                for name, d in self._dists.items()
                if d
            ]
        out = {}
        for name, s, count in items:
            n = len(s)

            def pct(q: float) -> float:
                return s[max(0, min(n - 1, int(round(q / 100.0 * n)) - 1))]

            out[name] = {
                "count": count,
                "window": n,
                "min": s[0],
                "max": s[-1],
                "mean": sum(s) / n,
                "p50": pct(50),
                "p95": pct(95),
                "p99": pct(99),
            }
        return out

    def snapshot(self, clear: bool = False) -> dict:
        """Picklable ``{"counters": ..., "gauges": ..., "dists": ...}``."""
        with self._lock:
            snap = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "dists": {
                    name: {
                        "count": self._dist_counts.get(name, 0),
                        "samples": list(d),
                    }
                    for name, d in self._dists.items()
                },
            }
            if clear:
                self._counters.clear()
                self._gauges.clear()
                self._dists.clear()
                self._dist_counts.clear()
        return snap

    def merge(self, snapshot: dict) -> None:
        """Fold a worker snapshot in: counters and distribution samples
        add, gauges last-write-wins."""
        with self._lock:
            for name, v in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + v
            self._gauges.update(snapshot.get("gauges", {}))
            for name, rec in snapshot.get("dists", {}).items():
                d = self._dists.get(name)
                if d is None:
                    d = self._dists[name] = deque(maxlen=_DIST_WINDOW)
                d.extend(rec.get("samples", ()))
                self._dist_counts[name] = (
                    self._dist_counts.get(name, 0) + rec.get("count", 0)
                )

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._dists.clear()
            self._dist_counts.clear()


#: the process-wide registry (stable identity; cleared, never replaced).
_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` singleton."""
    return _METRICS
