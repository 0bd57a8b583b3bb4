"""Spans and events in one bounded ring (the observability half of
section III's method).

Every number in the paper's evaluation is attributable to a *phase*: JIT
codegen, the dryrun that records kernel streams, the branch-free replay,
the per-task ETG walk.  :class:`Tracer` names those phases as spans --
``span("jit.codegen")``, ``span("conv.dryrun")``, ``span("stream.replay")``,
``span("etg.task")`` -- and, beside them, the structured events a failure
needs for its post-mortem (request admissions, batch compositions,
collective hops, tier degrades, fault firings, checkpoint/reload
lifecycle), so the whole pipeline can be inspected in ``chrome://tracing``
(see :mod:`repro.obs.export`) and frozen into incident bundles
(:mod:`repro.forensics`).

One setting with three states, raised by :func:`enable` and never lowered
by it (only :func:`disable` lowers):

* ``"off"`` (default) -- nothing is recorded;
* ``"events"`` -- the :meth:`Tracer.record` sites only: what an incident
  bundle needs, cheap enough to leave on in serving (an incident
  directory arms it);
* ``"spans"`` -- events plus every :meth:`Tracer.span` phase
  (``obs.enable()``, ``python -m repro profile``, ``TaskProfiler``).

Design constraints (the disabled path must be branch-cheap):

* there is ONE process-wide :class:`Tracer` singleton, obtained with
  :func:`get_tracer`; it is *never replaced*, only its state changes.  Hot
  paths guard with ``if tracer.enabled:`` (spans) or
  ``if tracer.recording:`` (events) -- one attribute read when off.
* ``span()``/``record()`` below their state return a shared no-op context
  manager (no allocation, no clock read).
* the ring is a ``collections.deque(maxlen=CAPACITY)``: appends are atomic
  under the GIL, so the record path takes no lock, and old records fall
  off the far end (counted in :attr:`Tracer.dropped`), so memory is
  bounded however long the process runs.
* a record enters the ring when its span *opens* and gets its duration
  when it closes, so a span still open when the ring is frozen (a batch
  in flight during a dump) is in the bundle, with ``dur_us == 0``.
* records are plain picklable objects, so worker processes drain their
  rings to the parent (:meth:`Tracer.export_events` /
  :meth:`Tracer.ingest`, which rewrites the pid).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

__all__ = [
    "CAPACITY",
    "LEVELS",
    "NULL_SPAN",
    "Record",
    "Tracer",
    "disable",
    "enable",
    "get_tracer",
    "now_us",
]

#: records the ring keeps -- a steady blocked train step records 145
#: spans, so about 28 such steps, or several thousand served requests
#: with only events on
CAPACITY = 4096

#: the tracer's states, lowest first
LEVELS = ("off", "events", "spans")


def now_us() -> float:
    """The ring's clock, in microseconds."""
    # CLOCK_MONOTONIC on Linux: one clock every process of the host
    # shares, so records drained from workers line up with the parent's
    return time.perf_counter_ns() / 1e3


class Record:
    """One ring entry: a named instant (``dur_us == 0``) or a span.

    A record is its own context manager: leaving the ``with`` block sets
    its duration.
    """

    __slots__ = ("name", "ts_us", "dur_us", "pid", "tid", "args")

    def __init__(self, name: str, ts_us: float, pid: int, tid: int,
                 args: dict) -> None:
        self.name = name
        self.ts_us = ts_us
        self.dur_us = 0.0
        self.pid = pid
        self.tid = tid
        self.args = args

    def __enter__(self) -> "Record":
        return self

    def __exit__(self, *exc) -> bool:
        self.dur_us = now_us() - self.ts_us
        return False

    def to_doc(self) -> dict:
        """JSON-ready form (incident bundle ``events.json``)."""
        return {
            "name": self.name, "ts_us": self.ts_us, "dur_us": self.dur_us,
            "pid": self.pid, "tid": self.tid, "args": dict(self.args),
        }


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """The bounded record ring shared by every thread in the process.

    Usage::

        tracer = get_tracer()
        with tracer.span("conv.dryrun", threads=4):        # spans state
            ...
        if tracer.recording:                               # events state
            tracer.record("serve.admit", req=req.id)
    """

    def __init__(self, level: str = "off") -> None:
        self._ring: deque[Record] = deque(maxlen=CAPACITY)
        #: records that fell off the full ring since the last clear,
        #: counted without a lock: threads that record at the instant the
        #: ring fills may push out a record or two uncounted
        self.dropped = 0
        self._pid = os.getpid()
        self._set("off")
        self.enable(level)

    def _set(self, level: str) -> None:
        self.level = level
        #: hot-path guards: record() sites, span() sites
        self.recording = level != "off"
        self.enabled = level == "spans"

    def enable(self, level: str = "spans") -> "Tracer":
        """Raise the state to at least ``level`` (never lowers it)."""
        if level not in LEVELS:
            raise ValueError(
                f"unknown tracer level {level!r}; expected one of {LEVELS}"
            )
        if LEVELS.index(level) > LEVELS.index(self.level):
            self._set(level)
        return self

    def disable(self) -> "Tracer":
        """Stop recording (already-recorded events are kept)."""
        self._set("off")
        return self

    def __len__(self) -> int:
        return len(self._ring)

    # -- recording -----------------------------------------------------
    def _append(self, name: str, args: dict) -> Record:
        r = Record(name, now_us(), self._pid, threading.get_ident(), args)
        if len(self._ring) == CAPACITY:
            self.dropped += 1
        # one expression: a concurrent export_events(clear=True) swaps the
        # ring either before or after it, so no record is lost in between
        self._ring.append(r)
        return r

    def span(self, name: str, /, **args):
        """Context manager timing one named phase (spans state only)."""
        if not self.enabled:
            return NULL_SPAN
        return self._append(name, args)

    def record(self, name: str, /, **args):
        """Record an event (events state and up).  Returns the record, so
        ``with tracer.record(...):`` times it like a span.  The name is
        positional-only so args may carry a ``name`` or ``kind`` key."""
        if not self.recording:
            return NULL_SPAN
        return self._append(name, args)

    # -- inspection / merging ------------------------------------------
    def events(self, name: str | None = None) -> list[Record]:
        """Snapshot of the ring, oldest first (optionally one name)."""
        ring = list(self._ring)
        if name is None:
            return ring
        return [r for r in ring if r.name == name]

    def span_names(self) -> set[str]:
        return {r.name for r in self.events()}

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0

    def export_events(self, clear: bool = False) -> list[Record]:
        """Snapshot the ring (picklable) for cross-process transport."""
        if not clear:
            return list(self._ring)
        ring, self._ring = self._ring, deque(maxlen=CAPACITY)
        return list(ring)

    def ingest(self, events, pid: int | None = None) -> None:
        """Merge records drained from another process's ring (the parent
        calls this with every worker payload), tagged with its pid."""
        for r in events:
            if pid is not None:
                r.pid = pid
            if len(self._ring) == CAPACITY:
                self.dropped += 1
            self._ring.append(r)

    def _after_fork(self) -> None:
        self._pid = os.getpid()


#: the process-wide tracer; off by default so benches pay one branch.
_TRACER = Tracer()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_TRACER._after_fork)


def get_tracer() -> Tracer:
    """The process-wide :class:`Tracer` singleton (stable identity)."""
    return _TRACER


def enable(level: str = "spans") -> Tracer:
    """Raise the process-wide state to at least ``level``; returns the
    tracer."""
    return _TRACER.enable(level)


def disable() -> Tracer:
    """Turn recording off globally (already-recorded events are kept)."""
    return _TRACER.disable()
