"""GxM execution profiler.

The artifact appendix: "The GxM framework reports time per iteration and
img/s as console output ... the most important performance figures in case
of CNN training."  :class:`TaskProfiler` produces that per-iteration report
-- total time, img/s, per-pass and per-layer-type breakdowns -- by reading
the ``etg.step`` / ``etg.task`` records the ETG itself writes into the
process-wide tracer's ring (:mod:`repro.obs.tracer`): the profiler is a
*query* over that ring, not a second instrumented task walk.

Profiling a step raises the tracer to its ``"spans"`` state (and, like
every arming, never lowers it), so profiled steps also land in the
exported chrome trace.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.gxm.etg import ExecutionTaskGraph
from repro.obs.metrics import get_metrics
from repro.obs.tracer import enable, now_us

__all__ = ["TaskProfiler", "IterationProfile"]


@dataclass
class IterationProfile:
    """Timing of one training step."""

    total_s: float
    minibatch: int
    by_pass: dict[str, float] = field(default_factory=dict)
    by_type: dict[str, float] = field(default_factory=dict)
    by_task: dict[str, float] = field(default_factory=dict)

    @property
    def imgs_per_s(self) -> float:
        return self.minibatch / self.total_s if self.total_s > 0 else 0.0

    def report(self, top: int = 5) -> str:
        lines = [
            f"iteration: {self.total_s * 1e3:.1f} ms, "
            f"{self.imgs_per_s:.1f} img/s (minibatch {self.minibatch})"
        ]
        for name, t in sorted(self.by_pass.items()):
            lines.append(
                f"  {name:>8}: {t * 1e3:7.2f} ms "
                f"({100 * t / self.total_s:5.1f}%)"
            )
        lines.append("  costliest layer types:")
        for name, t in sorted(
            self.by_type.items(), key=lambda kv: -kv[1]
        )[:top]:
            lines.append(
                f"    {name:>14}: {t * 1e3:7.2f} ms "
                f"({100 * t / self.total_s:5.1f}%)"
            )
        return "\n".join(lines)


class TaskProfiler:
    """Profile ETG steps from the records the ETG writes per task.

    Usage::

        prof = TaskProfiler(etg)
        loss = prof.step(x, labels)
        print(prof.last.report())
    """

    def __init__(self, etg: ExecutionTaskGraph):
        self.etg = etg
        self.last: IterationProfile | None = None
        self.history: list[IterationProfile] = []

    def step(self, x: np.ndarray, labels: np.ndarray) -> float:
        """One profiled train step (functionally identical to
        ``etg.train_step`` -- it *is* ``etg.train_step``, observed)."""
        tracer = enable("spans")
        t0 = now_us()
        loss = self.etg.train_step(x, labels)
        # this step's records: this thread's, opened since t0 -- found by
        # time, not by ring position, so a full ring that wraps is fine
        pid, tid = os.getpid(), threading.get_ident()
        prof = self._aggregate(
            [r for r in tracer.events()
             if r.ts_us >= t0 and r.tid == tid and r.pid == pid],
            len(labels),
        )
        self.last = prof
        self.history.append(prof)
        get_metrics().set_gauge("train.imgs_per_s", prof.imgs_per_s)
        return loss

    @staticmethod
    def _aggregate(events, minibatch: int) -> IterationProfile:
        by_task: dict[str, float] = {}
        by_pass: dict[str, float] = {}
        by_type: dict[str, float] = {}
        total = 0.0
        for r in events:
            if r.name == "etg.step":
                total = r.dur_us / 1e6
            elif r.name == "etg.task":
                dt = r.dur_us / 1e6
                key = f"{r.args['layer']}:{r.args['pass']}"
                by_task[key] = by_task.get(key, 0.0) + dt
                by_pass[r.args["pass"]] = (
                    by_pass.get(r.args["pass"], 0.0) + dt
                )
                by_type[r.args["type"]] = (
                    by_type.get(r.args["type"], 0.0) + dt
                )
        return IterationProfile(
            total_s=total,
            minibatch=minibatch,
            by_pass=by_pass,
            by_type=by_type,
            by_task=by_task,
        )
