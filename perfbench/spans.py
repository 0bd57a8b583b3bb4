"""In-memory span recording around the program's public layer calls.

The benchmark's traced run wraps methods of the program's classes from
here -- nothing under ``src/`` changes -- and restores the originals
afterwards.  A span records the wrapped call's start and end, the
enclosing span on the same thread, and the time its child spans cover,
so a layer's *self time* is its duration minus that.

Wrappers time every call once installed; a span is kept only if it
ends while :attr:`SpanRecorder.recording` is set.  That way a worker
blocked in a wrapped call when recording starts still leaves a span.
"""

from __future__ import annotations

import functools
import threading
import time


class Span:
    __slots__ = ("kind", "obj", "info", "parent", "t0", "t1", "child")

    def __init__(self, kind: str, obj, parent: "Span | None"):
        self.kind = kind
        self.obj = obj
        self.info = None
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.child = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.dur - self.child


class SpanRecorder:
    """Installs timing wrappers; keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: type, attr: str, kind: str, note=None) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) with a
        timing wrapper.  ``note(obj, args, result)`` runs after the
        clock stops and stores what later analysis needs in ``info``."""
        original = owner.__dict__[attr]
        rec = self

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            stack = rec._stack()
            span = Span(kind, obj, stack[-1] if stack else None)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                out = original(obj, *args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.dur
            if rec.recording:
                if note is not None:
                    span.info = note(obj, args, out)
                rec.spans.append(span)
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest wrapper first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.recording = False
        self.restore()


def install_program_layers(rec: SpanRecorder) -> None:
    """Wrap the public entry points of each layer the workloads use."""
    from repro.conv.backward import DirectConvBackward
    from repro.conv.forward import DirectConvForward
    from repro.conv.upd import DirectConvUpd
    from repro.gxm import nodes
    from repro.gxm.trainer import SGD, Trainer
    from repro.resilience.watchdog import NumericsWatchdog
    from repro.serve.admission import AdmissionQueue
    from repro.serve.batcher import MicroBatcher
    from repro.serve.worker import EngineReplica

    # repro.serve
    rec.wrap(AdmissionQueue, "take", "serve.take",
             lambda obj, args, out: [r.id for r in out])
    rec.wrap(MicroBatcher, "build", "serve.batcher",
             lambda obj, args, out: {"rows": out[1], "bucket": out[2]})
    rec.wrap(MicroBatcher, "scatter", "serve.batcher")
    rec.wrap(EngineReplica, "run", "serve.run",
             lambda obj, args, out: args[1])
    # repro.gxm (+ the watchdog it calls from repro.resilience)
    rec.wrap(Trainer, "train_step", "train.step")
    rec.wrap(SGD, "step", "gxm.sgd")
    rec.wrap(NumericsWatchdog, "check", "resilience.watchdog")
    for cls in (nodes.ConvNode, nodes._LayerNode, nodes.SplitNode,
                nodes.EltwiseNode, nodes.ConcatNode, nodes.LossNode):
        for attr, kind in (("forward", "gxm.fwd"), ("backward", "gxm.bwd"),
                           ("update", "gxm.upd")):
            if attr in cls.__dict__:
                rec.wrap(cls, attr, kind)
    # repro.conv engines; __call__ is the blocked kernel-stream replay
    # nested in run_nchw, the remainder being NCHW<->blocked layout work
    rows = lambda obj, args, out: args[0].shape[0]  # noqa: E731
    for cls in (DirectConvForward, DirectConvBackward, DirectConvUpd):
        rec.wrap(cls, "run_nchw", "conv.run", rows)
    for cls in (DirectConvForward, DirectConvUpd):
        rec.wrap(cls, "__call__", "conv.kernel")
