"""The replay phase: Algorithm 5.

``replay`` walks the RLE segments of a thread's frozen stream and dispatches
through two tables: ``kernels[variant](i_off, w_off, o_off, pi, pw, po)`` for
convolution calls and ``apply_ops[op](o_off, kb, variant)`` for fused
operators, where ``variant`` is the preceding conv call's variant id (an
APPLY record carries it in ``i_off``) so the operator can find its output
block's shape.  The prefetch arguments of call ``t`` are the compute offsets
of call ``t+1`` (Fig. 1); the final call prefetches its own operands,
matching the paper's convention that the last iteration has nothing new to
fetch.

The loop contains no boundary/fusion conditionals -- precisely the point of
the kernel-streams framework (section II-H).  Per-call bookkeeping is hoisted
to freeze time (:class:`~repro.streams.stream.FrozenStream` precomputes the
``next_conv`` prefetch-target array and Python-int offset mirrors), and when
a kernel exposes a ``.batch`` method (the compiled execution tier,
:mod:`repro.jit.compile`), each same-variant run inside a CONV-STREAK is
dispatched as one batched call over the run's offset slices instead of a
Python call per record.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.obs.tracer import Tracer, get_tracer
from repro.streams.rle import Segment, SegmentKind
from repro.streams.stream import FrozenStream

__all__ = ["replay"]

ConvKernel = Callable[[int, int, int, int, int, int], None]
ApplyOp = Callable[[int, int, int], None]


def replay(
    stream: FrozenStream,
    segments: Sequence[Segment],
    kernels: Sequence[ConvKernel],
    apply_ops: Sequence[ApplyOp],
    tracer: Tracer | None = None,
) -> int:
    """Execute one thread's recorded stream inside one ``stream.replay``
    span (on ``tracer``, default the process tracer); returns the number
    of conv calls."""
    tracer = tracer if tracer is not None else get_tracer()
    if tracer.enabled:
        with tracer.span("stream.replay", calls=len(stream)):
            return _replay(stream, segments, kernels, apply_ops)
    return _replay(stream, segments, kernels, apply_ops)


def _replay(
    stream: FrozenStream,
    segments: Sequence[Segment],
    kernels: Sequence[ConvKernel],
    apply_ops: Sequence[ApplyOp],
) -> int:
    kinds = stream.kinds_list
    i_off = stream.i_off_list
    w_off = stream.w_off_list
    o_off = stream.o_off_list
    next_conv = stream.next_conv_list
    conv_calls = 0
    for seg in segments:
        if seg.kind is SegmentKind.APPLY:
            t = seg.start
            apply_ops[seg.info](o_off[t], w_off[t], i_off[t])
            continue
        # CONV-STREAK: Algorithm 5's inner loop, split into same-variant runs
        stop = seg.start + seg.info
        lo = seg.start
        while lo < stop:
            variant = kinds[lo]
            hi = lo + 1
            while hi < stop and kinds[hi] == variant:
                hi += 1
            fn = kernels[variant]
            batch = getattr(fn, "batch", None)
            if batch is not None and hi - lo > 1:
                batch(
                    stream.i_off[lo:hi],
                    stream.w_off[lo:hi],
                    stream.o_off[lo:hi],
                )
            else:
                for t in range(lo, hi):
                    # prefetch args = next conv call's offsets (APPLYs skip)
                    nt = next_conv[t]
                    fn(
                        i_off[t], w_off[t], o_off[t],
                        i_off[nt], w_off[nt], o_off[nt],
                    )
            conv_calls += hi - lo
            lo = hi
    return conv_calls
