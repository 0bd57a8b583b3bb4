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
to freeze time: :class:`~repro.streams.stream.FrozenStream` precomputes the
``next_conv`` prefetch-target array, Python-int offset mirrors and, once per
store argument, the schedule of every CONV-STREAK
(:meth:`~repro.streams.stream.FrozenStream.schedule`): calls grouped by
(dependency round, variant), where a call's round is the number of earlier
calls in the streak that store to its block.  A group whose calls are the
cross product of its weight-side blocks and input rows is laid out as that
grid -- ``(1, H)`` input, ``(G, 1)`` row and ``(G, H)`` store offsets,
row-major -- and any other group as ``(B, 1)`` columns in recorded order
(:func:`~repro.streams.stream.round_grid`).

When every kernel of the table can run a round at once -- the compiled
execution tier's binds (:mod:`repro.jit.compile`), which name the offset
argument they store through as ``store_arg`` -- each group is one batched
``run_round`` dispatch, across variants (a ``c_b``-outer streak alternates
its zero-init and accumulate variants).  The dispatch hands the kernel
the group's ``memo`` too, where a compiled kernel keeps the strided
operand views it finds once for the group's offsets, so replay itself
hashes no offsets and builds no index arrays.  Groups run in order, so each
block's read-modify-write chain keeps its recorded order; the calls of a
group store to distinct blocks and read the stored tensor only inside
their own, so neither batching nor the grid's row-major order changes a
bit of recorded-order replay.  Any other table (the interpreter, trace-observed
binds, a compile fallback) replays the streak call by call in recorded
order with its prefetch arguments, so memory traces are exact.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.obs.tracer import get_tracer
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
) -> int:
    """Execute one thread's recorded stream inside one ``stream.replay``
    span; returns the number of conv calls.  ``segments`` is the stream's RLE
    (:meth:`~repro.streams.stream.FrozenStream.segments`)."""
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("stream.replay", calls=len(stream)):
            return _replay(stream, segments, kernels, apply_ops)
    return _replay(stream, segments, kernels, apply_ops)


def _store_arg(kernels: Sequence[ConvKernel]) -> int | None:
    """The offset argument every kernel of the table stores through, or
    ``None`` unless all of them run dependency rounds batched."""
    args = {getattr(fn, "store_arg", None) for fn in kernels}
    return args.pop() if len(args) == 1 else None


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
    store_arg = _store_arg(kernels)
    schedule = None if store_arg is None else stream.schedule(store_arg)
    conv_calls = 0
    for seg in segments:
        if seg.kind is SegmentKind.APPLY:
            t = seg.start
            apply_ops[seg.info](o_off[t], w_off[t], i_off[t])
            continue
        # CONV-STREAK: Algorithm 5's inner loop
        if schedule is not None:
            for group in schedule[seg.start]:
                variant, i, w, o = group
                kernels[variant].run_round(i, w, o, group.memo)
        else:
            for t in range(seg.start, seg.start + seg.info):
                # prefetch args = next conv call's offsets (APPLYs skip)
                nt = next_conv[t]
                kernels[kinds[t]](
                    i_off[t], w_off[t], o_off[t],
                    i_off[nt], w_off[nt], o_off[nt],
                )
        conv_calls += seg.info
    return conv_calls
