"""Kernel streams (section II-H): dryrun, run-length encoding, replay.

During layer setup each thread *dryruns* the convolution loop nest, recording
only the kernel variant and the input/weight/output sub-tensor offsets of
every call (plus APPLY records for fused operators).  The recorded stream is
run-length encoded into CONV-STREAK / APPLY segments (Fig. 2), and execution
becomes the branch-free *replay* loop of Algorithm 5, with each call's
prefetch arguments taken from the next record (Fig. 1's
``pi_off_i = i_off_{i+1}`` identity).
"""

from repro.streams.stream import KernelStream, CONV_CALL, APPLY_CALL
from repro.streams.rle import Segment, SegmentKind, encode_segments
from repro.streams.replay import replay

__all__ = [
    "KernelStream",
    "CONV_CALL",
    "APPLY_CALL",
    "Segment",
    "SegmentKind",
    "encode_segments",
    "replay",
]
