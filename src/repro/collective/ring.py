"""The chain-ring topology and its root-side fold.

Per bucket, the reduce phase travels rank 0 -> 1 -> ... -> N-1, each rank
adding its own gradients to the incoming partial sum; the last rank
divides by N and the broadcast phase carries the average N-1 -> 0 -> 1
-> ... -> N-2 (:class:`~repro.collective.engine.RingEngine` runs it).
Like the classic ring, every link carries each bucket at most twice
(2N-2 hops per bucket); unlike the classic ring's reduce-scatter
rotation, the per-element fold order here is exactly rank order --
``(((g0 + g1) + g2) ... ) / N`` -- which is bitwise identical to the
root fold (:func:`fold_ring`) *and* to the in-process
``Trainer(nodes=k)`` data-parallel fold.  That is what lets a degraded
step (failed rank recomputed at the root) reproduce a healthy step's
weights bit-for-bit.
"""

from __future__ import annotations

__all__ = ["fold_ring", "ring_peers"]


def ring_peers(rank: int, nodes: int) -> set[int]:
    """The chain-ring neighbours of ``rank`` (both directions used)."""
    return {(rank - 1) % nodes, (rank + 1) % nodes} - {rank}


def fold_ring(shard_grads: list[list], divisor: int) -> list:
    """The root fold: sequential rank-order accumulation, one division
    at the end.  Bitwise identical to what
    :class:`~repro.collective.engine.RingEngine` produces across real
    processes."""
    acc = [g.copy() for g in shard_grads[0]]
    for grads in shard_grads[1:]:
        for a, g in zip(acc, grads):
            a += g
    for a in acc:
        a /= divisor
    return acc
