"""Ring repair: the root-side replica, membership and epoch
bookkeeping behind the repair that completes an aborted step.

The repair protocol (driven by ``ProcessParallelTrainer``):

1. any rank that detects a failure mid-collective (checksum mismatch,
   hop timeout, dead peer) reports a typed ``cerr`` to the root instead
   of a result;
2. the root **bumps the epoch** -- every straggling in-flight bucket of
   the old epoch is now stale and gets dropped at whoever receives it;
3. the attributed culprit is killed (its state is untrusted), every
   survivor is sent an ``abort`` and returns its *local* shard
   gradients over its root pipe;
4. the step then completes exactly like a root-mode step: the root
   re-runs every lost shard on its own replica and folds all N shards
   in rank order (:func:`~repro.collective.ring.fold_ring`), so the
   step is bit-identical to a healthy one, and broadcasts the folded
   average (``fold``) so the survivors' replicas stay bitwise in
   lockstep;
5. the dead are respawned (bounded) and marked in ``needs_sync``; the
   mesh is marked stale, so the next step syncs the fresh replicas and
   rewires fresh connections for the new epoch.

No step is ever half-applied: workers only touch their weights on an
explicit commit, and the root commits its replica in the same barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Membership"]


@dataclass
class Membership:
    """Root-side view of the workers' replicas and peer mesh."""

    nodes: int
    #: bumped on every repair/rewire; stale-epoch traffic is dropped
    epoch: int = 0
    #: the mesh must be rewired before the next collective step
    stale: bool = True
    #: ranks whose weight/velocity replicas need a fresh broadcast
    needs_sync: set = field(default_factory=set)
    #: rank -> AF_UNIX listener address (refreshed on every spawn)
    addresses: dict = field(default_factory=dict)

    def reset_all(self) -> None:
        self.stale = True
        self.needs_sync = set(range(self.nodes))
