"""repro.collective -- fault-tolerant overlapped all-reduce.

The paper's multi-node pillar (SS-GxM/MLSL, Georganas et al., SC'18):
data-parallel training where the gradient all-reduce *overlaps* the
remaining backward/update work instead of blocking after it.  This
package provides the peer-to-peer machinery behind
``ProcessParallelTrainer(allreduce="ring")``:

* :mod:`~repro.collective.channels` -- dedicated ``AF_UNIX`` peer
  connections (:class:`PeerHub`) and the framed, CRC-guarded hop format
  carrying a (step, epoch, bucket) header on every message;
* :mod:`~repro.collective.bucketing` -- deterministic landing-order
  gradient buckets (:class:`GradBucketer`) cut as each layer's UPD task
  fires the ETG ``grad_hook``;
* :mod:`~repro.collective.ring` -- the pipelined chain-ring topology
  (rank-order fold, bitwise identical to the root fold) and
  ``fold_ring``, the root fold that healthy ring steps match and
  degraded steps use;
* :mod:`~repro.collective.engine` -- the threaded :class:`RingEngine`
  (per-edge rx threads, per-hop timeouts, fault site
  ``collective.hop``);
* :mod:`~repro.collective.errors` -- typed :class:`CollectiveError`
  rejection of corrupt/stale/late/lost hops with culprit attribution;
* :mod:`~repro.collective.repair` -- replica-sync, membership and
  epoch bookkeeping behind the ring-repair protocol.

Workers keep weight replicas in both ``allreduce`` modes; a ring step
that cannot finish completes like a root-mode step (the root folds the
shard gradients and broadcasts the average), so one completion serves
root mode, the ring's fallback and ring repair.
"""

from repro.collective.bucketing import (
    BucketSpec,
    GradBucketer,
    layer_param_indices,
)
from repro.collective.channels import PeerHub, decode_bucket, send_bucket
from repro.collective.engine import PeerReceiver, RingEngine
from repro.collective.errors import (
    CollectiveError,
    CorruptBucket,
    HopTimeout,
    PeerGone,
    RingBuildError,
    StaleBucket,
)
from repro.collective.repair import Membership
from repro.collective.ring import fold_ring, ring_peers
from repro.collective.worker import CollectiveStepRunner

__all__ = [
    "BucketSpec",
    "CollectiveError",
    "CollectiveStepRunner",
    "CorruptBucket",
    "GradBucketer",
    "HopTimeout",
    "Membership",
    "PeerGone",
    "PeerHub",
    "PeerReceiver",
    "RingBuildError",
    "RingEngine",
    "StaleBucket",
    "decode_bucket",
    "fold_ring",
    "layer_param_indices",
    "ring_peers",
    "send_bucket",
]
