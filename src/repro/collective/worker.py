"""The worker-side face of one collective training step.

``CollectiveStepRunner`` glues the three collective pieces together for
one (step, epoch): it hangs a :class:`GradBucketer` off the ETG's
``grad_hook`` so buckets are cut the moment each layer's UPD lands, and
feeds them to a running ring engine -- communication overlaps the
rest of backprop.  The worker main loop drives it::

    runner = CollectiveStepRunner(...)   # engine threads start now
    runner.attach()
    loss = etg.train_step(x, y)          # buckets stream out mid-step
    runner.detach_and_finish()           # leftovers + compute-done mark
    runner.engine.wait(t)                # wakes as it finishes or fails
    ... runner.engine.done / .failed and the root pipe ...
    avg = runner.engine.result_list()    # after done

On abort (ring repair) the runner is ``abandon()``'d: the engine's
threads detach and the next step builds a fresh runner on the new
epoch's connections.
"""

from __future__ import annotations

from repro.collective.bucketing import GradBucketer
from repro.collective.engine import RingEngine
from repro.collective.ring import ring_peers

__all__ = ["CollectiveStepRunner"]


class CollectiveStepRunner:
    def __init__(self, *, rank: int, nodes: int, step: int,
                 epoch: int, conns: dict, receiver, etg,
                 layer_indices: dict, bucket_bytes: int,
                 hop_timeout: float, injector=None,
                 corrupt_first: bool = False):
        self._etg = etg
        params = etg.params()
        self._bucketer = GradBucketer(
            layer_indices, [p.nbytes for p in params], bucket_bytes
        )
        self.engine = RingEngine(
            rank=rank, nodes=nodes, step=step, epoch=epoch,
            peers={p: conns[p] for p in ring_peers(rank, nodes)},
            receiver=receiver,
            param_shapes=[p.shape for p in params],
            hop_timeout=hop_timeout, injector=injector,
            corrupt_first=corrupt_first,
        )
        self.engine.start()

    def step_stats(self) -> dict:
        """The engine's hop/byte/overlap stats plus the epoch receiver's
        stale-drop count (reported with the done reply)."""
        stats = dict(self.engine.stats)
        stats["stale_dropped"] = self.engine.receiver.stale_dropped
        return stats

    def attach(self) -> None:
        self._etg.grad_hook = self._on_layer_landed

    def _on_layer_landed(self, layer: str) -> None:
        arrays = self._etg.nodes[layer].grads()
        for spec, bucket in self._bucketer.land(layer, arrays):
            self.engine.feed(spec, bucket)

    def detach_and_finish(self) -> None:
        """Compute is done: flush the remainder and mark the boundary
        between overlapped and exposed communication."""
        self._etg.grad_hook = None
        for spec, bucket in self._bucketer.finish(self._etg.grads()):
            self.engine.feed(spec, bucket)
        self.engine.finish()

    def abandon(self) -> None:
        self._etg.grad_hook = None
        self.engine.abandon()
