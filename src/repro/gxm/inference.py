"""Inference mode (section II-L: "only the forward pass for inference").

``InferenceSession`` wraps a trained ETG: switches BatchNorm nodes to their
running statistics, freezes the parameters (so blocked weights and eval
BatchNorm constants are built once per session and never served stale),
runs only FWD tasks, and reports top-1/top-5 accuracy.
``fold_batchnorms`` additionally returns the per-conv fused scale/shift
parameters -- the tensors a fused conv+BN kernel (section II-G,
``BatchNormApply``) consumes at inference time; they compute the eval
BatchNorm with different rounding, so not its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.nodes import _LayerNode
from repro.layers.bn import BatchNorm2D

__all__ = ["InferenceSession", "fold_batchnorms"]


def fold_batchnorms(etg: ExecutionTaskGraph) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(gamma', beta') per BatchNorm node, ready for fused application."""
    folded = {}
    for name, node in etg.nodes.items():
        if isinstance(node, _LayerNode) and isinstance(node.layer, BatchNorm2D):
            folded[name] = node.layer.folded_scale_shift()
    return folded


@dataclass
class EvalResult:
    loss: float
    top1: float
    top5: float
    n: int


class InferenceSession:
    """Forward-only execution over a trained graph.

    Entering the session switches every BatchNorm node to its running
    statistics and freezes the graph
    (:meth:`~repro.gxm.etg.ExecutionTaskGraph.freeze`): its parameters
    and statistics are read-only, so a checkpoint load or a training step
    on the graph raises :class:`~repro.types.ReproError` until the
    outermost session exits.  Exiting restores whatever mode each node
    was in *at entry*.  Entries nest (the same graph may be wrapped by
    several sessions, or one session re-entered) and restoration is
    driven by the ``with`` protocol, so an exception inside the block
    cannot leave the graph stuck in evaluation mode -- and an inner exit
    cannot flip the layers back to training while an outer session is
    still active.
    """

    def __init__(self, etg: ExecutionTaskGraph):
        self.etg = etg
        self._bns = [
            node.layer
            for node in etg.nodes.values()
            if isinstance(node, _LayerNode) and isinstance(node.layer, BatchNorm2D)
        ]
        #: stack of per-entry saved ``training`` flags (LIFO restore)
        self._saved_modes: list[list[bool]] = []

    def __enter__(self) -> "InferenceSession":
        self._saved_modes.append([bn.training for bn in self._bns])
        for bn in self._bns:
            bn.training = False
        self.etg.freeze()
        return self

    def __exit__(self, *exc) -> None:
        if not self._saved_modes:
            return
        for bn, mode in zip(self._bns, self._saved_modes.pop()):
            bn.training = mode
        self.etg.thaw()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for one batch."""
        return self.etg.predict(x)

    def evaluate(self, dataset, batch_size: int) -> EvalResult:
        """Loss and top-1/top-5 accuracy over one pass of the dataset."""
        losses, top1, top5, n = [], 0, 0, 0
        for x, y in dataset.batches(batch_size, epochs=1):
            loss = self.etg.forward_only(x, y)
            losses.append(loss * len(y))
            probs = self.etg.output_probabilities()
            order = np.argsort(-probs, axis=1)
            top1 += int((order[:, 0] == y).sum())
            k = min(5, probs.shape[1])
            top5 += int((order[:, :k] == y[:, None]).any(axis=1).sum())
            n += len(y)
        return EvalResult(
            loss=sum(losses) / n, top1=top1 / n, top5=top5 / n, n=n
        )
