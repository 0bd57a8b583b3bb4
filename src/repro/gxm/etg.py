"""The Execution Task Graph: compile + execute (section II-L).

``ExecutionTaskGraph`` compiles a topology through the Fig. 3 pipeline and
executes one training step as the ETG's task order: every node contributes a
FWD task, a BWD task and (for gradient-exchange node types) an UPD task.
Tensors and gradients flow through name-keyed pools; after the NL Extender
every tensor has exactly one consumer, so gradient routing needs no
reductions outside Split nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.machine import SKX, MachineConfig
from repro.gxm.graph import TaskRef, compile_etg
from repro.gxm.nodes import ConvNode, LossNode, Node, build_node, output_shape
from repro.gxm.topology import TopologySpec
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.types import Pass, ReproError

__all__ = ["ExecutionTaskGraph", "Task"]

Task = TaskRef


@dataclass
class _TensorPools:
    acts: dict
    grads: dict


class ExecutionTaskGraph:
    """Executable form of a topology.

    Parameters
    ----------
    topo:
        The network list (builder or parsed text).
    input_shape:
        ``(N, C, H, W)`` of the Data layer (drives shape inference and
        weight allocation).
    engine:
        ``"fast"`` or ``"blocked"`` convolution engine (see
        :mod:`repro.gxm.nodes`).
    execution_tier:
        Kernel-stream execution tier for ``"blocked"`` conv nodes -- an
        :class:`~repro.jit.ExecutionTier` or its string spelling
        (``"compiled"``/``"interpret"``; ``None`` = process default).
    tuned:
        Forwarded to :func:`repro.conv.make_engine` for every
        ``"blocked"`` conv node: ``True`` / a path / a
        :class:`~repro.tune.TuningDatabase` consults the tuning database
        for each layer's blocking plan, falling back to the paper
        heuristics per layer when no validated entry exists.
    """

    def __init__(
        self,
        topo: TopologySpec,
        input_shape: tuple[int, int, int, int],
        engine: str = "fast",
        machine: MachineConfig = SKX,
        threads: int = 1,
        seed: int = 0,
        fuse: bool = False,
        execution_tier: str | None = None,
        tuned=False,
    ):
        if fuse:
            from repro.gxm.fusion_pass import fuse_topology

            topo = fuse_topology(topo)
        self.topology = topo
        self.enl, self.tasks = compile_etg(topo)
        self.input_shape = input_shape
        rng = np.random.default_rng(seed)

        # shape inference over the extended NL (it is in dataflow order
        # after compile; walk producer-first)
        self._producer: dict[str, str] = {}
        for layer in self.enl.layers:
            for t in layer.tops:
                self._producer[t] = layer.name
        shapes: dict[str, tuple] = {}
        self.nodes: dict[str, Node] = {}
        for layer in self.enl.layers:
            if layer.type == "Data":
                in_shapes = [input_shape]
            else:
                in_shapes = [shapes[b] for b in layer.bottoms]
            out = output_shape(layer, in_shapes)
            if layer.type == "Split":
                for t in layer.tops:
                    shapes[t] = out
            else:
                for t in layer.tops:
                    shapes[t] = out
            self.nodes[layer.name] = build_node(
                layer, in_shapes, engine, machine, threads, rng,
                execution_tier=execution_tier,
                tuned=tuned,
            )
        self.shapes = shapes
        self._loss_nodes = [
            n for n in self.nodes.values() if isinstance(n, LossNode)
        ]
        if not self._loss_nodes:
            raise ReproError("topology has no SoftmaxWithLoss layer")
        self._pools = _TensorPools({}, {})
        #: optional ``hook(layer_name)`` invoked right after each UPD task
        #: lands that layer's weight gradients -- the overlap seam the
        #: collective all-reduce (:mod:`repro.collective`) hangs buckets
        #: off, so communication starts while backprop is still running.
        self.grad_hook = None

    # ------------------------------------------------------------------
    def params(self) -> list[np.ndarray]:
        out = []
        for n in self.nodes.values():
            out.extend(n.params())
        return out

    def grads(self) -> list[np.ndarray]:
        out = []
        for n in self.nodes.values():
            out.extend(n.grads())
        return out

    @property
    def loss(self) -> float:
        return self._loss_nodes[0].loss

    def accuracy(self) -> float:
        return self._loss_nodes[0].accuracy()

    def output_probabilities(self) -> np.ndarray:
        """Class probabilities of the loss head after the latest forward
        pass -- the public face of the softmax output (inference callers
        must not reach into loss-node internals)."""
        return self._loss_nodes[0].layer.probabilities

    # ------------------------------------------------------------------
    def train_step(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Run every ETG task once (FWD + BWD + UPD); returns the loss."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("etg.step", minibatch=len(labels)):
                self._run(x, labels, training=True)
        else:
            self._run(x, labels, training=True)
        get_metrics().inc("etg.steps")
        return self.loss

    def forward_only(self, x: np.ndarray, labels: np.ndarray | None = None):
        """Inference: only the FWD tasks (the ETG for inference, II-L)."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("etg.forward", minibatch=len(x)):
                self._run(x, labels, training=False)
        else:
            self._run(x, labels, training=False)
        return self.loss if labels is not None else None

    def predict(self, x: np.ndarray):
        """Forward-only execution returning class probabilities."""
        self.forward_only(x, None)
        return self.output_probabilities()

    # ------------------------------------------------------------------
    def _run(self, x, labels, training: bool) -> None:
        acts: dict[str, np.ndarray] = {}
        grads: dict[str, np.ndarray] = {}
        for ln in self._loss_nodes:
            ln.labels = labels
        tracer = get_tracer()
        for task in self.tasks:
            layer = self.enl.layer(task.layer)
            node = self.nodes[task.layer]
            if tracer.enabled:
                with tracer.span(
                    "etg.task",
                    **{"layer": task.layer, "pass": task.pass_.name,
                       "type": layer.type},
                ):
                    self._exec_task(task, layer, node, acts, grads, x,
                                    training)
            else:
                self._exec_task(task, layer, node, acts, grads, x, training)
        self._pools = _TensorPools(acts, grads)

    def _exec_task(self, task, layer, node, acts, grads, x, training) -> None:
        """Execute one ETG task against the name-keyed tensor pools."""
        if task.pass_ is Pass.FWD:
            if layer.type == "Data":
                acts[layer.tops[0]] = x
                return
            ins = [acts[b] for b in layer.bottoms]
            out = node.forward(*ins)
            if layer.type == "Split":
                for t, o in zip(layer.tops, out):
                    acts[t] = o
            else:
                acts[layer.tops[0]] = out
        elif task.pass_ is Pass.BWD:
            if not training:
                return
            if isinstance(node, LossNode):
                grads[layer.bottoms[0]] = node.backward()
                return
            if layer.type == "Split":
                dys = [grads[t] for t in layer.tops]
                grads[layer.bottoms[0]] = node.backward(*dys)
                return
            dy = grads.get(layer.tops[0])
            if dy is None:
                raise ReproError(
                    f"missing gradient for {layer.tops[0]!r}"
                )
            if isinstance(node, ConvNode) and self._is_data(layer.bottoms[0]):
                # a Data top keeps no gradient: skip the input gradient
                node.keep_grad(dy)
                return
            dx = node.backward(dy)
            if layer.type in ("Eltwise", "Concat"):
                for b, d in zip(layer.bottoms, dx):
                    grads[b] = d
            elif layer.bottoms:
                if layer.bottoms[0] in self._producer and not self._is_data(
                    layer.bottoms[0]
                ):
                    grads[layer.bottoms[0]] = dx
        else:  # UPD
            if training:
                node.update()
                if self.grad_hook is not None:
                    self.grad_hook(task.layer)

    def _is_data(self, tensor: str) -> bool:
        prod = self._producer.get(tensor)
        return prod is not None and self.enl.layer(prod).type == "Data"
