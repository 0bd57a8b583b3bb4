"""The Execution Task Graph: compile + execute (section II-L).

``ExecutionTaskGraph`` compiles a topology through the Fig. 3 pipeline and
executes one training step as the ETG's task order: every node contributes a
FWD task, a BWD task and (for gradient-exchange node types) an UPD task.
Tensors and gradients flow through name-keyed dicts local to one run; after
the NL Extender every tensor has exactly one consumer, so gradient routing
needs no reductions outside Split nodes.

Forward-only runs (:meth:`ExecutionTaskGraph.forward_only`) run the FWD
tasks alone and keep no backward state.  On the blocked engine they keep
the activations blocked between nodes (GxM's layout, section II-A): each
conv returns the :class:`~repro.tensor.BlockedTensor` its replay wrote,
eval BatchNorm, ReLU, Split and Eltwise pass it on, and the ETG converts
to NCHW only in front of a node that needs NCHW.  A node overwrites its
input only when the run allocated it and nothing else reads it: never the
caller's batch or a Split fan-out.
"""

from __future__ import annotations

import numpy as np

from repro.arch.machine import SKX, MachineConfig
from repro.gxm.graph import TaskRef, compile_etg
from repro.gxm.nodes import ConvNode, LossNode, Node, build_node, output_shape
from repro.gxm.topology import TopologySpec
from repro.layers.bn import BatchNorm2D
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.tensor.blocked import BlockedTensor
from repro.types import Pass, ReproError

__all__ = ["ExecutionTaskGraph", "Task"]

Task = TaskRef


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
        # forward-only plan: each FWD task's layer and node, and whether
        # the node may overwrite its first input (a Data top is the
        # caller's batch, a Split top is read by every fan-out)
        self._fwd_plan = []
        for task in self.tasks:
            if task.pass_ is not Pass.FWD:
                continue
            layer = self.enl.layer(task.layer)
            src = layer.bottoms and self.enl.layer(
                self._producer[layer.bottoms[0]])
            owned = bool(src) and src.type not in ("Data", "Split")
            self._fwd_plan.append((task, layer, self.nodes[task.layer], owned))
        #: nesting depth of :meth:`freeze` (entered InferenceSessions)
        self._frozen = 0
        self._thawed: list[tuple[np.ndarray, bool]] = []
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
    def freeze(self) -> None:
        """Make every parameter and BatchNorm statistic read-only, so the
        nodes may keep forms derived from them (blocked weights, eval
        BatchNorm constants) between forward-only calls.  Calls nest:
        :meth:`thaw` undoes the outermost one.  Entering an
        :class:`~repro.gxm.inference.InferenceSession` freezes its graph."""
        self._frozen += 1
        if self._frozen > 1:
            return
        arrays = self.params()
        for node in self.nodes.values():
            layer = getattr(node, "layer", None)
            if isinstance(layer, BatchNorm2D):
                arrays += [layer.running_mean, layer.running_var]
        self._thawed = [(a, a.flags.writeable) for a in arrays]
        for a in arrays:
            a.flags.writeable = False
        for node in self.nodes.values():
            node.freeze()

    def thaw(self) -> None:
        """Undo one :meth:`freeze`; the outermost drops what the nodes
        kept and makes the arrays writable again."""
        if not self._frozen:
            return
        self._frozen -= 1
        if self._frozen:
            return
        for node in self.nodes.values():
            node.thaw()
        for a, writeable in self._thawed:
            a.flags.writeable = writeable
        self._thawed = []

    def check_writable(self, what: str) -> None:
        """Refuse ``what`` (a write to the parameters) while frozen."""
        if self._frozen:
            raise ReproError(
                f"cannot {what}: the graph is frozen by an entered "
                "InferenceSession; exit it first"
            )

    # ------------------------------------------------------------------
    def train_step(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Run every ETG task once (FWD + BWD + UPD); returns the loss."""
        self.check_writable("run a training step")
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("etg.step", minibatch=len(labels)):
                self._run(x, labels)
        else:
            self._run(x, labels)
        get_metrics().inc("etg.steps")
        return self.loss

    def forward_only(self, x: np.ndarray, labels: np.ndarray | None = None):
        """Inference: only the FWD tasks (the ETG for inference, II-L)."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("etg.forward", minibatch=len(x)):
                self._run_forward(x, labels)
        else:
            self._run_forward(x, labels)
        return self.loss if labels is not None else None

    def predict(self, x: np.ndarray):
        """Forward-only execution returning class probabilities."""
        self.forward_only(x, None)
        return self.output_probabilities()

    # ------------------------------------------------------------------
    def _run(self, x, labels) -> None:
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
                    self._exec_task(task, layer, node, acts, grads, x)
            else:
                self._exec_task(task, layer, node, acts, grads, x)

    def _run_forward(self, x, labels) -> None:
        """The FWD tasks alone; each activation is dropped once its one
        consumer has run."""
        acts: dict = {}
        for ln in self._loss_nodes:
            ln.labels = labels
        tracer = get_tracer()
        for task, layer, node, owned in self._fwd_plan:
            if tracer.enabled:
                with tracer.span(
                    "etg.task",
                    **{"layer": task.layer, "pass": task.pass_.name,
                       "type": layer.type},
                ):
                    self._forward_task(layer, node, acts, x, False, owned)
            else:
                self._forward_task(layer, node, acts, x, False, owned)

    @staticmethod
    def _forward_task(layer, node, acts, x, train, owned=False) -> None:
        """One FWD task; its inputs leave ``acts`` (each has one consumer)."""
        if layer.type == "Data":
            acts[layer.tops[0]] = x
            return
        ins = [acts.pop(b) for b in layer.bottoms]
        if not node.takes_blocked:
            ins = [v.to_nchw() if isinstance(v, BlockedTensor) else v
                   for v in ins]
        out = node.forward(*ins, train=train, inplace=owned)
        if layer.type == "Split":
            for t, o in zip(layer.tops, out):
                acts[t] = o
        else:
            acts[layer.tops[0]] = out

    def _exec_task(self, task, layer, node, acts, grads, x) -> None:
        """Execute one training-step task against the name-keyed dicts."""
        if task.pass_ is Pass.FWD:
            self._forward_task(layer, node, acts, x, True)
        elif task.pass_ is Pass.BWD:
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
            node.update()
            if self.grad_hook is not None:
                self.grad_hook(task.layer)

    def _is_data(self, tensor: str) -> bool:
        prod = self._producer.get(tensor)
        return prod is not None and self.enl.layer(prod).type == "Data"
