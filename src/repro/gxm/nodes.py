"""Runtime nodes: the executable form of each layer spec.

ConvNode is the bridge to this library's core: its three tasks run the
forward, backward-by-duality and weight-update convolutions.  Two engines
are offered: ``"fast"`` (the vectorized reference semantics, a BLAS
convolution on NCHW arrays) and ``"blocked"`` (the kernel-stream engines
of :mod:`repro.conv`; on the default ``compiled`` tier their replay is
vectorized numpy and BLAS, bitwise equal to the µop interpreter, and it
is the engine perfbench serves and trains on).

Every node's ``forward(*xs)`` is the training forward: NCHW arrays in and
out, keeping what ``backward`` needs.  The ETG's forward-only runs call
``forward(*xs, train=False, inplace=...)`` instead: nothing is kept for
a backward pass, a blocked conv takes and returns a
:class:`~repro.tensor.BlockedTensor`, eval-mode BatchNorm, ReLU, Split and
Eltwise pass either layout through, and ``inplace`` says the node may
overwrite its first input (the ETG owns it and nothing else reads it).
"""

from __future__ import annotations

import numpy as np

from repro.arch.machine import SKX, MachineConfig
from repro.conv.params import ConvParams
from repro.conv.reference import (
    conv2d_backward_data,
    conv2d_forward,
    conv2d_update_weights,
)
from repro.gxm.topology import LayerSpec
from repro.layers import (
    AvgPool2D,
    BatchNorm2D,
    EltwiseSum,
    GlobalAvgPool,
    Linear,
    MaxPool2D,
    ReLULayer,
    SoftmaxCrossEntropy,
    Split,
    batchnorm_eval,
    relu,
)
from repro.tensor.blocked import BlockedTensor, block_activations, block_weights
from repro.types import ReproError, ShapeError

__all__ = ["Node", "ConvNode", "build_node", "output_shape"]


def _conv_geometry(spec: LayerSpec) -> tuple[int, int, int, int]:
    """(R, S, pad_h, pad_w) supporting square and asymmetric filters."""
    if "kernel" in spec.attrs:
        r = s = spec.attrs["kernel"]
    else:
        r = spec.attrs["kernel_h"]
        s = spec.attrs["kernel_w"]
    ph = spec.attrs.get("pad", spec.attrs.get("pad_h", (r - 1) // 2))
    pw = spec.attrs.get("pad", spec.attrs.get("pad_w", (s - 1) // 2))
    return r, s, ph, pw


class Node:
    """Base runtime node: wraps a LayerSpec and a Layer-like object."""

    def __init__(self, spec: LayerSpec):
        self.spec = spec
        self.name = spec.name
        self._frozen = False

    #: forward-only runs may hand this node a BlockedTensor
    takes_blocked = False

    def forward(self, *xs, train: bool = True, inplace: bool = False):
        raise NotImplementedError

    def backward(self, *dys):
        raise NotImplementedError

    def freeze(self) -> None:
        """The parameters are read-only until :meth:`thaw`: forms derived
        from them may be kept between forward-only calls."""
        self._frozen = True

    def thaw(self) -> None:
        """Drop whatever :meth:`freeze` let the node keep."""
        self._frozen = False

    def update(self) -> None:
        """Weight-gradient task (UPD); default layers have none."""

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []


class ConvNode(Node):
    """Convolution layer: FWD/BWD/UPD tasks over this library's kernels."""

    def __init__(
        self,
        spec: LayerSpec,
        in_shape: tuple[int, int, int, int],
        engine: str = "fast",
        machine: MachineConfig = SKX,
        threads: int = 1,
        rng: np.random.Generator | None = None,
        execution_tier: str | None = None,
        tuned=False,
    ):
        super().__init__(spec)
        rng = rng or np.random.default_rng(0)
        n, c, h, w = in_shape
        k = spec.attrs["num_output"]
        rh, rw, ph, pw = _conv_geometry(spec)
        stride = spec.attrs.get("stride", 1)
        self.p = ConvParams(
            N=n, C=c, K=k, H=h, W=w, R=rh, S=rw, stride=stride,
            pad_h=ph, pad_w=pw,
        )
        bound = (2.0 / (c * rh * rw)) ** 0.5
        self.weight = (
            rng.standard_normal((k, c, rh, rw)) * bound
        ).astype(np.float32)
        self.dweight = np.zeros_like(self.weight)
        self.engine = engine
        self.machine = machine
        self.threads = threads
        #: section II-G: ReLU applied while the output block is hot; the
        #: backward mask is reconstructed from this node's own output
        self.fused_relu = bool(spec.attrs.get("fused_relu", False))
        self._x = None
        self._dy = None
        self._y = None
        #: blocked weights kept while frozen, and the array they came from
        self._wb: BlockedTensor | None = None
        self._wb_src: np.ndarray | None = None
        self._execution_tier = execution_tier
        # BWD/UPD engines are built lazily on first use: their dryruns are
        # pure waste for forward-only graphs (inference serving), and a
        # training run pays them once at its first backward step anyway
        self._bwd = None
        self._upd = None
        if engine == "blocked":
            from repro.conv.engine import make_engine
            from repro.conv.fusion import ReLU as FusedReLU
            from repro.types import Pass

            fused_ops = [FusedReLU()] if self.fused_relu else []
            self._fwd = make_engine(
                Pass.FWD, self.p, machine=machine, threads=threads,
                fused_ops=fused_ops, execution_tier=execution_tier,
                tuned=tuned,
            )
        elif engine != "fast":
            raise ReproError(f"unknown conv engine {engine!r}")

    def _bwd_engine(self):
        if self._bwd is None:
            from repro.conv.engine import make_engine
            from repro.types import Pass

            self._bwd = make_engine(
                Pass.BWD, self.p, machine=self.machine,
                threads=self.threads, execution_tier=self._execution_tier,
            )
        return self._bwd

    def _upd_engine(self):
        if self._upd is None:
            from repro.conv.engine import make_engine
            from repro.types import Pass

            self._upd = make_engine(
                Pass.UPD, self.p, machine=self.machine,
                threads=self.threads, execution_tier=self._execution_tier,
            )
        return self._upd

    def _params_for(self, n: int) -> ConvParams:
        """The fast engine accepts any minibatch; the blocked engine was set
        up for a fixed N (kernel streams are recorded per layer setup)."""
        if n == self.p.N:
            return self.p
        if self.engine == "blocked":
            raise ShapeError(
                f"blocked conv {self.name!r} was set up for N={self.p.N}, "
                f"got N={n}; rebuild the ETG for the new minibatch"
            )
        return self.p.with_minibatch(n)

    @property
    def takes_blocked(self) -> bool:
        return self.engine == "blocked"

    def forward(self, x, train: bool = True, inplace: bool = False):
        """Training: NCHW in and out (the blocked engine through
        ``run_nchw``), the input kept for UPD.  Forward-only on the
        blocked engine: takes NCHW or a BlockedTensor and returns the
        BlockedTensor its replay wrote."""
        n = x.layout.n if isinstance(x, BlockedTensor) else x.shape[0]
        p = self._params_for(n)
        if self.engine == "blocked":
            if train:
                y = self._fwd.run_nchw(x, self.weight)
            else:
                y = self._fwd(self._blocked_input(x), self._blocked_weight())
        else:
            y = conv2d_forward(x, self.weight, p)
            if self.fused_relu:
                relu(y, out=y)
        if train:
            self._x = x
            if self.fused_relu:
                self._y = y
        return y

    def _blocked_input(self, x) -> BlockedTensor:
        """``x`` in the forward engine's padded input layout: an NCHW
        batch is blocked once; a blocked activation is used as it is, or
        re-padded with one blocked-to-blocked copy."""
        eng = self._fwd
        lay, p = eng.in_layout, self.p
        if isinstance(x, BlockedTensor):
            if x.layout == lay:
                return x
            if x.layout.vlen == lay.vlen and not (x.pad_h or x.pad_w):
                buf = np.zeros(lay.shape, dtype=eng.dtype.np_input)
                buf[:, :, p.pad_h:lay.h - p.pad_h,
                    p.pad_w:lay.w - p.pad_w] = x.view()
                return BlockedTensor(buf, lay, p.pad_h, p.pad_w)
            x = x.to_nchw()
        return block_activations(x, lay.vlen, p.pad_h, p.pad_w,
                                 dtype=eng.dtype.np_input)

    def _blocked_weight(self) -> BlockedTensor:
        """The weights in the engine's layout, blocked once while the
        node is frozen and on every call otherwise."""
        if self._wb is not None and self._wb_src is self.weight:
            return self._wb
        wb = block_weights(self.weight, self._fwd.plan.vlen,
                           dtype=self._fwd.dtype.np_input)
        if self._frozen:
            self._wb, self._wb_src = wb, self.weight
        return wb

    def thaw(self) -> None:
        super().thaw()
        self._wb = self._wb_src = None

    def keep_grad(self, dy: np.ndarray) -> None:
        """Keep what UPD needs of the output gradient: ``dy`` behind the
        fused ReLU's mask.  The whole backward task of a node whose input
        gradient nobody reads (Caffe's ``propagate_down: false``)."""
        if self.fused_relu:
            # reconstruct the ReLU mask from the fused output: positions
            # clamped to zero pass no gradient
            dy = relu(dy, self._y > 0).astype(np.float32, copy=False)
        self._dy = dy

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.keep_grad(dy)
        dy = self._dy
        p = self._params_for(dy.shape[0])
        if self.engine == "blocked":
            return self._bwd_engine().run_nchw(dy, self.weight)
        return conv2d_backward_data(dy, self.weight, p)

    def update(self) -> None:
        p = self._params_for(self._x.shape[0])
        if self.engine == "blocked":
            self.dweight[:] = self._upd_engine().run_nchw(self._x, self._dy)
        else:
            self.dweight[:] = conv2d_update_weights(self._x, self._dy, p)

    def params(self):
        return [self.weight]

    def grads(self):
        return [self.dweight]


def _elementwise(x, fn, inplace: bool):
    """Run ``fn(src, out)`` over an NCHW array or a BlockedTensor's
    blocked view, into ``x`` itself when ``inplace`` and into a new
    buffer otherwise; returns the result in ``x``'s layout."""
    src = x.view() if isinstance(x, BlockedTensor) else x
    out = src if inplace else np.empty(src.shape, src.dtype)
    fn(src, out)
    if inplace:
        return x
    if isinstance(x, BlockedTensor):
        return BlockedTensor(out, x.layout, x.pad_h, x.pad_w)
    return out


def _in_layout_of(v, first: BlockedTensor) -> np.ndarray:
    """``v`` (NCHW or blocked) as a flat buffer in ``first``'s layout."""
    if isinstance(v, BlockedTensor):
        if v.layout == first.layout:
            return v.data
        v = v.to_nchw()
    return block_activations(v, first.layout.vlen).data


class _LayerNode(Node):
    """Wraps a stateless/stateful Layer with 1 input and 1 output."""

    def __init__(self, spec: LayerSpec, layer):
        super().__init__(spec)
        self.layer = layer
        #: eval BatchNorm constants kept while frozen: (shape key,
        #: source arrays, constants)
        self._consts = None

    @property
    def takes_blocked(self) -> bool:
        layer = self.layer
        return isinstance(layer, ReLULayer) or (
            isinstance(layer, BatchNorm2D) and not layer.training)

    def forward(self, x, train: bool = True, inplace: bool = False):
        layer = self.layer
        if train:
            return layer.forward(x)
        if isinstance(layer, ReLULayer):
            return _elementwise(x, lambda v, out: relu(v, out=out), inplace)
        if isinstance(layer, BatchNorm2D):
            if layer.training or (
                    not isinstance(x, BlockedTensor) and x.dtype != np.float32):
                return layer.forward(x, cache=False)
            consts = self._bn_constants(x)
            return _elementwise(
                x, lambda v, out: batchnorm_eval(v, *consts, out=out),
                inplace)
        return layer.forward(x)

    def _bn_constants(self, x) -> tuple[np.ndarray, ...]:
        """The eval constants shaped for ``x``'s layout: ``(1, C, 1, 1)``
        vectors for NCHW, ``(1, C/VLEN, 1, W, VLEN)`` rows for a blocked
        activation, so numpy's inner loop runs over W * VLEN contiguous
        elements instead of VLEN.  Built once while frozen."""
        bn = self.layer
        src = (bn.running_mean, bn.running_var, bn.gamma, bn.beta)
        key = x.layout.shape[1:] if isinstance(x, BlockedTensor) else None
        kept = self._consts
        if kept is not None and kept[0] == key and all(
                a is b for a, b in zip(kept[1], src)):
            return kept[2]
        consts = bn.eval_constants()
        if key is None:
            consts = tuple(c.reshape(1, -1, 1, 1) for c in consts)
        else:
            cb, _, w, vlen = key
            consts = tuple(
                np.ascontiguousarray(np.broadcast_to(
                    c.reshape(1, cb, 1, 1, vlen), (1, cb, 1, w, vlen)))
                for c in consts)
        if self._frozen:
            self._consts = (key, src, consts)
        return consts

    def thaw(self) -> None:
        super().thaw()
        self._consts = None

    def backward(self, dy):
        return self.layer.backward(dy)

    def params(self):
        return self.layer.params()

    def grads(self):
        return self.layer.grads()


class SplitNode(Node):
    takes_blocked = True

    def __init__(self, spec: LayerSpec):
        super().__init__(spec)
        self.layer = Split(spec.attrs["fanout"])

    def forward(self, x, train: bool = True, inplace: bool = False):
        self.layer.forward(x)
        return tuple(x for _ in range(self.layer.fanout))

    def backward(self, *dys):
        out = None
        for dy in dys:
            out = dy if out is None else out + dy
        return out


class EltwiseNode(Node):
    takes_blocked = True

    def __init__(self, spec: LayerSpec):
        super().__init__(spec)
        self.layer = EltwiseSum(len(spec.bottoms))

    def forward(self, *xs, train: bool = True, inplace: bool = False):
        """Adds into the first operand when ``inplace`` (a forward-only
        run that owns it), into a new buffer otherwise; operands in the
        other layout are converted to the first's."""
        first = xs[0]
        if isinstance(first, BlockedTensor):
            rest = [_in_layout_of(v, first) for v in xs[1:]]
        else:
            rest = [v.to_nchw() if isinstance(v, BlockedTensor) else v
                    for v in xs[1:]]
        return _elementwise(first, lambda src, out: self.layer.forward(
            src, *(v.reshape(src.shape) for v in rest), out=out), inplace)

    def backward(self, dy):
        return self.layer.backward(dy)


class ConcatNode(Node):
    def __init__(self, spec: LayerSpec):
        super().__init__(spec)
        from repro.layers.concat import Concat

        self.layer = Concat(len(spec.bottoms))

    def forward(self, *xs, train: bool = True, inplace: bool = False):
        return self.layer.forward(*xs)

    def backward(self, dy):
        return self.layer.backward(dy)


class LossNode(Node):
    def __init__(self, spec: LayerSpec):
        super().__init__(spec)
        self.layer = SoftmaxCrossEntropy()
        self.labels: np.ndarray | None = None
        self.loss: float = 0.0

    def forward(self, logits, train: bool = True, inplace: bool = False):
        self.loss = self.layer.forward(logits, self.labels)
        return self.loss

    def backward(self):
        return self.layer.backward()

    def accuracy(self):
        return self.layer.accuracy(self.labels)


def output_shape(spec: LayerSpec, in_shapes: list[tuple]) -> tuple:
    """Shape inference for the graph compiler."""
    t = spec.type
    if t == "Data":
        return in_shapes[0]
    s = in_shapes[0]
    if t == "Convolution":
        n, c, h, w = s
        k = spec.attrs["num_output"]
        r, sw_, ph, pw = _conv_geometry(spec)
        stride = spec.attrs.get("stride", 1)
        p = (h + 2 * ph - r) // stride + 1
        q = (w + 2 * pw - sw_) // stride + 1
        return (n, k, p, q)
    if t == "Concat":
        n, _, h, w = s
        return (n, sum(shape[1] for shape in in_shapes), h, w)
    if t in ("ReLU", "BatchNorm", "Split", "Eltwise"):
        return s
    if t in ("Pooling", "AvgPooling"):
        n, c, h, w = s
        k = spec.attrs["kernel"]
        stride = spec.attrs.get("stride", k)
        pad = spec.attrs.get("pad", 0)
        return (
            n,
            c,
            (h + 2 * pad - k) // stride + 1,
            (w + 2 * pad - k) // stride + 1,
        )
    if t == "GlobalPool":
        return (s[0], s[1])
    if t == "InnerProduct":
        return (s[0], spec.attrs["num_output"])
    if t == "SoftmaxWithLoss":
        return (s[0],)
    raise ShapeError(f"cannot infer shape for {t}")


def build_node(
    spec: LayerSpec,
    in_shapes: list[tuple],
    engine: str = "fast",
    machine: MachineConfig = SKX,
    threads: int = 1,
    rng: np.random.Generator | None = None,
    execution_tier: str | None = None,
    tuned=False,
) -> Node:
    """Instantiate the runtime node for a layer spec."""
    t = spec.type
    if t == "Data":
        return Node(spec)  # placeholder; the ETG feeds it directly
    if t == "Convolution":
        return ConvNode(
            spec, in_shapes[0], engine, machine, threads, rng,
            execution_tier=execution_tier, tuned=tuned,
        )
    if t == "ReLU":
        return _LayerNode(spec, ReLULayer())
    if t == "BatchNorm":
        return _LayerNode(spec, BatchNorm2D(in_shapes[0][1]))
    if t == "Pooling":
        return _LayerNode(
            spec,
            MaxPool2D(spec.attrs["kernel"], spec.attrs.get("stride"),
                      spec.attrs.get("pad", 0)),
        )
    if t == "AvgPooling":
        return _LayerNode(
            spec,
            AvgPool2D(spec.attrs["kernel"], spec.attrs.get("stride"),
                      spec.attrs.get("pad", 0)),
        )
    if t == "GlobalPool":
        return _LayerNode(spec, GlobalAvgPool())
    if t == "InnerProduct":
        return _LayerNode(
            spec, Linear(in_shapes[0][1], spec.attrs["num_output"], rng)
        )
    if t == "Eltwise":
        return EltwiseNode(spec)
    if t == "Concat":
        return ConcatNode(spec)
    if t == "Split":
        return SplitNode(spec)
    if t == "SoftmaxWithLoss":
        return LossNode(spec)
    raise ReproError(f"no runtime node for layer type {t!r}")
