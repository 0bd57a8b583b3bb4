"""Blocked int16 forward engine (section II-K through the full machinery).

:class:`QuantConvForward` subclasses the fp32 streams engine: same blocked
layouts, same dryrun/replay kernel streams, but the JIT'ed variants are the
VNNI kernels (``dtype=QI16F32``: packed-pair weights, int32 accumulators
flushed every :data:`~repro.quant.qkernels.CHAIN_LIMIT_PAIRS` VNNI ops --
4VNNIW form on KNM).  Both execution tiers raise
:class:`~repro.quant.qkernels.QuantOverflowError` when a flushed int32
accumulator has overflowed.

Register pressure halves the accumulator budget (int32+fp32 pairs), which
the blocking plan reflects -- exactly the paper's "restricted accumulation
chain limits the register data reuse".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arch.machine import KNM, MachineConfig
from repro.conv.blocking import BlockingPlan, choose_blocking
from repro.conv.forward import DirectConvForward
from repro.conv.fusion import FusedOp
from repro.conv.params import ConvParams
from repro.jit.kernel_cache import KernelCache
from repro.quant.qtensor import QuantTensor, quantize
from repro.tensor.blocked import BlockedTensor, block_activations, block_weights
from repro.tensor.transforms import vnni_pack_weights
from repro.types import DType, UnsupportedError

__all__ = ["QuantConvForward"]


class QuantConvForward(DirectConvForward):
    """int16 x int16 -> fp32 forward convolution with kernel streams."""

    def __init__(
        self,
        params: ConvParams,
        machine: MachineConfig = KNM,
        *,
        dtype: DType = DType.QI16F32,
        fused_ops: Sequence[FusedOp] = (),
        threads: int = 1,
        plan: BlockingPlan | None = None,
        prefetch: str = "both",
        kernel_cache: KernelCache | None = None,
        execution_tier: str | None = None,
    ) -> None:
        if dtype is not DType.QI16F32:
            raise UnsupportedError(
                f"QuantConvForward is the int16 engine; got dtype={dtype}"
            )
        # the restricted accumulation chain halves the register budget
        # (int32+fp32 pairs), which the default plan reflects; an explicit
        # plan overrides the cap at the caller's own risk.
        if plan is None:
            plan = choose_blocking(
                params, machine, DType.F32, acc_budget_cap=13
            )
        super().__init__(
            params,
            machine=machine,
            dtype=DType.QI16F32,
            fused_ops=fused_ops,
            threads=threads,
            plan=plan,
            prefetch=prefetch,
            kernel_cache=kernel_cache,
            execution_tier=execution_tier,
        )
        self._scale = 1.0  # set per invocation from the quantized operands

    def _dequant_scale(self) -> float:
        """Runtime dequantization factor applied by the compiled/interpreter
        tiers to every ``VCVT_I32F32`` flush (the descriptors bake in 1.0;
        the actual factor is known only once the operands are quantized)."""
        return self._scale

    def _prepare_weights(self, w: BlockedTensor) -> BlockedTensor:
        """All int16 kernels consume the VNNI pair layout (section II-K):
        adjacent reduction channels interleaved per output lane, so each
        weight vector covers one channel pair.  Packing is O(weights) per
        call -- the same once-per-invocation cost as the backward pass's
        weight transform."""
        return BlockedTensor(
            vnni_pack_weights(w).reshape(w.layout.shape), w.layout
        )

    # ------------------------------------------------------------------
    def run_quantized(
        self, qx: QuantTensor, qw: QuantTensor
    ) -> np.ndarray:
        """Blocked int16 execution from logical quantized tensors; returns
        the fp32 (N, K, P, Q) output."""
        p = self.params
        self._scale = qx.scale * qw.scale
        bx = block_activations(
            qx.data.reshape(p.N, p.C, p.H, p.W),
            self.plan.vlen, pad_h=p.pad_h, pad_w=p.pad_w, dtype=np.int16,
        )
        bw = block_weights(
            qw.data.reshape(p.K, p.C, p.R, p.S), self.plan.vlen,
            dtype=np.int16,
        )
        out = BlockedTensor(
            np.zeros(self.out_layout.size, dtype=np.float32), self.out_layout
        )
        return self(bx, bw, out).to_nchw()

    def run_nchw(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Quantize fp32 operands and execute (convenience)."""
        return self.run_quantized(quantize(x), quantize(w))
