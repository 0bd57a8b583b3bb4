"""Backward propagation (section II-I).

The paper's key trick: for the two scenarios covering most contemporary CNN
layers, transform the weight tensor once and reuse the *forward* kernels:

1. ``stride == 1``: ``W'[c][k][-r][-s] = W[k][c][r][s]`` (swap feature maps,
   flip taps) turns the input-gradient update into a forward convolution of
   ``dO`` with "full" padding ``R-1-pad``.
2. ``R == S == 1``: the same swap (no flip needed) turns it into a 1x1
   forward convolution of ``dO`` whose outputs land on the stride grid of
   ``dI`` (the remaining rows/columns are zero).

Everything else falls back to Algorithm 7: a loop nest of small GEMMs
``dI[c,:] += W''[c,k] @ dO[k,:]`` over flipped taps, which cannot hoist the
output loads/stores out of the ``r, s`` loops -- the "small downside" the
paper notes (and the reason stride-2 3x3 layers would dip; ResNet-50 and
Inception-v3 have none).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arch.machine import SKX, MachineConfig
from repro.conv.blocking import BlockingPlan
from repro.conv.forward import DirectConvForward
from repro.conv.fusion import FusedOp
from repro.conv.params import ConvParams
from repro.jit.compile import resolve_execution_tier
from repro.jit.gemm import GemmDesc, generate_gemm_kernel
from repro.jit.kernel_cache import KernelCache, get_default_cache
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.tensor.blocked import BlockedTensor, block_activations, block_weights
from repro.tensor.layout import ActivationLayout
from repro.tensor.transforms import bwd_weight_transform
from repro.types import DType, UnsupportedError

__all__ = ["DirectConvBackward"]


class DirectConvBackward:
    """Input-gradient pass for one layer, built at setup time.

    ``mode`` is one of ``"duality"`` (stride-1 scenario), ``"duality_1x1"``
    (R=S=1 scenario) or ``"gemm"`` (Algorithm 7 fallback).

    ``fused_ops``, ``plan`` and ``prefetch`` configure the *dual* forward
    engine of the two duality scenarios (the plan applies to the
    transformed-weight forward convolution); the Algorithm-7 GEMM fallback
    supports neither fusion nor a forward blocking plan and raises
    :class:`UnsupportedError` if they are requested.
    """

    def __init__(
        self,
        params: ConvParams,
        machine: MachineConfig = SKX,
        *,
        dtype: DType = DType.F32,
        fused_ops: Sequence[FusedOp] = (),
        threads: int = 1,
        plan: BlockingPlan | None = None,
        prefetch: str = "both",
        kernel_cache: KernelCache | None = None,
        execution_tier: str | None = None,
    ) -> None:
        self.params = params
        self.machine = machine
        self.dtype = dtype
        self.threads = threads
        self.fused_ops = list(fused_ops)
        self.prefetch = prefetch
        self.cache = (kernel_cache if kernel_cache is not None
                      else get_default_cache())
        # the duality modes execute through the dual forward engine, which
        # honours the tier; the Algorithm-7 GEMM fallback is a pure-numpy
        # loop nest, so the tier is accepted but has no kernels to select.
        self.execution_tier = resolve_execution_tier(execution_tier)
        p = params
        self.vlen = machine.vlen(dtype)

        if p.stride == 1:
            self.mode = "duality"
            # forward conv of dO (N, K, P, Q) with W' (C, K, R, S),
            # full padding R-1-pad -> output (N, C, H, W)
            self.fwd_params = ConvParams(
                N=p.N,
                C=p.K,
                K=p.C,
                H=p.P,
                W=p.Q,
                R=p.R,
                S=p.S,
                stride=1,
                pad_h=p.R - 1 - p.pad_h,
                pad_w=p.S - 1 - p.pad_w,
            )
            self.engine = DirectConvForward(
                self.fwd_params, machine, dtype=dtype, threads=threads,
                fused_ops=self.fused_ops, plan=plan, prefetch=prefetch,
                kernel_cache=self.cache,
                execution_tier=self.execution_tier,
            )
        elif p.is_1x1():
            if p.pad_h or p.pad_w:
                raise UnsupportedError("padded 1x1 convolutions are not used")
            self.mode = "duality_1x1"
            self.fwd_params = ConvParams(
                N=p.N, C=p.K, K=p.C, H=p.P, W=p.Q, R=1, S=1, stride=1,
                pad_h=0, pad_w=0,
            )
            self.engine = DirectConvForward(
                self.fwd_params, machine, dtype=dtype, threads=threads,
                fused_ops=self.fused_ops, plan=plan, prefetch=prefetch,
                kernel_cache=self.cache,
                execution_tier=self.execution_tier,
            )
        else:
            if self.fused_ops:
                raise UnsupportedError(
                    "the Algorithm-7 GEMM fallback cannot fuse post-ops"
                )
            if plan is not None:
                raise UnsupportedError(
                    "the Algorithm-7 GEMM fallback takes no forward "
                    "blocking plan"
                )
            self.mode = "gemm"
            self.engine = None
            self._build_gemm_kernel()

        self.di_layout = ActivationLayout(
            n=p.N, c=p.C, h=p.Hp, w=p.Wp, vlen=self.vlen
        )

    # ------------------------------------------------------------------
    def _build_gemm_kernel(self) -> None:
        """µop GEMM variant for the Algorithm-7 fallback (used by the timing
        model and validated against the numpy path in tests)."""
        p = self.params
        vlen = self.vlen
        do_lay = ActivationLayout(n=p.N, c=p.K, h=p.P, w=p.Q, vlen=vlen)
        di_lay = ActivationLayout(n=p.N, c=p.C, h=p.Hp, w=p.Wp, vlen=vlen)
        self.gemm_desc = GemmDesc(
            vlen=vlen,
            k=vlen,
            n=p.Q,
            a_sk=vlen,  # W'' block: (k, c) with c unit stride
            b_sk=1,  # dO k-lane stride
            b_sn=do_lay.strides[3],  # next pixel
            c_sn=p.stride * di_lay.strides[3],  # dI columns on stride grid
        )
        self.gemm_program = self.cache.get(self.gemm_desc, generate_gemm_kernel)

    # ------------------------------------------------------------------
    def transform_weights(self, w: BlockedTensor) -> BlockedTensor:
        """Section II-I weight transform (done once per weight update)."""
        return bwd_weight_transform(w)

    def run_nchw(self, dy: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Compute dI from logical (N,K,P,Q) gradients and (K,C,R,S) weights."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "conv.replay", pass_="bwd", mode=self.mode,
                layer=self.params.describe(),
            ):
                return self._run_nchw(dy, w)
        return self._run_nchw(dy, w)

    def _run_nchw(self, dy: np.ndarray, w: np.ndarray) -> np.ndarray:
        p = self.params
        get_metrics().inc("conv.bwd_calls")
        bw = block_weights(w, self.vlen, dtype=self.dtype.np_input)
        wt = self.transform_weights(bw)
        if self.mode == "duality":
            fp = self.fwd_params
            bdy = block_activations(
                dy, self.vlen, pad_h=fp.pad_h, pad_w=fp.pad_w,
                dtype=self.dtype.np_input,
            )
            return self.engine(bdy, wt).to_nchw()
        if self.mode == "duality_1x1":
            bdy = block_activations(dy, self.vlen, dtype=self.dtype.np_input)
            core = self.engine(bdy, wt).to_nchw()  # (N, C, P, Q)
            di = np.zeros((p.N, p.C, p.H, p.W), dtype=core.dtype)
            di[:, :, :: p.stride, :: p.stride][:, :, : p.P, : p.Q] = core
            return di
        return self._run_gemm(dy, wt)

    def _run_gemm(self, dy: np.ndarray, wt: BlockedTensor) -> np.ndarray:
        """Algorithm 7: small GEMMs over flipped taps, accumulating into the
        padded dI buffer.  ``wt`` is the transformed weight tensor with
        layout ``(cb, kb, r, s, k, c)`` (spatial flip already applied)."""
        p = self.params
        vlen = self.vlen
        bdy = block_activations(dy, vlen, dtype=self.dtype.np_input)
        dov = bdy.view()  # (n, kb, P, Q, vlen_k)
        wv = wt.view()  # (cb, kb, r', s', k, c); r' = R-1-r already flipped
        kb_n = p.K // vlen
        cb_n = p.C // vlen
        dip = np.zeros((p.N, cb_n, p.Hp, p.Wp, vlen), dtype=np.float32)
        for n in range(p.N):
            for kb in range(kb_n):
                for cb in range(cb_n):
                    for oj in range(p.P):
                        ij = p.stride * oj
                        do_row = dov[n, kb, oj]  # (Q, vlen_k)
                        for r in range(p.R):
                            for s in range(p.S):
                                # A = W''[cb,kb,R-1-r,S-1-s]: (k, c)
                                a = wv[cb, kb, p.R - 1 - r, p.S - 1 - s]
                                # dI[n, cb, ij+r, s::stride (Q cols), :]
                                cview = dip[
                                    n, cb, ij + r, s : s + p.stride * p.Q : p.stride
                                ]
                                cview += do_row @ a  # (Q, c)
        if p.pad_h or p.pad_w:
            dip = dip[
                :, :, p.pad_h : p.pad_h + p.H, p.pad_w : p.pad_w + p.W, :
            ]
        n_, cbn, h, w_, v = dip.shape
        return np.ascontiguousarray(
            dip.transpose(0, 1, 4, 2, 3).reshape(n_, cbn * v, h, w_)
        )
