"""Weight-gradient update pass (Algorithm 9, section II-J).

:class:`DirectConvUpd` blocks the spatial domain by ``B_P x B_Q`` (chosen so
the microkernel footprint stays cache-resident) and accumulates each
``VLEN_c x VLEN_k`` weight-gradient block with an outer-product microkernel
exposing VLEN independent FMA chains.

The parallelization strategy -- how many weight-gradient copies ``G`` to
keep, and how the feature-map task space is split within a copy group -- is
chosen at *dryrun* time from the section II-J bandwidth model
(:func:`repro.parallel.wu_strategies.choose_upd_strategy`) and actually
executed: the dryrun records, per simulated thread, a kernel stream of
``(variant, I-offset, dO-offset, dW-offset)`` calls into that thread's
gradient copy; execution replays the streams and performs the final copy
reduction -- the same dryrun/replay architecture the forward pass uses
(section II-H), so tests can verify every strategy agrees numerically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arch.machine import SKX, MachineConfig
from repro.conv.blocking import UpdBlockingPlan, choose_upd_blocking
from repro.conv.params import ConvParams
from repro.jit.compile import resolve_execution_tier
from repro.jit.interpreter import execute_kernel
from repro.jit.kernel_cache import KernelCache, get_default_cache
from repro.jit.upd_codegen import UpdKernelDesc, generate_upd_kernel
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.partition import split_range
from repro.parallel.wu_strategies import UpdStrategy, choose_upd_strategy
from repro.streams.replay import replay
from repro.tensor.blocked import BlockedTensor, block_activations
from repro.tensor.layout import ActivationLayout, WeightLayout
from repro.types import DType, UnsupportedError

__all__ = ["DirectConvUpd"]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class DirectConvUpd:
    """Weight-gradient pass for one layer."""

    def __init__(
        self,
        params: ConvParams,
        machine: MachineConfig = SKX,
        *,
        dtype: DType = DType.F32,
        fused_ops: Sequence = (),
        threads: int = 1,
        strategy: UpdStrategy | None = None,
        plan: UpdBlockingPlan | None = None,
        prefetch: str = "both",
        kernel_cache: KernelCache | None = None,
        execution_tier: str | None = None,
    ) -> None:
        if fused_ops:
            raise UnsupportedError(
                "the weight-gradient pass has no fusable post-ops"
            )
        self.params = params
        self.machine = machine
        self.dtype = dtype
        self.threads = max(1, threads)
        self.plan = plan or choose_upd_blocking(params, machine, dtype)
        self.strategy = strategy or choose_upd_strategy(
            params, machine, self.threads
        )
        #: accepted for keyword parity with the other engines; the Algorithm-9
        #: outer-product kernel issues no software prefetches.
        self.prefetch = prefetch
        self.cache = (kernel_cache if kernel_cache is not None
                      else get_default_cache())
        self.execution_tier = resolve_execution_tier(execution_tier)
        p = params
        vlen = self.plan.vlen
        self.vlen = vlen
        self.in_layout = ActivationLayout(n=p.N, c=p.C, h=p.Hp, w=p.Wp, vlen=vlen)
        self.do_layout = ActivationLayout(n=p.N, c=p.K, h=p.P, w=p.Q, vlen=vlen)
        self.dw_layout = WeightLayout(k=p.K, c=p.C, r=p.R, s=p.S, vlen=vlen)
        self._build_kernels()
        with get_tracer().span(
            "conv.dryrun", pass_="upd", layer=params.describe(),
            threads=self.threads,
        ):
            self._dryrun()
        metrics = get_metrics()
        metrics.inc("conv.engines_built")
        metrics.inc("conv.streams_recorded", len(self.streams))

    def _build_kernels(self) -> None:
        ist = self.in_layout.strides
        ost = self.do_layout.strides
        self.descs: list[UpdKernelDesc] = []
        bps = [self.plan.b_p] + (
            [self.plan.b_p_rem] if self.plan.b_p_rem else []
        )
        for bp in bps:
            self.descs.append(
                UpdKernelDesc(
                    vlen=self.vlen,
                    b_p=bp,
                    b_q=self.plan.b_q,
                    stride=self.params.stride,
                    i_strides=(ist[2], ist[3]),
                    o_strides=(ost[2], ost[3]),
                    dtype=self.dtype,
                )
            )
        self.programs = [
            self.cache.get(d, generate_upd_kernel) for d in self.descs
        ]
        self.compiled = [
            self.cache.get_compiled(d, generate_upd_kernel) for d in self.descs
        ]

    # ------------------------------------------------------------------
    # dryrun (section II-H applied to Algorithm 9)
    # ------------------------------------------------------------------
    def _variant_id(self, cur_bp: int) -> int:
        for i, d in enumerate(self.descs):
            if d.b_p == cur_bp:
                return i
        raise RuntimeError(f"no upd variant for B_P={cur_bp}")

    def _dryrun(self) -> None:
        """Record per-thread kernel streams into per-group gradient copies.

        Group ``g`` owns minibatch slice ``split_range(N, G)[g]``; within a
        group, threads split the ``(k_b, c_b)`` task space.  Stream record
        fields: ``i_off`` into I, ``o_off`` into dO, ``w_off`` into the
        group's dW *copy* (the replay binds each thread to its copy buffer).
        """
        from repro.streams.stream import KernelStream

        p = self.params
        vlen = self.vlen
        bp, bq = self.plan.b_p, self.plan.b_q
        pb = _ceil_div(p.P, bp)
        kb_n, cb_n = p.K // vlen, p.C // vlen
        g = max(1, min(self.strategy.ncopies, p.N, self.threads))
        group_threads = max(1, self.threads // g)
        self.ncopies = g
        self.streams = []
        self.stream_group = []
        n_slices = split_range(p.N, g)
        tasks = [(kb, cb) for kb in range(kb_n) for cb in range(cb_n)]
        for gi, (n_lo, n_hi) in enumerate(n_slices):
            for t_lo, t_hi in split_range(len(tasks), group_threads):
                st = KernelStream()
                for kb, cb in tasks[t_lo:t_hi]:
                    for n in range(n_lo, n_hi):
                        for ojb in range(pb):
                            oj = ojb * bp
                            cur_bp = min(bp, p.P - oj)
                            ij = p.stride * oj
                            variant = self._variant_id(cur_bp)
                            o_off = self.do_layout.offset(n, kb, oj, 0)
                            for r in range(p.R):
                                for s in range(p.S):
                                    i_off = self.in_layout.offset(
                                        n, cb, ij + r, s
                                    )
                                    w_off = self.dw_layout.offset(
                                        kb, cb, r, s
                                    )
                                    st.record_conv(variant, i_off, w_off, o_off)
                self.streams.append(st.freeze())
                self.stream_group.append(gi)

    # ------------------------------------------------------------------
    def __call__(self, x: BlockedTensor, dy: BlockedTensor) -> BlockedTensor:
        """Replay the recorded streams into the gradient copies, then reduce
        (each simulated thread reduces 1/T of the copies -- section II-J)."""
        tracer = get_tracer()
        get_metrics().inc("conv.upd_calls")
        if tracer.enabled:
            with tracer.span(
                "conv.replay", pass_="upd", layer=self.params.describe(),
                copies=self.ncopies,
            ):
                return self._execute(x, dy)
        return self._execute(x, dy)

    def _interp_kernel(self, prog, buffers):
        def call(i_off, w_off, o_off, pi, pw, po):
            execute_kernel(
                prog, buffers, {"I": i_off, "dW": w_off, "dO": o_off}
            )

        return call

    def _tier_kernels(self, tier, xb, dyb, dwb):
        """Per-variant kernel table bound to one gradient copy ``dwb``."""
        buffers = {"I": xb, "dO": dyb, "dW": dwb}
        if tier == "interpret":
            return [self._interp_kernel(p, buffers) for p in self.programs]
        kernels = []
        for vid, ck in enumerate(self.compiled):
            if ck is not None:
                kernels.append(ck.bind(buffers, args=("I", "dW", "dO")))
            else:
                get_metrics().inc("exec.compile_fallbacks")
                kernels.append(
                    self._interp_kernel(self.programs[vid], buffers)
                )
        return kernels

    def _execute(self, x: BlockedTensor, dy: BlockedTensor) -> BlockedTensor:
        xb, dyb = x.data, dy.data
        tier = self.execution_tier
        copies = [
            np.zeros(self.dw_layout.size, dtype=np.float32)
            for _ in range(self.ncopies)
        ]
        # each stream replays into its group's gradient copy, so the
        # per-copy accumulation order is the recorded sequential one
        for stream, gi in zip(self.streams, self.stream_group):
            kernels = self._tier_kernels(tier, xb, dyb, copies[gi])
            replay(stream, stream.segments(), kernels, [])
        total_calls = sum(len(s) for s in self.streams)
        metrics = get_metrics()
        metrics.inc("stream.conv_calls", total_calls)
        metrics.inc(f"exec.calls.{tier}", total_calls)
        dw = copies[0]
        for c in copies[1:]:
            dw = dw + c
        return BlockedTensor(
            dw.reshape(self.dw_layout.shape), self.dw_layout
        )

    def run_nchw(self, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Compute dW from logical tensors; returns (K, C, R, S)."""
        p = self.params
        bx = block_activations(
            x, self.vlen, pad_h=p.pad_h, pad_w=p.pad_w,
            dtype=self.dtype.np_input,
        )
        bdy = block_activations(dy, self.vlen, dtype=self.dtype.np_input)
        return self(bx, bdy).to_kcrs()
