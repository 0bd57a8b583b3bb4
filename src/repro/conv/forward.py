"""Blocked forward propagation engine (Algorithms 2-5).

:class:`DirectConvForward` is the paper's forward-convolution layer object:

1. at construction it picks a blocking plan (section II-B/C), JITs the needed
   microkernel variants through the kernel cache (section II-D/H), and
   *dryruns* the Algorithm-4 loop nest once per thread, recording kernel
   streams and RLE segments (section II-H);
2. each call replays the streams (Algorithm 5) -- branch-free dispatch
   through the variant table, fused operators applied via APPLY records while
   the output block is hot (section II-G).

Every microkernel invocation is realized from the *same* descriptor through
one of the two execution tiers (:mod:`repro.jit.tiers`):

* ``compiled`` (default) -- the µop program vectorized once into a batched
  numpy closure (:mod:`repro.jit.compile`), bit-identical to the
  interpreter;
* ``interpret`` -- the instruction-level µop interpreter (exact memory
  traces; orders of magnitude slower).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.arch.machine import SKX, MachineConfig
from repro.conv.blocking import BlockingPlan, choose_blocking
from repro.conv.fusion import EltwiseAdd, FusedOp
from repro.conv.params import ConvParams
from repro.jit.codegen import ConvKernelDesc, generate_conv_kernel
from repro.jit.compile import resolve_execution_tier
from repro.jit.interpreter import execute_kernel
from repro.jit.kernel_cache import KernelCache, get_default_cache
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.partition import partition_forward
from repro.quant.qkernels import CHAIN_LIMIT_PAIRS
from repro.streams.replay import replay
from repro.streams.stream import KernelStream
from repro.tensor.blocked import BlockedTensor, block_activations, block_weights
from repro.tensor.layout import ActivationLayout, WeightLayout
from repro.types import DType, ShapeError

__all__ = ["DirectConvForward"]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class DirectConvForward:
    """One forward-convolution layer, set up once and replayed per minibatch.

    Parameters
    ----------
    params:
        Layer shape (Table I row).
    machine:
        Target machine; decides VLEN, instruction selection (fused memory
        operands vs 4FMA) and the blocking heuristics.
    fused_ops:
        Post-operators applied via APPLY stream records after the final
        ``c_b`` accumulation of each output sub-tensor (section II-G).
    threads:
        Simulated thread count; each thread gets its own kernel stream.
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
        self.fused_ops = list(fused_ops)
        self.threads = max(1, threads)
        self.plan = plan or choose_blocking(params, machine, dtype)
        self.prefetch = prefetch
        self.cache = (kernel_cache if kernel_cache is not None
                      else get_default_cache())
        self.execution_tier = resolve_execution_tier(execution_tier)

        p = params
        vlen = self.plan.vlen
        self.in_layout = ActivationLayout(n=p.N, c=p.C, h=p.Hp, w=p.Wp, vlen=vlen)
        self.w_layout = WeightLayout(k=p.K, c=p.C, r=p.R, s=p.S, vlen=vlen)
        self.out_layout = ActivationLayout(n=p.N, c=p.K, h=p.P, w=p.Q, vlen=vlen)
        self.cb = p.C // vlen
        self.kb = p.K // vlen
        self.pb = _ceil_div(p.P, self.plan.rb_p)
        self.qb = _ceil_div(p.Q, self.plan.rb_q)

        self._descs: list[ConvKernelDesc] = []
        self._desc_index: dict[tuple, int] = {}
        self.programs = []  # µop programs, parallel to self._descs
        self.compiled = []  # CompiledKernel | None, parallel to self._descs
        self._build_variants()
        metrics = get_metrics()
        with get_tracer().span(
            "conv.dryrun", pass_="fwd", layer=params.describe(),
            threads=self.threads,
        ):
            self._dryrun()
        metrics.inc("conv.streams_recorded", len(self.streams))
        metrics.inc("conv.engines_built")
        metrics.inc(
            "conv.segments_recorded", sum(len(s) for s in self.segments)
        )

    # ------------------------------------------------------------------
    # variant construction (section II-D/H)
    # ------------------------------------------------------------------
    def _variant_id(self, rb_p: int, rb_q: int, zero_init: bool) -> int:
        key = (rb_p, rb_q, zero_init)
        return self._desc_index[key]

    def _build_variants(self) -> None:
        plan, p = self.plan, self.params
        ist = self.in_layout.strides
        wst = self.w_layout.strides
        ost = self.out_layout.strides
        cb_unroll = self.cb if plan.loop_order == "cb_inner" else 1
        shapes = set()
        rps = [plan.rb_p] + ([plan.rb_p_rem] if plan.has_remainder_p else [])
        rqs = [plan.rb_q] + ([plan.rb_q_rem] if plan.has_remainder_q else [])
        for rp in rps:
            for rq in rqs:
                shapes.add((rp, rq))
        inits = [True] if cb_unroll == self.cb else [True, False]
        q16 = self.dtype is DType.QI16F32
        for rp, rq in sorted(shapes):
            for zi in inits:
                desc = ConvKernelDesc(
                    vlen=plan.vlen,
                    rb_p=rp,
                    rb_q=rq,
                    R=p.R,
                    S=p.S,
                    stride=p.stride,
                    i_strides=(ist[1], ist[2], ist[3]),
                    w_strides=(wst[1], wst[2], wst[3], wst[4]),
                    o_strides=(ost[2], ost[3]),
                    cb_unroll=cb_unroll,
                    zero_init=zi,
                    # the int16 body flushes into fp32 registers that live
                    # across the whole call, so it always hoists the output
                    hoist_output=plan.hoist_output or cb_unroll > 1 or q16,
                    fused_memop=(
                        not self.machine.has_4fma and self.dtype is DType.F32
                    ),
                    use_4fma=self.machine.has_4fma and self.dtype is DType.F32,
                    use_4vnni=self.machine.has_4fma and q16,
                    prefetch=self.prefetch,
                    dtype=self.dtype,
                    # int16: flush the int32 chain every CHAIN_LIMIT_PAIRS
                    # VNNI ops (section II-K), as the perf model prices it
                    acc_chain_limit=CHAIN_LIMIT_PAIRS if q16 else 0,
                )
                self._desc_index[(rp, rq, zi)] = len(self._descs)
                self._descs.append(desc)
                self.programs.append(self.cache.get(desc, generate_conv_kernel))
                self.compiled.append(
                    self.cache.get_compiled(desc, generate_conv_kernel)
                )

    # ------------------------------------------------------------------
    # dryrun (section II-H)
    # ------------------------------------------------------------------
    def _block_coords(self, ojb: int, oib: int) -> tuple[int, int, int, int]:
        """(oj, oi, rb_p, rb_q) for block indices, honoring remainders."""
        plan, p = self.plan, self.params
        oj = ojb * plan.rb_p
        oi = oib * plan.rb_q
        rp = min(plan.rb_p, p.P - oj)
        rq = min(plan.rb_q, p.Q - oi)
        return oj, oi, rp, rq

    def _dryrun(self) -> None:
        plan, p = self.plan, self.params
        work = partition_forward(p.N, self.kb, self.pb, self.threads)
        cb_inner = plan.loop_order == "cb_inner"
        oj_chunk = max(1, plan.oj_block // plan.rb_p)
        streams = []
        for items in work:
            st = KernelStream()
            for item in items:
                n, kb = item.n, item.kb
                ojb_range = range(item.ojb_lo, item.ojb_hi)
                if cb_inner:
                    self._dryrun_cb_inner(st, n, kb, ojb_range)
                else:
                    self._dryrun_cb_outer(st, n, kb, ojb_range, oj_chunk)
            streams.append(st.freeze())
        self.streams = streams
        self.segments = [s.segments() for s in streams]

    def _record_applies(self, st: KernelStream, variant: int, kb: int, o_off: int) -> None:
        for op_idx in range(len(self.fused_ops)):
            st.record_apply(op_idx, o_off, kb, variant)

    def _dryrun_cb_inner(self, st: KernelStream, n: int, kb: int, ojb_range) -> None:
        p = self.params
        for ojb in ojb_range:
            for oib in range(self.qb):
                oj, oi, rp, rq = self._block_coords(ojb, oib)
                variant = self._variant_id(rp, rq, True)
                i_off = self.in_layout.offset(n, 0, oj * p.stride, oi * p.stride)
                w_off = self.w_layout.offset(kb, 0, 0, 0)
                o_off = self.out_layout.offset(n, kb, oj, oi)
                st.record_conv(variant, i_off, w_off, o_off)
                if self.fused_ops:
                    self._record_applies(st, variant, kb, o_off)

    def _dryrun_cb_outer(
        self, st: KernelStream, n: int, kb: int, ojb_range, oj_chunk: int
    ) -> None:
        """Algorithm 4 loop nest with spatial cache blocking (section II-C):
        output-row chunks are kept L2-resident across the whole c_b loop."""
        p = self.params
        ojbs = list(ojb_range)
        for c0 in range(0, len(ojbs), oj_chunk):
            chunk = ojbs[c0 : c0 + oj_chunk]
            for cb in range(self.cb):
                zero = cb == 0
                last = cb == self.cb - 1
                for ojb in chunk:
                    for oib in range(self.qb):
                        oj, oi, rp, rq = self._block_coords(ojb, oib)
                        variant = self._variant_id(rp, rq, zero)
                        i_off = self.in_layout.offset(
                            n, cb, oj * p.stride, oi * p.stride
                        )
                        w_off = self.w_layout.offset(kb, cb, 0, 0)
                        o_off = self.out_layout.offset(n, kb, oj, oi)
                        st.record_conv(variant, i_off, w_off, o_off)
                        if last and self.fused_ops:
                            self._record_applies(st, variant, kb, o_off)

    # ------------------------------------------------------------------
    # replay (Algorithm 5)
    # ------------------------------------------------------------------
    def __call__(
        self,
        x: BlockedTensor,
        w: BlockedTensor,
        out: BlockedTensor | None = None,
        parallel: bool = False,
    ) -> BlockedTensor:
        """Replay all thread streams on blocked buffers (Algorithm 5).

        With ``parallel=True`` the per-thread streams replay concurrently on
        a real thread pool -- safe because the section II-F partition gives
        every stream a disjoint set of output blocks (and numpy contractions
        release the GIL), so this demonstrates genuine shared-memory
        parallelism of the recorded streams.
        """
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "conv.replay", pass_="fwd", layer=self.params.describe(),
            ):
                out = self._execute(x, w, out, parallel)
        else:
            out = self._execute(x, w, out, parallel)
        metrics = get_metrics()
        metrics.inc("conv.fwd_calls")
        metrics.inc("stream.conv_calls", self.total_conv_calls)
        return out

    def _dequant_scale(self) -> float:
        """Runtime multiplier for ``VCVT`` immediates (int16 engine hook)."""
        return 1.0

    def _prepare_weights(self, w: BlockedTensor) -> BlockedTensor:
        """Kernel-facing weight buffer (int16 engine hook: VNNI packing)."""
        return w

    def _apply_ops(self, ob: np.ndarray) -> list[Callable]:
        """APPLY callbacks ``(o_off, kb, variant)`` for the fused ops; the
        variant id gives the output block's shape (section II-G)."""
        if not self.fused_ops:
            return []
        itemsize = ob.itemsize
        blocks = [
            ((d.rb_p, d.rb_q, d.vlen),
             (d.o_strides[0] * itemsize, d.o_strides[1] * itemsize, itemsize))
            for d in self._descs
        ]

        def make(op: FusedOp) -> Callable:
            def apply(o_off: int, kb: int, variant: int) -> None:
                shape, strides = blocks[variant]
                block = as_strided(ob[o_off:], shape, strides)
                if isinstance(op, EltwiseAdd):
                    other = as_strided(op.other_flat[o_off:], shape, strides)
                    op.apply_block(block, kb, other)
                else:
                    op.apply_block(block, kb)

            return apply

        return [make(op) for op in self.fused_ops]

    def _interp_kernel(self, vid: int, buffers: dict, scale: float):
        prog = self.programs[vid]

        def call(i_off, w_off, o_off, pi, pw, po) -> None:
            execute_kernel(
                prog,
                buffers,
                {
                    "I": i_off,
                    "W": w_off,
                    "O": o_off,
                    "I_pf": pi,
                    "W_pf": pw,
                    "O_pf": po,
                },
                scale=scale,
            )

        return call

    def _tier_kernels(
        self, tier: str, xb: np.ndarray, wb: np.ndarray, ob: np.ndarray
    ) -> list[Callable]:
        """Variant-indexed kernel table for one execution tier."""
        buffers = {"I": xb, "W": wb, "O": ob}
        scale = self._dequant_scale()
        if tier == "interpret":
            return [
                self._interp_kernel(vid, buffers, scale)
                for vid in range(len(self.programs))
            ]
        # compiled: any variant the translator rejected falls back to the
        # (equally exact) interpreter so tier semantics stay bitwise stable
        kernels: list[Callable] = []
        for vid, ck in enumerate(self.compiled):
            if ck is not None:
                kernels.append(
                    ck.bind(buffers, args=("I", "W", "O"), scale=scale)
                )
            else:
                get_metrics().inc("exec.compile_fallbacks")
                kernels.append(self._interp_kernel(vid, buffers, scale))
        return kernels

    def _run_streams(self, tier, xb, wb, ob, parallel) -> None:
        """Replay every thread stream on ``tier``'s kernel table."""
        kernels = self._tier_kernels(tier, xb, wb, ob)
        apply_ops = self._apply_ops(ob)
        jobs = list(zip(self.streams, self.segments))
        if parallel and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [
                    pool.submit(
                        replay, stream, segments, kernels, apply_ops,
                    )
                    for stream, segments in jobs
                ]
                for f in futures:
                    f.result()
        else:
            for stream, segments in jobs:
                replay(stream, segments, kernels, apply_ops)

    def _execute(
        self,
        x: BlockedTensor,
        w: BlockedTensor,
        out: BlockedTensor | None,
        parallel: bool,
    ) -> BlockedTensor:
        if x.layout != self.in_layout:
            raise ShapeError(
                f"input layout {x.layout} != expected {self.in_layout}"
            )
        if w.layout != self.w_layout:
            raise ShapeError(f"weight layout {w.layout} != {self.w_layout}")
        w = self._prepare_weights(w)
        if out is None:
            out = BlockedTensor(
                np.zeros(self.out_layout.size, dtype=self.dtype.np_accum),
                self.out_layout,
            )
        tier = self.execution_tier
        self._run_streams(tier, x.data, w.data, out.data, parallel)
        get_metrics().inc(f"exec.calls.{tier}", self.total_conv_calls)
        return out

    # ------------------------------------------------------------------
    # convenience and validation paths
    # ------------------------------------------------------------------
    def run_nchw(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Block logical inputs, execute, return logical (N, K, P, Q)."""
        p = self.params
        bx = block_activations(
            x, self.plan.vlen, pad_h=p.pad_h, pad_w=p.pad_w,
            dtype=self.dtype.np_input,
        )
        bw = block_weights(w, self.plan.vlen, dtype=self.dtype.np_input)
        return self(bx, bw).to_nchw()

    def execute_uops(
        self, x: BlockedTensor, w: BlockedTensor, out: BlockedTensor | None = None
    ) -> BlockedTensor:
        """Replay the identical streams through the µop interpreter (the
        ``interpret`` tier without going through ``__call__``'s metrics).

        Orders of magnitude slower than the compiled tier; the reference the
        equivalence tests compare against.
        """
        if out is None:
            out = BlockedTensor(
                np.zeros(self.out_layout.size, dtype=self.dtype.np_accum),
                self.out_layout,
            )
        w = self._prepare_weights(w)
        self._run_streams("interpret", x.data, w.data, out.data, False)
        return out

    # ------------------------------------------------------------------
    @property
    def total_conv_calls(self) -> int:
        return sum(s.conv_calls for s in self.streams)

    @property
    def variant_names(self) -> list[str]:
        return [d.variant_name for d in self._descs]
