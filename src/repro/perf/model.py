"""Per-layer performance estimation for this work and MKL-DNN.

``ConvPerfModel`` prices one convolution layer on one machine for each pass,
by (1) JIT-generating the exact microkernel the engine would use and timing
its µop stream, (2) running the traffic analysis for the blocked loop nest,
(3) applying the section II-F/II-J parallelization, and (4) combining the
resource times with the partial-overlap roofline.

Two implementations live here because they share all machinery:

* ``"thiswork"`` -- the paper's kernels: fused memory operands (SKX) or 4FMA
  (KNM), remainder variants, streams replay (low call overhead), optional
  fusion, two-level prefetch.
* ``"mkl"`` -- MKL-DNN v0.12 as the paper characterizes it (section III):
  same core ideas, but on SKX it avoids fused memory operands via more
  aggressive output-channel blocking (faster compute ceiling, up to ~20 %),
  has no kernel streams (higher per-call dispatch/branch overhead) and no
  fusion; on KNM the instruction sequence is identical to this work.

The im2col / small-GEMM / autovec baselines build on this module from
:mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.machine import MachineConfig
from repro.conv.blocking import (
    BlockingPlan,
    choose_blocking,
    choose_upd_blocking,
)
from repro.conv.params import ConvParams
from repro.jit.codegen import ConvKernelDesc, generate_conv_kernel
from repro.jit.gemm import GemmDesc, generate_gemm_kernel
from repro.jit.kernel_cache import get_default_cache
from repro.jit.timing import time_kernel
from repro.jit.upd_codegen import UpdKernelDesc, generate_upd_kernel
from repro.parallel.wu_strategies import choose_upd_strategy
from repro.perf.traffic import TrafficEstimate, forward_traffic, upd_traffic
from repro.quant.qkernels import CHAIN_LIMIT_PAIRS
from repro.types import DType, Pass

__all__ = ["LayerPerf", "ConvPerfModel"]

#: extra per-call dispatch cycles without kernel streams (branchy prefetch/
#: fusion/boundary logic of section II-H) -- the replay loop avoids these.
BRANCHY_CALL_OVERHEAD = 60.0


@dataclass
class LayerPerf:
    """Estimated execution of one layer pass on a full socket/chip."""

    params: ConvParams
    machine: str
    impl: str
    pass_: Pass
    dtype: DType
    time_s: float
    flops: float
    bound: str
    parts: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0

    @property
    def efficiency(self) -> float:
        return self.notes.get("efficiency", 0.0)


def combine_parts(
    parts: dict[str, float], alpha: float
) -> tuple[float, str]:
    """Partial-overlap roofline: binding time plus a calibrated fraction of
    the non-binding work that cannot hide under it."""
    bound = max(parts, key=parts.get)
    t_max = parts[bound]
    t_sum = sum(parts.values())
    return t_max + alpha * (t_sum - t_max), bound


class ConvPerfModel:
    """Performance model for one machine."""

    def __init__(self, machine: MachineConfig, threads: int | None = None):
        self.machine = machine
        self.threads = threads or machine.cores
        self.cache = get_default_cache()

    # ------------------------------------------------------------------
    def _plan(self, p: ConvParams, dtype: DType, impl: str) -> BlockingPlan:
        if dtype is DType.QI16F32:
            # fp32+int32 accumulator pairs double register pressure (II-K)
            return choose_blocking(p, self.machine, DType.F32, acc_budget_cap=13)
        if impl == "mkl" and not self.machine.has_4fma and p.K >= 2 * self.machine.vlen():
            # output-channel blocking: kb_unroll=2 halves the RB_Q budget
            return choose_blocking(p, self.machine, DType.F32, acc_budget_cap=13)
        return choose_blocking(p, self.machine, DType.F32)

    def _fwd_desc(
        self, p: ConvParams, plan: BlockingPlan, dtype: DType, impl: str,
        fused: tuple[str, ...] = (),
    ) -> ConvKernelDesc:
        vlen = plan.vlen
        cb = p.C // vlen
        # strides of the standard layouts (values only matter relatively)
        i_strides = (p.Hp * p.Wp * vlen, p.Wp * vlen, vlen)
        w_strides = (p.R * p.S * vlen * vlen, p.S * vlen * vlen, vlen * vlen, vlen)
        o_strides = (p.Q * vlen, vlen)
        kb_unroll = 2 if (impl == "mkl" and not self.machine.has_4fma and p.K >= 2 * vlen) else 1
        return ConvKernelDesc(
            vlen=vlen,
            rb_p=plan.rb_p,
            rb_q=plan.rb_q,
            R=p.R,
            S=p.S,
            stride=p.stride,
            i_strides=i_strides,
            w_strides=w_strides,
            o_strides=o_strides,
            cb_unroll=cb if plan.loop_order == "cb_inner" else 1,
            kb_unroll=kb_unroll,
            w_skb=p.C // vlen * p.R * p.S * vlen * vlen if kb_unroll > 1 else 0,
            o_skb=p.P * p.Q * vlen if kb_unroll > 1 else 0,
            zero_init=True,
            hoist_output=True,
            fused_memop=(
                impl == "thiswork"
                and not self.machine.has_4fma
                and dtype is DType.F32
            ),
            use_4fma=self.machine.has_4fma and dtype is DType.F32,
            use_4vnni=self.machine.has_4fma and dtype is DType.QI16F32,
            fused=fused,
            prefetch="both",
            dtype=dtype,
            acc_chain_limit=CHAIN_LIMIT_PAIRS if dtype is DType.QI16F32 else 0,
        )

    # ------------------------------------------------------------------
    def estimate_forward(
        self,
        p: ConvParams,
        impl: str = "thiswork",
        dtype: DType = DType.F32,
        fused: tuple[str, ...] = (),
        prefetch: bool = True,
        streams: bool = True,
    ) -> LayerPerf:
        """Forward-pass estimate (Figs. 4, 6, 8a)."""
        m = self.machine
        t = self.threads
        plan = self._plan(p, dtype, impl)
        if impl == "mkl":
            fused = ()  # "fusion ... today is not available in vendor's libraries"
            streams = False
        desc = self._fwd_desc(p, plan, dtype, impl, fused)
        prog = self.cache.get(desc, generate_conv_kernel)
        call_overhead = 30.0 + (0.0 if streams else BRANCHY_CALL_OVERHEAD)
        kt = time_kernel(prog, m, call_overhead=call_overhead)

        vlen = plan.vlen
        kb = p.K // vlen
        cbf = 1 if plan.loop_order == "cb_inner" else p.C // vlen
        pb = -(-p.P // plan.rb_p)
        qb = -(-p.Q // plan.rb_q)
        if desc.kb_unroll > 1:
            kb_calls = -(-kb // desc.kb_unroll)
        else:
            kb_calls = kb
        calls_total = p.N * kb_calls * cbf * pb * qb
        # imbalance: ceil division of work items over threads
        items = p.N * kb_calls * pb
        imbalance = -(-items // t) * t / items
        calls_core = calls_total / t * imbalance

        # throughput x work + per-call overhead: remainder variants (II-H)
        # do proportionally less work, so compute time is priced per flop of
        # the main variant's steady-state rate, not per call.
        cycles_per_flop = (kt.cycles - call_overhead) / prog.flops
        t_comp = (
            p.flops / t * imbalance * cycles_per_flop
            + calls_core * call_overhead
        ) / m.freq_hz
        traffic = forward_traffic(p, plan, m, t, dtype)
        parts = self._parts(t_comp, traffic)
        if impl == "mkl" and not m.has_4fma:
            # v0.12 lacked streaming stores on several SKX paths: output
            # writes pay read-for-ownership -- the source of this work's
            # 1.1-1.2x wins on the write-bound layers (section III-A);
            # on KNM the instruction sequences are identical (III-B)
            parts["mem_write"] = parts.get("mem_write", 0.0) * 1.5
        if not prefetch:
            # exposed miss latency: ~8 outstanding misses hide the rest
            lines = (traffic.l2_read + traffic.llc_read + traffic.mem_read) / 64
            parts["miss_latency"] = lines / t * 20e-9 / 8
        time_s, bound = combine_parts(parts, m.overlap_alpha)
        flops = p.flops
        perf = LayerPerf(
            params=p,
            machine=m.name,
            impl=impl,
            pass_=Pass.FWD,
            dtype=dtype,
            time_s=time_s,
            flops=flops,
            bound=bound,
            parts=parts,
            notes={
                "kernel_bottleneck": kt.bottleneck,
                "kernel_efficiency": kt.efficiency(m),
                "calls_core": calls_core,
                "efficiency": flops / time_s / (m.peak_flops_core * t),
                **traffic.notes,
            },
        )
        return perf

    # ------------------------------------------------------------------
    def estimate_backward(
        self,
        p: ConvParams,
        impl: str = "thiswork",
        dtype: DType = DType.F32,
    ) -> LayerPerf:
        """Backward-pass estimate (Figs. 5a, 7a, 8b): duality reuses the
        forward model on the transposed problem; the Algorithm-7 fallback
        pays un-hoisted output traffic."""
        m = self.machine
        if p.stride == 1:
            fp = ConvParams(
                N=p.N, C=p.K, K=p.C, H=p.P, W=p.Q, R=p.R, S=p.S, stride=1,
                pad_h=p.R - 1 - p.pad_h, pad_w=p.S - 1 - p.pad_w,
            )
            perf = self.estimate_forward(fp, impl=impl, dtype=dtype)
        elif p.is_1x1():
            fp = ConvParams(
                N=p.N, C=p.K, K=p.C, H=p.P, W=p.Q, R=1, S=1, stride=1,
                pad_h=0, pad_w=0,
            )
            perf = self.estimate_forward(fp, impl=impl, dtype=dtype)
            # stride-2 expansion: dI is stride^2 larger than the kernels'
            # natural output -- extra write bandwidth (the Fig. 5a dips)
            extra_write = (p.stride**2 - 1) * fp.N * fp.K * fp.P * fp.Q * 4
            parts = dict(perf.parts)
            if m.llc_bytes and extra_write * p.stride**2 <= 0.75 * m.llc_bytes:
                parts["llc_write"] = parts.get("llc_write", 0.0) + extra_write / self.threads / m.llc_bw
            else:
                parts["mem_write"] = parts.get("mem_write", 0.0) + extra_write / m.mem_write_bw
            time_s, bound = combine_parts(parts, m.overlap_alpha)
            perf = LayerPerf(
                params=p, machine=m.name, impl=impl, pass_=Pass.BWD,
                dtype=dtype, time_s=time_s, flops=p.flops, bound=bound,
                parts=parts,
                notes={**perf.notes,
                       "efficiency": p.flops / time_s / (m.peak_flops_core * self.threads)},
            )
            return perf
        else:
            return self._estimate_bwd_gemm(p, impl, dtype)
        return LayerPerf(
            params=p, machine=m.name, impl=impl, pass_=Pass.BWD, dtype=dtype,
            time_s=perf.time_s, flops=p.flops, bound=perf.bound,
            parts=perf.parts, notes=perf.notes,
        )

    def _estimate_bwd_gemm(self, p: ConvParams, impl: str, dtype: DType) -> LayerPerf:
        """Algorithm 7: small GEMMs, output loads/stores not hoisted."""
        m = self.machine
        t = self.threads
        vlen = m.vlen(dtype)
        desc = GemmDesc(
            vlen=vlen, k=vlen, n=p.Q,
            a_sk=vlen, b_sk=1, b_sn=vlen, c_sn=p.stride * vlen,
        )
        prog = self.cache.get(desc, generate_gemm_kernel)
        kt = time_kernel(prog, m)
        calls = p.N * (p.K // vlen) * (p.C // vlen) * p.P * p.R * p.S
        t_comp = calls / t * kt.cycles / m.freq_hz
        # traffic: dI blocks read+written per (r, s, k_b) -- R*S*Kb re-reads
        isz = dtype.input_itemsize
        di_bytes = p.N * p.C * p.Hp * p.Wp * 4
        do_bytes = p.N * p.K * p.P * p.Q * isz
        w_bytes = p.K * p.C * p.R * p.S * isz
        est = TrafficEstimate()
        redundancy = p.R * p.S * (p.K // vlen)
        est.l2_read += redundancy * di_bytes + p.R * p.S * do_bytes
        est.l2_write += redundancy * di_bytes
        from repro.perf.traffic import _beyond_split

        _beyond_split(est, m, do_bytes, 0.0, do_bytes)
        _beyond_split(est, m, w_bytes, 0.0, w_bytes)
        _beyond_split(est, m, di_bytes, di_bytes, di_bytes)
        parts = self._parts(t_comp, est)
        time_s, bound = combine_parts(parts, m.overlap_alpha)
        return LayerPerf(
            params=p, machine=m.name, impl=impl, pass_=Pass.BWD, dtype=dtype,
            time_s=time_s, flops=p.flops, bound=bound, parts=parts,
            notes={"mode": "gemm-fallback",
                   "efficiency": p.flops / time_s / (m.peak_flops_core * t)},
        )

    # ------------------------------------------------------------------
    def estimate_update(
        self,
        p: ConvParams,
        impl: str = "thiswork",
        dtype: DType = DType.F32,
    ) -> LayerPerf:
        """Weight-gradient estimate (Figs. 5b, 7b, 8c)."""
        m = self.machine
        t = self.threads
        plan = choose_upd_blocking(p, m, DType.F32)
        strategy = choose_upd_strategy(p, m, t)
        vlen = plan.vlen
        i_strides = (p.Wp * vlen, vlen)
        o_strides = (p.Q * vlen, vlen)
        desc = UpdKernelDesc(
            vlen=vlen, b_p=plan.b_p, b_q=plan.b_q, stride=p.stride,
            i_strides=i_strides, o_strides=o_strides,
            fused_memop=m.fused_memop_penalty > 0 and dtype is DType.F32,
            dtype=dtype,
        )
        prog = self.cache.get(desc, generate_upd_kernel)
        kt = time_kernel(prog, m)
        if dtype is DType.QI16F32:
            # int16 MACs run 2x, but chain-limit flushes and the 4FMA-layout
            # transpose eat into it: ~1.5x effective compute gain (II-K/III-B)
            cycles = kt.cycles / (m.vnni16_speedup * 0.62)
        else:
            cycles = kt.cycles
        pb = -(-p.P // plan.b_p)
        calls = p.N * (p.K // vlen) * (p.C // vlen) * pb * p.R * p.S
        # x1.1: gradient-copy zeroing, dW block cycling, and the reduction
        # barrier -- the section II-J costs a compute-bound layer still pays
        t_comp = calls / t * cycles / m.freq_hz * 1.1
        traffic = upd_traffic(p, plan, m, t, strategy.ncopies, dtype)
        parts = self._parts(t_comp, traffic)
        time_s, bound = combine_parts(parts, m.overlap_alpha)
        return LayerPerf(
            params=p, machine=m.name, impl=impl, pass_=Pass.UPD, dtype=dtype,
            time_s=time_s, flops=p.flops, bound=bound, parts=parts,
            notes={
                "strategy": strategy.name,
                "efficiency": p.flops / time_s / (m.peak_flops_core * t),
            },
        )

    # ------------------------------------------------------------------
    def _parts(self, t_comp: float, traffic: TrafficEstimate) -> dict[str, float]:
        m = self.machine
        t = self.threads
        parts = {
            "compute": t_comp,
            "l2_read": traffic.l2_read / t / m.l2_read_bw,
            "l2_write": traffic.l2_write / t / m.l2_write_bw,
            "mem_read": traffic.mem_read / m.mem_read_bw,
            "mem_write": traffic.mem_write / m.mem_write_bw,
        }
        if m.llc_bytes:
            parts["llc_read"] = traffic.llc_read / t / m.llc_bw
            parts["llc_write"] = traffic.llc_write / t / m.llc_bw
        else:
            parts["mem_read"] += traffic.llc_read / m.mem_read_bw
            parts["mem_write"] += traffic.llc_write / m.mem_write_bw
        return parts
