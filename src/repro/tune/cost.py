"""Analytical + cachesim pricing of mapspace candidates.

Two evaluators, in increasing cost:

* :func:`price_candidate` -- the analytical model.  JIT-generates the
  candidate's exact microkernel, times its µop stream
  (:func:`repro.jit.timing.time_kernel`), runs the blocked-loop traffic
  analysis for the candidate's cache block and loop order
  (:func:`repro.perf.traffic.forward_traffic`), and combines the
  per-level resource times with the partial-overlap roofline
  (:func:`repro.perf.model.combine_parts`).  Microseconds per candidate;
  this prices the whole mapspace.
* :func:`refine_cost` -- the empirical step for the analytical top-k.
  Replays one kernel invocation through the µop interpreter with a
  :class:`repro.cachesim.CacheHierarchy` attached, replacing the modeled
  L2->L1 stream with *measured* per-invocation line fills (capacity and
  line-granularity effects the closed-form block geometry misses).

Prefetch is a real trade-off in both: the prefetch µops the candidate
requests occupy load ports inside ``time_kernel``, while the un-prefetched
share of beyond-L1 misses pays exposed latency
(:data:`PREFETCH_EXPOSURE`), mirroring the no-prefetch penalty of
:class:`repro.perf.model.ConvPerfModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.machine import MachineConfig
from repro.cachesim.hierarchy import CacheHierarchy, LevelTraffic
from repro.conv.params import ConvParams
from repro.jit.codegen import ConvKernelDesc, generate_conv_kernel
from repro.jit.interpreter import execute_kernel
from repro.jit.kernel_cache import KernelCache, get_default_cache
from repro.jit.timing import time_kernel
from repro.perf.model import combine_parts
from repro.perf.traffic import forward_traffic
from repro.quant.qkernels import CHAIN_LIMIT_PAIRS
from repro.tune.mapspace import Candidate
from repro.types import DType

__all__ = ["CandidateCost", "price_candidate", "refine_cost",
           "candidate_desc", "PREFETCH_EXPOSURE"]

#: streams-replay per-call dispatch cycles (matches the perf model)
CALL_OVERHEAD = 30.0

#: fraction of the exposed-miss-latency penalty each software-prefetch
#: level leaves unhidden.  PREFETCH1 fills L1+L2 (section II-E) so "l1"
#: hides nearly everything; "l2" leaves the L1-miss/L2-hit latency;
#: "none" pays the full penalty (about 8 outstanding misses hide the
#: rest, as in the perf model's no-prefetch estimate).
PREFETCH_EXPOSURE = {"both": 0.0, "l1": 0.25, "l2": 0.4, "none": 1.0}


@dataclass
class CandidateCost:
    """Priced execution of one candidate on one machine."""

    candidate: Candidate
    time_s: float  # modeled wall-clock of one full layer pass
    cycles: float  # time_s * freq -- the ranking objective
    cycles_per_flop: float  # steady-state main-variant kernel rate
    bound: str  # binding resource ("compute", "l2_read", ...)
    parts: dict[str, float] = field(default_factory=dict)
    refined: bool = False  # cachesim-measured L2->L1 stream?

    def sort_key(self) -> tuple:
        """Deterministic ranking key: cheapest first, stable tie-break."""
        return (self.cycles,) + self.candidate.sort_key()


def candidate_desc(
    p: ConvParams,
    cand: Candidate,
    machine: MachineConfig,
    dtype: DType = DType.F32,
) -> ConvKernelDesc:
    """The main-variant kernel descriptor a candidate generates."""
    vlen = machine.vlen(dtype)
    return ConvKernelDesc(
        vlen=vlen,
        rb_p=cand.rb_p,
        rb_q=cand.rb_q,
        R=p.R,
        S=p.S,
        stride=p.stride,
        i_strides=(p.Hp * p.Wp * vlen, p.Wp * vlen, vlen),
        w_strides=(p.R * p.S * vlen * vlen, p.S * vlen * vlen,
                   vlen * vlen, vlen),
        o_strides=(p.Q * vlen, vlen),
        cb_unroll=(p.C // vlen) if cand.loop_order == "cb_inner" else 1,
        zero_init=True,
        hoist_output=True,
        fused_memop=not machine.has_4fma and dtype is DType.F32,
        use_4fma=machine.has_4fma and dtype is DType.F32,
        use_4vnni=machine.has_4fma and dtype is DType.QI16F32,
        prefetch=cand.prefetch,
        dtype=dtype,
        acc_chain_limit=CHAIN_LIMIT_PAIRS if dtype is DType.QI16F32 else 0,
    )


def _parts(machine: MachineConfig, threads: int, t_comp: float,
           traffic) -> dict[str, float]:
    m = machine
    parts = {
        "compute": t_comp,
        "l2_read": traffic.l2_read / threads / m.l2_read_bw,
        "l2_write": traffic.l2_write / threads / m.l2_write_bw,
        "mem_read": traffic.mem_read / m.mem_read_bw,
        "mem_write": traffic.mem_write / m.mem_write_bw,
    }
    if m.llc_bytes:
        parts["llc_read"] = traffic.llc_read / threads / m.llc_bw
        parts["llc_write"] = traffic.llc_write / threads / m.llc_bw
    else:
        parts["mem_read"] += traffic.llc_read / m.mem_read_bw
        parts["mem_write"] += traffic.llc_write / m.mem_write_bw
    return parts


def price_candidate(
    p: ConvParams,
    cand: Candidate,
    machine: MachineConfig,
    dtype: DType = DType.F32,
    threads: int = 1,
    cache: KernelCache | None = None,
    l1_fill_override: float | None = None,
) -> CandidateCost:
    """Analytical cost of one candidate (roofline over modeled traffic).

    ``l1_fill_override`` replaces the modeled per-invocation L2->L1
    stream with a measured byte count (the :func:`refine_cost` hook).
    """
    m = machine
    cache = cache if cache is not None else get_default_cache()
    desc = candidate_desc(p, cand, m, dtype)
    prog = cache.get(desc, generate_conv_kernel)
    kt = time_kernel(prog, m, call_overhead=CALL_OVERHEAD)

    plan = cand.plan(p, m, dtype)
    vlen = plan.vlen
    kb = p.K // vlen
    cbf = 1 if cand.loop_order == "cb_inner" else p.C // vlen
    pb = -(-p.P // cand.rb_p)
    qb = -(-p.Q // cand.rb_q)
    calls_total = p.N * kb * cbf * pb * qb
    items = p.N * kb * pb
    imbalance = -(-items // threads) * threads / items
    calls_core = calls_total / threads * imbalance

    cycles_per_flop = (kt.cycles - CALL_OVERHEAD) / prog.flops
    t_comp = (
        p.flops / threads * imbalance * cycles_per_flop
        + calls_core * CALL_OVERHEAD
    ) / m.freq_hz

    traffic = forward_traffic(p, plan, m, threads, dtype)
    if l1_fill_override is not None:
        # measured L2->L1 bytes for one invocation, scaled to all calls
        traffic = traffic.scaled(1.0)
        traffic.l2_read = l1_fill_override * calls_total
    parts = _parts(m, threads, t_comp, traffic)

    exposure = PREFETCH_EXPOSURE[cand.prefetch]
    if exposure > 0.0:
        lines = (traffic.l2_read + traffic.llc_read + traffic.mem_read) / 64
        parts["miss_latency"] = exposure * lines / threads * 20e-9 / 8

    time_s, bound = combine_parts(parts, m.overlap_alpha)
    return CandidateCost(
        candidate=cand,
        time_s=time_s,
        cycles=time_s * m.freq_hz,
        cycles_per_flop=cycles_per_flop,
        bound=bound,
        parts=parts,
    )


def _buffer_extents(prog) -> dict[str, int]:
    """Max element offset per tensor one invocation references."""
    ext: dict[str, int] = {}
    for u in prog.uops:
        if u.tensor is None:
            continue
        name = u.tensor[:-3] if u.tensor.endswith("_pf") else u.tensor
        ext[name] = max(ext.get(name, 0), u.offset)
    return ext


def simulate_kernel_traffic(
    p: ConvParams,
    cand: Candidate,
    machine: MachineConfig,
    dtype: DType = DType.F32,
    cache: KernelCache | None = None,
) -> LevelTraffic:
    """Measured per-level line traffic of one cold kernel invocation.

    Runs the candidate's generated program through the µop interpreter
    with the cache hierarchy attached -- the empirical counterpart of the
    block-geometry footprint math in :func:`forward_traffic`.
    """
    cache = cache if cache is not None else get_default_cache()
    desc = candidate_desc(p, cand, machine, dtype)
    prog = cache.get(desc, generate_conv_kernel)
    hier = CacheHierarchy(machine, itemsize=dtype.input_itemsize)
    ext = _buffer_extents(prog)
    in_dt = np.dtype(dtype.np_input)
    out_dt = np.dtype(dtype.np_accum)
    margin = 2 * prog.vlen + 2
    buffers = {
        "I": np.zeros(ext.get("I", 0) + margin, dtype=in_dt),
        "W": np.zeros(ext.get("W", 0) + margin, dtype=in_dt),
        "O": np.zeros(ext.get("O", 0) + margin, dtype=out_dt),
    }
    bases = {"I": 0, "W": 0, "O": 0, "I_pf": 0, "W_pf": 0, "O_pf": 0}
    execute_kernel(prog, buffers, bases, touch=hier.touch)
    return hier.traffic()


def refine_cost(
    p: ConvParams,
    cost: CandidateCost,
    machine: MachineConfig,
    dtype: DType = DType.F32,
    threads: int = 1,
    cache: KernelCache | None = None,
) -> CandidateCost:
    """Re-price a candidate with cachesim-measured L2->L1 traffic."""
    sim = simulate_kernel_traffic(p, cost.candidate, machine, dtype, cache)
    refined = price_candidate(
        p, cost.candidate, machine, dtype, threads, cache,
        l1_fill_override=float(sim.l1_fill),
    )
    refined.refined = True
    return refined
