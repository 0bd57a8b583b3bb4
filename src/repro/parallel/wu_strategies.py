"""Weight-gradient parallelization strategies (section II-J).

The paper describes a spectrum parameterized by the number of weight-gradient
copies ``G``:

* ``G = 1`` ("shared"): threads partition the ``R x S x K_b x C_b`` task
  space; no reduction, but each input value is read by every thread column
  sharing its feature maps (``T/T_c`` x input reads, ``T/T_k`` x dO reads).
* ``G = T`` ("copies"): threads partition the minibatch, each accumulating a
  private ``R*S*C*K`` gradient copy; reads of I/dO are minimal (1/T each)
  but a final tree reduction moves ``~2T`` x the weight-gradient tensor.
* ``1 < G < T`` ("hybrid"): ``G`` copies, each shared by ``T/G`` threads that
  split the feature-map task space -- trading input/dO bandwidth against
  reduction bandwidth.

``choose_upd_strategy`` evaluates the bandwidth model for every divisor ``G``
of ``T`` at dryrun time, exactly when the paper says the decision is made.
Every candidate shares the same memory bandwidth, so the choice ranks
modeled bytes and needs no bandwidth figure; ``est_time`` is reported only
for machines that have one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.machine import MachineConfig
from repro.conv.params import ConvParams

__all__ = ["UpdStrategy", "upd_strategy_traffic", "choose_upd_strategy"]


@dataclass(frozen=True, slots=True)
class UpdStrategy:
    """One point on the section II-J spectrum for a given layer/machine."""

    ncopies: int  # G: number of dW copies (1 = shared, T = per-thread)
    tk: int  # threads splitting the K feature maps within a copy group
    tc: int  # threads splitting the C feature maps within a copy group
    # per-thread traffic, bytes
    input_read: float
    dout_read: float
    dw_rw: float
    #: bandwidth-model time estimate (seconds); ``None`` when the machine
    #: has no memory-bandwidth figure
    est_time: float | None

    @property
    def name(self) -> str:
        if self.ncopies == 1:
            return "shared"
        return f"copies-{self.ncopies}" if self.tk * self.tc == 1 else f"hybrid-{self.ncopies}"

    @property
    def total_bytes(self) -> float:
        return self.input_read + self.dout_read + self.dw_rw


def _factor_tasks(group_threads: int, kb: int, cb: int, rs: int) -> tuple[int, int]:
    """Split a copy group's threads over the K/C feature-map task dims.

    Prefers the K dimension (outputs of distinct ``k_b`` are independent),
    then C, mirroring the paper's task enumeration ``R x S x K_b x C_b``.
    The R*S dimension multiplies available tasks but does not change which
    tensor slices a thread reads, so it only relaxes feasibility.
    """
    tk = min(group_threads, kb)
    tc = min(max(1, group_threads // tk), cb)
    return tk, tc


def upd_strategy_traffic(
    p: ConvParams, machine: MachineConfig, threads: int, ncopies: int
) -> UpdStrategy:
    """Bandwidth model for one choice of ``G = ncopies`` (section II-J)."""
    itemsize = 4
    in_bytes = p.N * p.C * p.H * p.W * itemsize
    do_bytes = p.N * p.K * p.P * p.Q * itemsize
    dw_bytes = p.R * p.S * p.C * p.K * itemsize

    group_threads = max(1, threads // ncopies)
    tk, tc = _factor_tasks(group_threads, p.K // 16 or 1, p.C // 16 or 1, p.R * p.S)

    # Each copy group sees N/G minibatch samples; within the group each
    # thread reads 1/tc of the input maps and 1/tk of the gradient outputs.
    input_read = in_bytes / ncopies / tc
    dout_read = do_bytes / ncopies / tk
    # Gradient-copy traffic: each thread streams its private/shared copy once
    # per accumulation wave (amortized: read+write of its task slice), plus
    # the final reduction reads all G copies of a 1/T slice and writes it.
    slice_rw = 2.0 * dw_bytes / (tk * tc)
    reduction = (ncopies + 1.0) * dw_bytes / threads if ncopies > 1 else 0.0
    dw_rw = slice_rw / max(1, group_threads // (tk * tc)) + reduction

    est_time = None
    if machine.mem_bw > 0:
        est_time = (input_read + dout_read + dw_rw) / (machine.mem_bw / threads)
    return UpdStrategy(
        ncopies=ncopies,
        tk=tk,
        tc=tc,
        input_read=input_read,
        dout_read=dout_read,
        dw_rw=dw_rw,
        est_time=est_time,
    )


def choose_upd_strategy(
    p: ConvParams, machine: MachineConfig, threads: int
) -> UpdStrategy:
    """Evaluate every divisor ``G`` of ``threads`` and pick the one moving
    the fewest modeled bytes -- the dryrun-time decision of section II-J."""
    best: UpdStrategy | None = None
    for g in range(1, threads + 1):
        if threads % g:
            continue
        cand = upd_strategy_traffic(p, machine, threads, g)
        if best is None or cand.total_bytes < best.total_bytes:
            best = cand
    assert best is not None
    return best
