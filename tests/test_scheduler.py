"""Cycle-level scheduler, and its agreement with the analytic timing model.

Two independent mechanisms pricing the same µop streams must agree -- this
is the reproduction's internal consistency check for kernel-level timing
(DESIGN.md section 6).
"""

import pytest

from repro.arch.isa import KernelProgram, Op, Uop
from repro.arch.machine import KNM, SKX
from repro.jit.codegen import ConvKernelDesc, generate_conv_kernel
from repro.jit.scheduler import CycleSimulator
from repro.jit.timing import time_kernel
from repro.types import DType

BASE = dict(
    vlen=16, rb_p=1, rb_q=28, R=3, S=3, stride=1,
    i_strides=(100000, 1000, 16), w_strides=(100000, 800, 256, 16),
    o_strides=(900, 16),
)


def build(machine, **over):
    return generate_conv_kernel(ConvKernelDesc(**{**BASE, **over}))


class TestAgainstAnalyticModel:
    CASES = [
        ("skx_fusedmem", SKX, dict(fused_memop=True)),
        ("skx_bcast", SKX, dict()),
        ("skx_rb1", SKX, dict(rb_q=1)),
        ("skx_rb8", SKX, dict(rb_q=8)),
        ("knm_4fma", KNM, dict(use_4fma=True)),
        ("knm_q16", KNM, dict(rb_q=13, dtype=DType.QI16F32,
                              use_4vnni=True, acc_chain_limit=8)),
    ]

    @pytest.mark.parametrize("name,machine,over", CASES,
                             ids=[c[0] for c in CASES])
    def test_within_band(self, name, machine, over):
        prog = build(machine, **over)
        analytic = time_kernel(prog, machine, call_overhead=0.0).cycles
        sim = CycleSimulator(machine).simulate(prog).cycles
        assert 0.75 <= sim / analytic <= 1.35, (name, sim, analytic)

    def test_relative_ordering_preserved(self):
        """The simulator must rank kernel qualities like the model does:
        register blocking >> none; 4FMA >> broadcast on KNM."""
        sim = CycleSimulator(SKX)
        bad = sim.simulate(build(SKX, rb_q=1))
        good = sim.simulate(build(SKX, rb_q=28, fused_memop=True))
        # per-flop cycles
        assert (bad.cycles / build(SKX, rb_q=1).flops) > 3 * (
            good.cycles / build(SKX, rb_q=28).flops
        )
        ksim = CycleSimulator(KNM)
        four = ksim.simulate(build(KNM, use_4fma=True))
        bcast = ksim.simulate(build(KNM))
        assert four.cycles < bcast.cycles


class TestMechanics:
    def test_dependency_chain_serializes(self):
        """N dependent FMAs into one register take ~N*latency cycles."""
        uops = [Uop(Op.VZERO, dst=0), Uop(Op.VZERO, dst=1),
                Uop(Op.VZERO, dst=2)]
        uops += [Uop(Op.VFMA, dst=0, src1=1, src2=2) for _ in range(50)]
        prog = KernelProgram(name="chain", vlen=16, uops=uops)
        r = CycleSimulator(SKX).simulate(prog)
        assert r.cycles >= 50 * SKX.fma_latency * 0.95
        assert r.stall_dep > 40

    def test_independent_chains_pipeline(self):
        """The same FMA count over 8 chains runs ~8x faster (II-B)."""
        uops = [Uop(Op.VZERO, dst=i) for i in range(10)]
        for rep in range(50):
            for acc in range(8):
                uops.append(Uop(Op.VFMA, dst=acc, src1=8, src2=9))
        many = CycleSimulator(SKX).simulate(
            KernelProgram(name="m", vlen=16, uops=uops)
        )
        single = [Uop(Op.VZERO, dst=i) for i in range(10)]
        single += [Uop(Op.VFMA, dst=0, src1=8, src2=9) for _ in range(400)]
        one = CycleSimulator(SKX).simulate(
            KernelProgram(name="s", vlen=16, uops=single)
        )
        assert one.cycles > 5 * many.cycles

    def test_port_contention(self):
        """More store ops than store pipes -> port stalls."""
        uops = [Uop(Op.VZERO, dst=0)]
        uops += [Uop(Op.VSTORE, src1=0, tensor="O", offset=16 * i)
                 for i in range(64)]
        r = CycleSimulator(SKX).simulate(
            KernelProgram(name="st", vlen=16, uops=uops)
        )
        assert r.cycles >= 64 / SKX.store_ports * 0.9
        assert r.stall_port > 0

    def test_zero_idiom_is_free(self):
        uops = [Uop(Op.VZERO, dst=i % 32) for i in range(500)]
        r = CycleSimulator(SKX).simulate(
            KernelProgram(name="z", vlen=16, uops=uops)
        )
        assert r.cycles < 5

    def test_utilization_bounded(self):
        prog = build(SKX, fused_memop=True)
        r = CycleSimulator(SKX).simulate(prog)
        for port in ("fma", "load", "store"):
            assert 0.0 <= r.utilization(port) <= 1.0 + 0.2  # occupancy>1 ops

    def test_issue_width_bounds_front_end(self):
        """Even fully independent single-port-class work cannot beat the
        front end: 4-wide issue -> >= n/4 cycles."""
        uops = []
        for i in range(400):
            uops.append(Uop(Op.VLOAD, dst=i % 8, tensor="I", offset=16 * i))
        r = CycleSimulator(SKX).simulate(
            KernelProgram(name="ld", vlen=16, uops=uops)
        )
        assert r.cycles >= 400 / SKX.load_ports * 0.9  # 2 load pipes bind
