"""Cache simulator, and its agreement with the kernel footprint metadata."""

import numpy as np
import pytest

from repro.arch.machine import MachineConfig
from repro.cachesim.cache import Cache
from repro.cachesim.hierarchy import CacheHierarchy
from repro.jit.codegen import ConvKernelDesc, generate_conv_kernel
from repro.jit.interpreter import execute_kernel


class TestCache:
    def test_cold_miss_then_hit(self):
        c = Cache(1024, assoc=2, line_bytes=64)
        assert not c.access(0)
        assert c.access(0)
        assert c.stats.misses == 1 and c.stats.hits == 1

    def test_lru_eviction(self):
        c = Cache(2 * 64, assoc=2, line_bytes=64)  # 1 set, 2 ways
        c.access(0)
        c.access(1)
        c.access(0)  # 0 is now MRU
        c.access(2)  # evicts 1
        assert c.access(0)
        assert not c.access(1)

    def test_writeback_on_dirty_eviction(self):
        c = Cache(2 * 64, assoc=2, line_bytes=64)
        c.access(0, write=True)
        c.access(1)
        c.access(2)  # evicts dirty 0
        assert c.stats.writebacks == 1

    def test_prefetch_fills_without_demand_miss(self):
        c = Cache(1024, assoc=2)
        c.access(5, prefetch=True)
        assert c.stats.misses == 0 and c.stats.prefetch_fills == 1
        assert c.access(5)
        assert c.stats.prefetched_hits == 1

    def test_capacity(self):
        c = Cache(4096, assoc=4, line_bytes=64)
        for i in range(64):
            c.access(i)
        assert c.resident_lines() == 64
        c.access(1000)
        assert c.resident_lines() == 64  # full: evictions started

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            Cache(1000, assoc=3, line_bytes=64)

    def test_flush_writes_back_dirty(self):
        c = Cache(1024, assoc=2)
        c.access(0, write=True)
        c.access(1)
        c.flush()
        assert c.stats.writebacks == 1
        assert c.resident_lines() == 0


class TestHierarchy:
    def _machine(self):
        return MachineConfig(
            name="T", cores=1, freq_hz=1e9, l1_bytes=1024, l2_bytes=4096,
            llc_bytes=0, l1_assoc=2, l2_assoc=4,
        )

    def test_l1_hit_stops_walk(self):
        h = CacheHierarchy(self._machine())
        h.touch("I", 0, 16, "load")
        h.touch("I", 0, 16, "load")
        assert h.l1.stats.hits >= 1
        assert h.l2.stats.accesses == h.l1.stats.misses

    def test_tensors_get_disjoint_regions(self):
        h = CacheHierarchy(self._machine())
        h.touch("I", 0, 16, "load")
        h.touch("W", 0, 16, "load")
        assert h.l1.stats.misses == 2  # no aliasing

    def test_prefetch2_fills_l2_only(self):
        h = CacheHierarchy(self._machine())
        h.touch("I_pf", 0, 1, "prefetch2")
        assert h.l2.stats.prefetch_fills == 1
        assert h.l1.resident_lines() == 0
        # demand access now misses L1 but hits L2
        h.touch("I", 0, 1, "load")
        assert h.l2.stats.hits == 1

    def test_traffic_report(self):
        h = CacheHierarchy(self._machine())
        for off in range(0, 64 * 16, 16):
            h.touch("I", off, 16, "load")
        t = h.traffic()
        assert t.l1_fill == h.l1.stats.misses * 64
        assert t.l2_fill == h.l2.stats.misses * 64


class TestKernelTrafficValidation:
    """The µop stream's demand misses on a cold hierarchy must equal the
    number of distinct cache lines its memory trace touches -- this is the
    mechanistic anchor for the analytic traffic model (DESIGN.md section 6).
    """

    @pytest.mark.parametrize("rb_q,r,cbu", [(3, 3, 1), (5, 1, 2), (2, 2, 1)])
    def test_cold_misses_equal_distinct_lines(self, rng, rb_q, r, cbu):
        vlen = 4
        desc = ConvKernelDesc(
            vlen=vlen, rb_p=1, rb_q=rb_q, R=r, S=r, stride=1,
            i_strides=(4096, 64, 4), w_strides=(4096, 256, 64, 4),
            o_strides=(64, 4), cb_unroll=cbu, zero_init=True,
        )
        prog = generate_conv_kernel(desc)
        machine = MachineConfig(
            name="T", cores=1, freq_hz=1e9, l1_bytes=32 * 1024,
            l2_bytes=1 << 20,
        )
        h = CacheHierarchy(machine)
        bufs = {
            "I": rng.standard_normal(32768).astype(np.float32),
            "W": rng.standard_normal(32768).astype(np.float32),
            "O": np.zeros(32768, dtype=np.float32),
        }
        trace = []
        execute_kernel(prog, bufs, {}, trace=trace, touch=h.touch)
        # distinct (tensor, line) pairs among demand accesses
        lines = set()
        for tensor, off, count, kind in trace:
            if kind.startswith("prefetch"):
                continue
            base = off * 4
            for la in range(base // 64, (base + count * 4 - 1) // 64 + 1):
                lines.add((tensor, la))
        assert h.l1.stats.misses == len(lines)
        # and the declared element footprints bound the distinct lines
        total_fp_bytes = 4 * (
            sum(prog.reads.values()) + sum(prog.writes.values())
        )
        assert len(lines) * 64 <= total_fp_bytes + 64 * len(
            {t for t, _ in lines}
        ) * 8

    def test_prefetched_next_call_hits_l2(self, rng):
        """Section II-E's payoff, observed in simulation: after call i
        prefetches call i+1's operands, call i+1's L2 lookups hit."""
        vlen = 4
        desc = ConvKernelDesc(
            vlen=vlen, rb_p=1, rb_q=4, R=1, S=1, stride=1,
            i_strides=(4096, 64, 4), w_strides=(4096, 256, 64, 4),
            o_strides=(64, 4), zero_init=True, prefetch="l2",
        )
        prog = generate_conv_kernel(desc)
        machine = MachineConfig(
            name="T", cores=1, freq_hz=1e9, l1_bytes=4096, l2_bytes=1 << 18
        )
        h = CacheHierarchy(machine)
        bufs = {
            "I": rng.standard_normal(32768).astype(np.float32),
            "W": rng.standard_normal(32768).astype(np.float32),
            "O": np.zeros(32768, dtype=np.float32),
        }
        # call 0 at offset 0 prefetches call 1's operands at offset 1024
        execute_kernel(
            prog, bufs,
            {"I": 0, "W": 0, "O": 0, "I_pf": 1024, "W_pf": 1024, "O_pf": 1024},
            touch=h.touch,
        )
        l2_misses_before = h.l2.stats.misses
        execute_kernel(
            prog, bufs,
            {"I": 1024, "W": 1024, "O": 1024,
             "I_pf": 1024, "W_pf": 1024, "O_pf": 1024},
            touch=h.touch,
        )
        # second call's demand L2 misses are (almost) all covered
        assert h.l2.stats.misses - l2_misses_before <= 1
        assert h.l2.stats.prefetched_hits > 0
