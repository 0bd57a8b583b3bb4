"""Work partitioning (II-F) and dW strategies (II-J)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.machine import KNM, SKX, MachineConfig
from repro.conv.params import ConvParams
from repro.conv.reference import conv2d_update_weights
from repro.conv.upd import DirectConvUpd
from repro.parallel.partition import partition_forward, split_range
from repro.parallel.threadsim import ThreadTimes
from repro.parallel.wu_strategies import (
    choose_upd_strategy,
    upd_strategy_traffic,
)
from tests.conftest import assert_close, rand_conv_tensors


class TestSplitRange:
    def test_exact(self):
        assert split_range(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_front_loaded(self):
        parts = split_range(7, 3)
        sizes = [hi - lo for lo, hi in parts]
        assert sizes == [3, 2, 2]

    def test_more_parts_than_items(self):
        parts = split_range(2, 5)
        sizes = [hi - lo for lo, hi in parts]
        assert sum(sizes) == 2 and max(sizes) == 1


class TestPartitionForward:
    @given(
        n=st.integers(1, 8),
        kb=st.integers(1, 6),
        pb=st.integers(1, 10),
        threads=st.integers(1, 24),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_disjoint_cover(self, n, kb, pb, threads):
        """Every (n, kb, ojb) appears exactly once across threads."""
        work = partition_forward(n, kb, pb, threads)
        seen = set()
        for items in work:
            for it in items:
                for oj in range(it.ojb_lo, it.ojb_hi):
                    key = (it.n, it.kb, oj)
                    assert key not in seen
                    seen.add(key)
        assert len(seen) == n * kb * pb

    def test_minibatch_first_policy(self):
        """T <= N: each thread's items stay within its own n range
        (threads share the whole weight tensor, section II-F)."""
        work = partition_forward(8, 4, 10, 4)
        for items in work:
            ns = {it.n for it in items}
            assert len(ns) == 2  # 8 samples / 4 threads

    def test_feature_map_spill(self):
        """N < T <= N*Kb: threads split (n, kb) pairs, not spatial."""
        work = partition_forward(2, 8, 10, 16)
        for items in work:
            for it in items:
                assert it.ojb_lo == 0 and it.ojb_hi == 10

    def test_spatial_spill(self):
        work = partition_forward(1, 1, 12, 4)
        sizes = [sum(it.blocks for it in items) for items in work]
        assert sizes == [3, 3, 3, 3]

    def test_balance(self):
        work = partition_forward(7, 3, 5, 4)
        sizes = [sum(it.blocks for it in items) for items in work]
        assert max(sizes) - min(sizes) <= 1


class TestThreadTimes:
    def test_wall_is_max(self):
        t = ThreadTimes([1.0, 2.0, 3.0])
        assert t.wall == 3.0
        assert t.imbalance == pytest.approx(0.5)

    def test_balanced(self):
        assert ThreadTimes([2.0, 2.0]).imbalance == 0.0

    def test_empty(self):
        assert ThreadTimes([]).wall == 0.0


class TestWuStrategies:
    P_BIG_DW = ConvParams(N=70, C=2048, K=512, H=7, W=7, R=1, S=1)
    P_SMALL_DW = ConvParams(N=70, C=64, K=64, H=56, W=56, R=3, S=3)

    def test_extremes_traffic_tradeoff(self):
        """G=1 reads activations T/T_c-fold; G=T pays the 2T dW reduction
        (the paper's two extreme algorithms)."""
        shared = upd_strategy_traffic(self.P_SMALL_DW, KNM, 72, 1)
        copies = upd_strategy_traffic(self.P_SMALL_DW, KNM, 72, 72)
        assert copies.input_read < shared.input_read
        assert copies.dw_rw > shared.dw_rw

    def test_small_dw_prefers_copies(self):
        """Tiny weight tensor + big activations -> minibatch parallelism."""
        s = choose_upd_strategy(self.P_SMALL_DW, KNM, 72)
        assert s.ncopies > 1

    def test_big_dw_avoids_full_copies(self):
        """4 MB dW x 72 copies would dominate; expect few copies."""
        s = choose_upd_strategy(self.P_BIG_DW, KNM, 72)
        assert s.ncopies < 72

    def test_chosen_minimizes_estimate(self):
        p = self.P_BIG_DW
        best = choose_upd_strategy(p, KNM, 72)
        for g in (1, 2, 8, 36, 72):
            if 72 % g == 0:
                cand = upd_strategy_traffic(p, KNM, 72, g)
                assert best.est_time <= cand.est_time + 1e-12

    def test_bandwidthless_machine_gets_the_same_choice(self, rng):
        """Every candidate shares one bandwidth, so the choice needs no
        bandwidth figure: a machine without one picks what a machine with
        one picks, reports no time estimate, and runs the update pass."""
        tiny = MachineConfig(name="TINY", cores=4, freq_hz=1e9, vlen_bits=128)
        with_bw = dataclasses.replace(tiny, mem_bw=1e10)
        for p in (self.P_SMALL_DW, self.P_BIG_DW):
            for threads in (1, 4, 6, 72):
                got = choose_upd_strategy(p, tiny, threads)
                want = choose_upd_strategy(p, with_bw, threads)
                assert (got.ncopies, got.tk, got.tc) == (
                    want.ncopies, want.tk, want.tc
                )
                assert got.est_time is None
        p = ConvParams(N=2, C=8, K=8, H=6, W=6, R=3, S=3, stride=1,
                       pad_h=1, pad_w=1)
        x, _, dy = rand_conv_tensors(p, rng)
        dw = DirectConvUpd(p, machine=tiny, threads=2).run_nchw(x, dy)
        assert_close(dw, conv2d_update_weights(x, dy, p))

    def test_strategy_names(self):
        assert upd_strategy_traffic(self.P_SMALL_DW, SKX, 28, 1).name == "shared"
        assert "copies" in upd_strategy_traffic(self.P_SMALL_DW, SKX, 28, 28).name
