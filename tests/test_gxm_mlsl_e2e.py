"""MLSL simulation and the Fig. 9 end-to-end model."""

import pytest

from repro.arch.machine import KNM, SKX
from repro.gxm.e2e import dual_socket, estimate_training, fig9_scaling
from repro.gxm.mlsl import MLSLSimulator, ring_allreduce_time
from repro.perf.references import REFERENCE_IMG_PER_S


class TestRingAllreduce:
    def test_zero_for_single_node(self):
        assert ring_allreduce_time(1e9, 1, 12.5e9, 1e-6) == 0.0

    def test_asymptotic_bandwidth_term(self):
        """For large buffers, time -> 2*bytes/link_bw as nodes grow."""
        t = ring_allreduce_time(1e9, 64, 12.5e9, 0.0)
        assert t == pytest.approx(2 * (63 / 64) * 1e9 / 12.5e9)

    def test_latency_term_scales_with_nodes(self):
        small = ring_allreduce_time(1.0, 4, 12.5e9, 1e-6)
        big = ring_allreduce_time(1.0, 16, 12.5e9, 1e-6)
        assert big > small

    def test_monotone_in_bytes(self):
        a = ring_allreduce_time(1e6, 8, 12.5e9, 1e-6)
        b = ring_allreduce_time(1e8, 8, 12.5e9, 1e-6)
        assert b > a


class TestOverlap:
    def test_small_comm_mostly_hidden(self):
        sim = MLSLSimulator(KNM)
        buckets = [(1e6, 0.05) for _ in range(10)]  # 1 MB per 50 ms compute
        it, exposed = sim.iteration_time(16, 0.1, buckets)
        # only the final bucket's ring tail is exposed (<0.5 ms of 600 ms)
        tail = ring_allreduce_time(1e6, 16, KNM.link_bw, KNM.link_latency_s)
        assert exposed == pytest.approx(tail)
        assert it == pytest.approx(0.1 + 0.5 + tail)

    def test_huge_comm_exposed(self):
        sim = MLSLSimulator(KNM)
        buckets = [(1e10, 0.001)]  # 10 GB gradient, 1 ms compute
        it, exposed = sim.iteration_time(16, 0.0, buckets)
        assert exposed > 1.0

    def test_single_node_no_comm(self):
        sim = MLSLSimulator(KNM)
        it, exposed = sim.iteration_time(1, 0.1, [(1e9, 0.2)])
        assert exposed == 0.0 and it == pytest.approx(0.3)

    def test_last_bucket_tail_exposed(self):
        """The final layer's all-reduce has no compute left to hide under."""
        sim = MLSLSimulator(KNM)
        ar = ring_allreduce_time(1e8, 16, KNM.link_bw, KNM.link_latency_s)
        it, exposed = sim.iteration_time(16, 0.0, [(1e8, 0.0)])
        assert exposed == pytest.approx(ar)


class TestFig9:
    @pytest.fixture(scope="class")
    def knm_curve(self):
        return fig9_scaling("KNM")

    @pytest.fixture(scope="class")
    def skx_curve(self):
        return fig9_scaling("SKX")

    def test_knm_single_node_band(self, knm_curve):
        """Paper: 192 img/s on one KNM."""
        assert knm_curve[0].imgs_per_s == pytest.approx(192, rel=0.20)

    def test_skx_single_node_band(self, skx_curve):
        """Paper: 136 img/s on one dual-socket SKX node."""
        assert skx_curve[0].imgs_per_s == pytest.approx(136, rel=0.25)

    def test_16_node_parallel_efficiency_near_90(self, knm_curve, skx_curve):
        """Paper: ~90% parallel efficiency at 16 nodes (against the
        reduced-compute-core baseline; ~80% against the full node)."""
        for curve in (knm_curve, skx_curve):
            last = curve[-1]
            assert last.nodes == 16
            assert 0.75 <= last.parallel_efficiency <= 1.0

    def test_16_node_throughput_bands(self, knm_curve, skx_curve):
        assert knm_curve[-1].imgs_per_s == pytest.approx(2430, rel=0.25)
        assert skx_curve[-1].imgs_per_s == pytest.approx(1696, rel=0.35)

    def test_scaling_is_monotone(self, knm_curve):
        rates = [p.imgs_per_s for p in knm_curve]
        assert rates == sorted(rates)

    def test_beats_tensorflow_mkldnn_by_1p5_to_2p3(self, skx_curve):
        """Section IV: end-to-end 1.5x-2.3x over optimized TensorFlow."""
        tf = REFERENCE_IMG_PER_S[("resnet50", "2S-SKX TF+MKL-DNN [24]")]
        ratio = skx_curve[0].imgs_per_s / tf
        assert 1.3 <= ratio <= 2.5

    def test_knm_competitive_with_p100(self, knm_curve):
        """Paper: KNM 192 vs P100 219 img/s -- same ballpark."""
        p100 = REFERENCE_IMG_PER_S[("resnet50", "P100+cuDNN (TF, fp32) [23]")]
        assert knm_curve[0].imgs_per_s / p100 > 0.7


class TestEstimateBreakdown:
    def test_components_positive(self):
        est = estimate_training(KNM, "resnet50")
        for v in (est.conv_fwd_s, est.conv_bwd_s, est.conv_upd_s,
                  est.nonconv_s, est.framework_s):
            assert v > 0

    def test_bwd_upd_costlier_than_fwd(self):
        est = estimate_training(KNM, "resnet50")
        assert est.conv_bwd_s + est.conv_upd_s > est.conv_fwd_s

    def test_dual_socket_scales_but_not_2x(self):
        one = estimate_training(SKX, "resnet50", minibatch=28)
        two = estimate_training(dual_socket(SKX), "resnet50", minibatch=28)
        speedup = one.iteration_s / two.iteration_s
        assert 1.3 < speedup < 2.0

    def test_grad_bytes_near_resnet50_weights(self):
        est = estimate_training(KNM, "resnet50")
        # ResNet-50 conv weights ~= 23M params (excluding fc)
        assert 60e6 < est.grad_bytes < 120e6

    def test_inception_estimate_runs(self):
        est = estimate_training(KNM, "inception_v3")
        assert est.imgs_per_s > 0
