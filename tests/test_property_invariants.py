"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.machine import SKX
from repro.conv.forward import DirectConvForward
from repro.conv.params import ConvParams
from repro.conv.reference import (
    conv2d_backward_data,
    conv2d_forward,
    conv2d_update_weights,
)
from repro.streams.rle import encode_segments
from repro.streams.replay import replay
from repro.streams.stream import KernelStream
from tests.conftest import assert_close


small_convs = st.builds(
    lambda cb, kb, h, w, r, stride: ConvParams(
        N=1, C=4 * cb, K=4 * kb, H=h, W=w,
        R=min(r, h), S=min(r, w), stride=stride,
    ),
    cb=st.integers(1, 3),
    kb=st.integers(1, 3),
    h=st.integers(3, 8),
    w=st.integers(3, 8),
    r=st.sampled_from([1, 2, 3]),
    stride=st.integers(1, 2),
)


class TestConvAlgebra:
    @given(p=small_convs, seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_input(self, p, seed):
        """conv(a*x1 + b*x2, w) == a*conv(x1, w) + b*conv(x2, w)."""
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal((p.N, p.C, p.H, p.W)).astype(np.float32)
        x2 = rng.standard_normal((p.N, p.C, p.H, p.W)).astype(np.float32)
        w = rng.standard_normal((p.K, p.C, p.R, p.S)).astype(np.float32)
        a, b = 0.5, -2.0
        lhs = conv2d_forward(a * x1 + b * x2, w, p)
        rhs = a * conv2d_forward(x1, w, p) + b * conv2d_forward(x2, w, p)
        assert_close(lhs, rhs, rtol=1e-4)

    @given(p=small_convs, seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_adjoint_triple(self, p, seed):
        """The three passes are one trilinear form:
        <conv(x,w), dy> == <x, bwd(dy,w)> == <w, upd(x,dy)>."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((p.N, p.C, p.H, p.W)).astype(np.float32)
        w = rng.standard_normal((p.K, p.C, p.R, p.S)).astype(np.float32)
        dy = rng.standard_normal((p.N, p.K, p.P, p.Q)).astype(np.float32)
        t0 = float((conv2d_forward(x, w, p) * dy).sum())
        t1 = float((x * conv2d_backward_data(dy, w, p)).sum())
        t2 = float((w * conv2d_update_weights(x, dy, p)).sum())
        assert t0 == pytest.approx(t1, rel=2e-4, abs=1e-3)
        assert t0 == pytest.approx(t2, rel=2e-4, abs=1e-3)

    @given(
        cb=st.integers(1, 2), h=st.integers(4, 9), seed=st.integers(0, 99)
    )
    @settings(max_examples=15, deadline=None)
    def test_blocked_engine_translation_equivariance(self, cb, h, seed):
        """Shifting the input by one stride shifts the (interior of the)
        output by one pixel -- catches off-by-one offset bugs in the
        dryrun's address math."""
        p = ConvParams(N=1, C=16 * cb, K=16, H=h, W=h, R=3, S=3, stride=1,
                       pad_h=0, pad_w=0)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, p.C, h + 1, h + 1)).astype(np.float32)
        w = rng.standard_normal((16, p.C, 3, 3)).astype(np.float32)
        eng = DirectConvForward(p, machine=SKX, threads=2)
        y0 = eng.run_nchw(np.ascontiguousarray(x[:, :, :h, :h]), w)
        y1 = eng.run_nchw(np.ascontiguousarray(x[:, :, 1:, 1:]), w)
        assert_close(y0[:, :, 1:, 1:], y1[:, :, : p.P - 1, : p.Q - 1])


class TestStreamProperties:
    @given(
        pattern=st.lists(st.sampled_from("ca"), min_size=1, max_size=60)
    )
    @settings(max_examples=40, deadline=None)
    def test_rle_replay_preserves_call_sequence(self, pattern):
        """For any conv/apply interleaving: segments cover the stream and
        replay dispatches the calls in recorded order."""
        st_ = KernelStream()
        for i, ch in enumerate(pattern):
            if ch == "c":
                st_.record_conv(0, i, 2 * i, 3 * i)
            else:
                st_.record_apply(0, 3 * i, kb=i, variant=0)
        frozen = st_.freeze()
        segs = encode_segments(frozen)
        calls = []
        replay(
            frozen,
            segs,
            [lambda i, w, o, pi, pw, po: calls.append(("c", i))],
            [lambda o, kb, variant: calls.append(("a", kb))],
        )
        expect = [
            ("c", i) if ch == "c" else ("a", i)
            for i, ch in enumerate(pattern)
        ]
        assert calls == expect

    @given(
        pattern=st.lists(st.sampled_from("ca"), min_size=2, max_size=40)
    )
    @settings(max_examples=30, deadline=None)
    def test_prefetch_chain_is_next_conv(self, pattern):
        """Fig. 1's identity holds for arbitrary fusion interleavings."""
        st_ = KernelStream()
        for i, ch in enumerate(pattern):
            if ch == "c":
                st_.record_conv(0, i, 0, 0)
            else:
                st_.record_apply(0, 0, kb=0, variant=0)
        frozen = st_.freeze()
        recorded = []
        replay(
            frozen,
            encode_segments(frozen),
            [lambda i, w, o, pi, pw, po: recorded.append((i, pi))],
            [lambda o, kb, variant: None],
        )
        conv_ids = [i for i, ch in enumerate(pattern) if ch == "c"]
        for t, (i, pi) in enumerate(recorded):
            expect_next = (
                conv_ids[t + 1] if t + 1 < len(recorded) else conv_ids[t]
            )
            assert pi == expect_next
