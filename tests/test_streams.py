"""Kernel streams: record, encode, replay (section II-H)."""

import numpy as np
import pytest

from repro.arch.machine import SKX
from repro.conv.forward import DirectConvForward
from repro.conv.fusion import ReLU
from repro.conv.params import ConvParams
from repro.streams.rle import SegmentKind, encode_segments
from repro.streams.replay import replay
from repro.streams.stream import APPLY_CALL, KernelStream
from repro.types import ReproError


def make_stream(pattern):
    """pattern: list of 'c' (conv) and 'a' (apply)."""
    st = KernelStream()
    for i, ch in enumerate(pattern):
        if ch == "c":
            st.record_conv(0, 10 * i, 20 * i, 30 * i)
        else:
            st.record_apply(0, 30 * i, kb=1, variant=0)
    return st.freeze()


class TestRecording:
    def test_counts(self):
        s = make_stream("cccac")
        assert s.conv_calls == 4
        assert s.apply_calls == 1
        assert len(s) == 5

    def test_conv_variant_validation(self):
        st = KernelStream()
        with pytest.raises(ReproError):
            st.record_conv(-2, 0, 0, 0)

    def test_apply_carries_kb_and_variant(self):
        st = KernelStream()
        st.record_apply(3, o_off=99, kb=5, variant=2)
        f = st.freeze()
        assert f.kinds[0] == APPLY_CALL
        assert f.w_off[0] == 5 and f.i_off[0] == 2 and f.apply_op[0] == 3


class TestRle:
    def test_streaks_and_applies(self):
        segs = encode_segments(make_stream("cccacca"))
        kinds = [(s.kind, s.info) for s in segs]
        assert kinds == [
            (SegmentKind.CONV_STREAK, 3),
            (SegmentKind.APPLY, 0),
            (SegmentKind.CONV_STREAK, 2),
            (SegmentKind.APPLY, 0),
        ]

    def test_all_conv(self):
        segs = encode_segments(make_stream("cccc"))
        assert len(segs) == 1 and segs[0].info == 4

    def test_empty(self):
        assert encode_segments(make_stream("")) == []

    def test_segments_cover_stream(self):
        s = make_stream("cacacac")
        segs = encode_segments(s)
        covered = sum(
            seg.info if seg.kind is SegmentKind.CONV_STREAK else 1
            for seg in segs
        )
        assert covered == len(s)


class TestReplay:
    def test_prefetch_chaining_fig1(self):
        """Call i's prefetch args must equal call i+1's compute args."""
        s = make_stream("ccc")
        segs = encode_segments(s)
        calls = []

        def kernel(i, w, o, pi, pw, po):
            calls.append((i, w, o, pi, pw, po))

        n = replay(s, segs, [kernel], [])
        assert n == 3
        for t in range(2):
            assert calls[t][3:] == calls[t + 1][:3]
        # last call prefetches itself (nothing left to fetch)
        assert calls[2][3:] == calls[2][:3]

    def test_prefetch_skips_apply_records(self):
        """The next *conv* call's offsets are prefetched across APPLYs."""
        s = make_stream("cac")
        segs = encode_segments(s)
        calls = []
        applies = []
        replay(
            s,
            segs,
            [lambda i, w, o, pi, pw, po: calls.append((i, pi))],
            [lambda o, kb, variant: applies.append((o, kb))],
        )
        assert len(calls) == 2 and len(applies) == 1
        assert calls[0][1] == calls[1][0]  # prefetch skipped the APPLY

    def test_apply_dispatch(self):
        st = KernelStream()
        st.record_conv(0, 1, 2, 3)
        st.record_apply(1, o_off=3, kb=7, variant=2)
        s = st.freeze()
        hits = []
        replay(
            s,
            encode_segments(s),
            [lambda *a: None],
            [lambda o, kb, v: hits.append(("op0", o, kb, v)),
             lambda o, kb, v: hits.append(("op1", o, kb, v))],
        )
        # the APPLY record hands its op the preceding call's variant id
        assert hits == [("op1", 3, 7, 2)]


class TestEngineStreams:
    """Stream structure produced by a real layer's dryrun."""

    def test_per_thread_disjoint_outputs(self):
        p = ConvParams(N=2, C=16, K=32, H=8, W=8, R=3, S=3, stride=1)
        eng = DirectConvForward(p, machine=SKX, threads=4)
        all_o = set()
        for s in eng.streams:
            offs = {int(o) for k, o in zip(s.kinds, s.o_off) if k >= 0}
            # threads write disjoint output blocks except across cb passes
            all_o |= offs
        # total distinct output offsets = N*Kb*Pb*Qb
        assert len(all_o) == 2 * 2 * eng.pb * eng.qb

    def test_fused_streams_interleave(self):
        p = ConvParams(N=1, C=32, K=16, H=8, W=8, R=3, S=3, stride=1)
        eng = DirectConvForward(p, machine=SKX, threads=1, fused_ops=[ReLU()])
        segs = eng.segments[0]
        kinds = [s.kind for s in segs]
        assert SegmentKind.APPLY in kinds
        assert SegmentKind.CONV_STREAK in kinds
        # an APPLY only ever follows conv work (never leads)
        assert kinds[0] is SegmentKind.CONV_STREAK

    def test_replay_is_deterministic(self, rng):
        p = ConvParams(N=1, C=16, K=16, H=6, W=6, R=3, S=3, stride=1)
        x = rng.standard_normal((p.N, p.C, p.H, p.W)).astype(np.float32)
        w = rng.standard_normal((p.K, p.C, p.R, p.S)).astype(np.float32)
        eng = DirectConvForward(p, machine=SKX, threads=2)
        y1 = eng.run_nchw(x, w)
        y2 = eng.run_nchw(x, w)
        assert np.array_equal(y1, y2)
