"""Weight-update kernel streams (dryrun/replay over Algorithm 9)."""

import pytest

from repro.arch.machine import KNM, SKX
from repro.conv.params import ConvParams
from repro.conv.reference import conv2d_update_weights
from repro.conv.upd import DirectConvUpd
from repro.parallel.wu_strategies import upd_strategy_traffic
from tests.conftest import assert_close, rand_conv_tensors


class TestUpdStreams:
    def test_stream_count_matches_threads(self):
        p = ConvParams(N=4, C=16, K=16, H=8, W=8, R=3, S=3, stride=1)
        upd = DirectConvUpd(p, machine=SKX, threads=4)
        # one stream per simulated thread (G groups x T/G threads each)
        assert len(upd.streams) == upd.ncopies * max(
            1, upd.threads // upd.ncopies
        )

    def test_calls_cover_task_space_exactly_once(self):
        p = ConvParams(N=2, C=32, K=16, H=8, W=8, R=3, S=3, stride=1)
        upd = DirectConvUpd(p, machine=SKX, threads=3)
        seen = {}
        for stream in upd.streams:
            for i in range(len(stream)):
                key = (int(stream.i_off[i]), int(stream.w_off[i]),
                       int(stream.o_off[i]))
                seen[key] = seen.get(key, 0) + 1
        # every (I, dW, dO) offset triple recorded exactly once
        assert all(v == 1 for v in seen.values())
        vlen = upd.vlen
        pb = -(-p.P // upd.plan.b_p)
        expect = p.N * (p.K // vlen) * (p.C // vlen) * pb * p.R * p.S
        assert len(seen) == expect

    def test_group_assignment_partitions_minibatch(self):
        p = ConvParams(N=4, C=16, K=16, H=6, W=6, R=1, S=1, stride=1)
        strat = upd_strategy_traffic(p, SKX, threads=4, ncopies=4)
        upd = DirectConvUpd(p, machine=SKX, threads=4, strategy=strat)
        assert upd.ncopies == 4
        # each group's stream touches only its own minibatch sample
        n_stride = upd.in_layout.strides[0]
        for stream, gi in zip(upd.streams, upd.stream_group):
            ns = {int(off) // n_stride for off in stream.i_off}
            assert ns == {gi}

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_replay_matches_reference(self, threads, rng):
        p = ConvParams(N=4, C=16, K=32, H=9, W=9, R=3, S=3, stride=2)
        x, _, dy = rand_conv_tensors(p, rng)
        upd = DirectConvUpd(p, machine=KNM, threads=threads)
        assert_close(upd.run_nchw(x, dy), conv2d_update_weights(x, dy, p))

    def test_remainder_variant_used_when_p_not_divisible(self):
        p = ConvParams(N=1, C=16, K=16, H=112, W=112, R=3, S=3, stride=1)
        upd = DirectConvUpd(p, machine=SKX)
        if p.P % upd.plan.b_p:
            variants = set()
            for s in upd.streams:
                variants |= {int(k) for k in s.kinds}
            assert len(variants) == 2
