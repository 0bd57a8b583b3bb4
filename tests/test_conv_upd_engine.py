"""DirectConvUpd: Algorithm 9 + section II-J strategies."""

import pytest

from repro.arch.machine import KNM, SKX
from repro.conv.params import ConvParams
from repro.conv.reference import conv2d_update_weights
from repro.conv.upd import DirectConvUpd
from repro.parallel.wu_strategies import upd_strategy_traffic
from tests.conftest import assert_close, rand_conv_tensors

CASES = [
    ConvParams(N=2, C=16, K=32, H=8, W=8, R=3, S=3, stride=1),
    ConvParams(N=4, C=16, K=16, H=6, W=6, R=1, S=1, stride=1),
    ConvParams(N=1, C=32, K=16, H=9, W=9, R=1, S=1, stride=2),
    ConvParams(N=3, C=16, K=16, H=10, W=10, R=3, S=3, stride=2),
    ConvParams(N=1, C=16, K=16, H=14, W=14, R=7, S=7, stride=2),
]


class TestCorrectness:
    @pytest.mark.parametrize("p", CASES, ids=lambda p: p.describe())
    @pytest.mark.parametrize("machine", [SKX, KNM], ids=lambda m: m.name)
    def test_matches_reference(self, p, machine, rng):
        x, _, dy = rand_conv_tensors(p, rng)
        upd = DirectConvUpd(p, machine=machine, threads=4)
        assert_close(upd.run_nchw(x, dy), conv2d_update_weights(x, dy, p))

    @pytest.mark.parametrize("ncopies", [1, 2, 4])
    def test_strategies_numerically_equivalent(self, ncopies, rng):
        """Shared vs per-thread-copies vs hybrid must agree (section II-J:
        same operations, different data movement)."""
        p = ConvParams(N=4, C=16, K=16, H=8, W=8, R=3, S=3, stride=1)
        x, _, dy = rand_conv_tensors(p, rng)
        strat = upd_strategy_traffic(p, SKX, threads=4, ncopies=ncopies)
        upd = DirectConvUpd(p, machine=SKX, threads=4, strategy=strat)
        assert_close(upd.run_nchw(x, dy), conv2d_update_weights(x, dy, p))

    def test_blocking_plan_applied(self):
        p = ConvParams(N=1, C=16, K=16, H=112, W=112, R=3, S=3, stride=1)
        upd = DirectConvUpd(p, machine=SKX)
        # large spatial extent must be blocked below P (section II-J)
        assert upd.plan.b_p < p.P

    def test_small_layer_uses_full_spatial_block(self):
        p = ConvParams(N=1, C=16, K=16, H=7, W=7, R=3, S=3, stride=1)
        upd = DirectConvUpd(p, machine=SKX)
        assert upd.plan.b_p == p.P and upd.plan.b_q == p.Q
