"""Baselines: functional equivalence and the Fig. 4 ordering."""

import pytest

from repro.arch.machine import SKX
from repro.baselines import (
    autovec_forward,
    estimate_autovec,
    estimate_im2col,
    estimate_smallgemm,
    im2col_forward,
    smallgemm_forward,
)
from repro.baselines.im2col import im2col_matrix
from repro.conv.params import ConvParams
from repro.conv.reference import conv2d_forward
from repro.models.resnet50 import resnet50_layers
from repro.perf.model import ConvPerfModel
from tests.conftest import assert_close, rand_conv_tensors

CASES = [
    ConvParams(N=2, C=8, K=8, H=6, W=6, R=3, S=3, stride=1),
    ConvParams(N=1, C=16, K=16, H=8, W=8, R=1, S=1, stride=2),
    ConvParams(N=1, C=8, K=16, H=9, W=7, R=3, S=2, stride=2),
]


class TestFunctional:
    @pytest.mark.parametrize("p", CASES, ids=lambda p: p.describe())
    def test_im2col(self, p, rng):
        x, w, _ = rand_conv_tensors(p, rng)
        assert_close(im2col_forward(x, w, p), conv2d_forward(x, w, p))

    @pytest.mark.parametrize("p", CASES, ids=lambda p: p.describe())
    def test_smallgemm(self, p, rng):
        x, w, _ = rand_conv_tensors(p, rng)
        assert_close(smallgemm_forward(x, w, p, vlen=4), conv2d_forward(x, w, p))

    @pytest.mark.parametrize("p", CASES, ids=lambda p: p.describe())
    def test_autovec(self, p, rng):
        x, w, _ = rand_conv_tensors(p, rng)
        assert_close(autovec_forward(x, w, p), conv2d_forward(x, w, p))

    def test_im2col_matrix_shape(self, rng):
        p = CASES[0]
        x, _, _ = rand_conv_tensors(p, rng)
        cols = im2col_matrix(x, p)
        assert cols.shape == (p.N, p.C * p.R * p.S, p.P * p.Q)


@pytest.fixture(scope="module")
def skx_layers():
    model = ConvPerfModel(SKX)
    rows = []
    for lid, p in resnet50_layers(28):
        rows.append(
            {
                "id": lid,
                "tw": model.estimate_forward(p).time_s,
                "im2col": estimate_im2col(p, SKX).time_s,
                "xsmm": estimate_smallgemm(p, SKX, "libxsmm").time_s,
                "blas": estimate_smallgemm(p, SKX, "blas").time_s,
                "autovec": estimate_autovec(p, SKX).time_s,
            }
        )
    return rows


class TestFig4Ordering:
    def test_thiswork_fastest_everywhere(self, skx_layers):
        for row in skx_layers:
            for k in ("im2col", "xsmm", "blas", "autovec"):
                assert row[k] > row["tw"] * 0.95, f"layer {row['id']}: {k}"

    def test_im2col_band(self, skx_layers):
        """Up to ~3x slower (the 7x7 stem pays the full R*S inflation and
        may exceed it)."""
        ratios = [r["im2col"] / r["tw"] for r in skx_layers]
        assert max(ratios) >= 2.0
        interior = [r["im2col"] / r["tw"] for r in skx_layers if r["id"] > 1]
        assert max(interior) <= 6.0

    def test_libxsmm_consistently_beats_blas(self, skx_layers):
        """Section III-A: 'the libxsmm based implementation being
        consistently faster than the blas variant'."""
        for row in skx_layers:
            assert row["xsmm"] < row["blas"], f"layer {row['id']}"

    def test_gemm_baselines_up_to_9x(self, skx_layers):
        ratios = [r["blas"] / r["tw"] for r in skx_layers]
        assert 6.0 <= max(ratios) <= 14.0

    def test_autovec_slowest_band(self, skx_layers):
        """Up to ~16x slower; by far the slowest on most layers."""
        ratios = [r["autovec"] / r["tw"] for r in skx_layers]
        assert 9.0 <= max(ratios) <= 18.0
        worse_than_xsmm = sum(
            1 for r in skx_layers if r["autovec"] > r["xsmm"]
        )
        assert worse_than_xsmm >= len(skx_layers) - 2


class TestEstimatorMetadata:
    def test_impl_tags(self):
        p = dict(resnet50_layers(28))[4]
        assert estimate_im2col(p, SKX).impl == "im2col"
        assert estimate_smallgemm(p, SKX, "libxsmm").impl == "libxsmm"
        assert estimate_autovec(p, SKX).impl == "autovec"

    def test_gemm_call_count(self):
        p = dict(resnet50_layers(28))[18]
        perf = estimate_smallgemm(p, SKX, "blas")
        assert perf.notes["gemm_calls"] > 1e5  # tiny GEMMs galore
