"""The figure-dataset API used by benches/examples/CLI."""

import pytest

from repro.arch.machine import SKX
from repro.perf.sweep import (
    inception_averages,
    resnet50_forward_sweep,
    resnet50_lowprecision_sweep,
    resnet50_pass_sweep,
)
from repro.types import Pass


@pytest.fixture(scope="module")
def fig4():
    return resnet50_forward_sweep("SKX")


class TestForwardSweep:
    def test_all_series_present(self, fig4):
        assert set(fig4.series) == {
            "thiswork", "mkl", "im2col", "libxsmm", "blas", "autovec"
        }
        assert all(len(v) == 20 for v in fig4.series.values())

    def test_layer_ids(self, fig4):
        assert fig4.layer_ids == list(range(1, 21))

    def test_efficiency_attached(self, fig4):
        assert len(fig4.efficiency["thiswork"]) == 20
        assert all(0 < e <= 1 for e in fig4.efficiency["thiswork"])

    def test_table_renders(self, fig4):
        text = fig4.table()
        assert "thiswork" in text and "layer" in text
        assert len(text.splitlines()) == 2 + len(fig4.series)

    def test_no_baselines_mode(self):
        fig = resnet50_forward_sweep(SKX, baselines=False)
        assert set(fig.series) == {"thiswork", "mkl"}

    def test_accepts_machine_object_or_name(self):
        a = resnet50_forward_sweep(SKX, baselines=False)
        b = resnet50_forward_sweep("SKX", baselines=False)
        assert a.series["thiswork"] == b.series["thiswork"]


class TestPassSweeps:
    def test_bwd(self):
        fig = resnet50_pass_sweep("KNM", Pass.BWD)
        assert "backward" in fig.title
        assert len(fig.series["thiswork"]) == 20

    def test_upd(self):
        fig = resnet50_pass_sweep(SKX, Pass.UPD)
        assert all(v > 0 for v in fig.series["thiswork"])

    def test_lowprecision(self):
        fig = resnet50_lowprecision_sweep(Pass.FWD)
        assert set(fig.series) == {"fp32", "int16", "speedup"}
        assert all(1.0 <= s <= 2.2 for s in fig.series["speedup"])


class TestInceptionAverages:
    def test_both_impls(self):
        avgs = inception_averages(SKX)
        assert set(avgs) == {"thiswork", "mkl"}
        for f, b, u in avgs.values():
            assert f > 0 and b > 0 and u > 0
