"""GxM task profiler."""

import numpy as np
import pytest

from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.profiler import TaskProfiler
from repro.gxm.topology import TopologySpec
from repro.models.resnet50 import resnet_mini_topology


def topo():
    t = TopologySpec("t")
    d = t.data("data")
    c = t.conv("c1", d, 16, 3, relu=True)
    g = t.global_pool("gap", c)
    f = t.fc("fc", g, 4)
    t.loss("loss", f)
    return t


class TestProfiler:
    def _run(self, rng):
        etg = ExecutionTaskGraph(topo(), (8, 16, 8, 8), seed=0)
        prof = TaskProfiler(etg)
        x = rng.standard_normal((8, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 8)
        loss = prof.step(x, y)
        return etg, prof, loss, x, y

    def test_step_matches_plain_train_step(self, rng):
        etg1 = ExecutionTaskGraph(topo(), (8, 16, 8, 8), seed=0)
        etg2 = ExecutionTaskGraph(topo(), (8, 16, 8, 8), seed=0)
        x = rng.standard_normal((8, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 8)
        plain = etg1.train_step(x, y)
        profiled = TaskProfiler(etg2).step(x, y)
        assert plain == pytest.approx(profiled, rel=1e-6)
        assert np.allclose(
            etg1.nodes["c1"].dweight, etg2.nodes["c1"].dweight
        )

    def test_pass_breakdown_sums_to_total(self, rng):
        _, prof, _, _, _ = self._run(rng)
        p = prof.last
        assert sum(p.by_pass.values()) <= p.total_s
        assert sum(p.by_pass.values()) > 0.5 * p.total_s
        assert set(p.by_pass) == {"FWD", "BWD", "UPD"}

    def test_type_breakdown(self, rng):
        _, prof, _, _, _ = self._run(rng)
        assert "Convolution" in prof.last.by_type
        assert prof.last.by_type["Convolution"] > 0

    def test_imgs_per_s(self, rng):
        _, prof, _, _, _ = self._run(rng)
        assert prof.last.imgs_per_s == pytest.approx(
            8 / prof.last.total_s, rel=1e-6
        )

    def test_report_format(self, rng):
        _, prof, _, _, _ = self._run(rng)
        text = prof.last.report()
        assert "img/s" in text and "FWD" in text and "Convolution" in text

    def test_history_accumulates(self, rng):
        etg = ExecutionTaskGraph(topo(), (8, 16, 8, 8), seed=0)
        prof = TaskProfiler(etg)
        x = rng.standard_normal((8, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 8)
        for _ in range(3):
            prof.step(x, y)
        assert len(prof.history) == 3

    def test_residual_topology(self, rng):
        etg = ExecutionTaskGraph(
            resnet_mini_topology(num_classes=4, width=16), (4, 16, 8, 8),
            seed=0,
        )
        prof = TaskProfiler(etg)
        x = rng.standard_normal((4, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 4)
        loss = prof.step(x, y)
        assert np.isfinite(loss)
        assert "Eltwise" in prof.last.by_type

    def test_wrapped_ring_gives_same_task_keys(self, rng):
        """The profiler finds its step's records by time and thread, not
        by ring position: on a full ring that wraps during the step it
        reports the same tasks as on an empty one."""
        from repro.obs.tracer import CAPACITY, get_tracer

        x = rng.standard_normal((8, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 8)
        prof = TaskProfiler(ExecutionTaskGraph(topo(), (8, 16, 8, 8), seed=0))
        tracer = get_tracer()
        tracer.clear()
        prof.step(x, y)
        fresh = prof.last
        for i in range(CAPACITY):
            tracer.record("filler", i=i)
        assert len(tracer) == CAPACITY
        prof.step(x, y)
        assert tracer.dropped > 0
        assert set(prof.last.by_task) == set(fresh.by_task)
        assert prof.last.total_s > 0
