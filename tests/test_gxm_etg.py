"""ETG execution: end-to-end numerics and training behaviour."""

import numpy as np
import pytest

from repro.gxm.data import SyntheticImageDataset
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.nodes import ConvNode
from repro.gxm.topology import TopologySpec
from repro.gxm.trainer import SGD, Trainer
from repro.models.resnet50 import resnet_mini_topology
from tests.conftest import on_both_fold_paths


def tiny_topo(num_classes=4):
    topo = TopologySpec("tiny")
    d = topo.data("data")
    t = topo.conv("c1", d, 16, 3, relu=True)
    t = topo.global_pool("gap", t)
    t = topo.fc("fc", t, num_classes)
    topo.loss("loss", t)
    return topo


class TestExecution:
    def test_forward_loss_is_finite(self, rng):
        etg = ExecutionTaskGraph(tiny_topo(), (4, 16, 8, 8), seed=0)
        x = rng.standard_normal((4, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 4)
        loss = etg.train_step(x, y)
        assert np.isfinite(loss) and loss > 0

    def test_initial_loss_near_log_classes(self, rng):
        etg = ExecutionTaskGraph(tiny_topo(8), (8, 16, 8, 8), seed=0)
        x = rng.standard_normal((8, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 8, 8)
        loss = etg.train_step(x, y)
        assert abs(loss - np.log(8)) < 1.0

    def test_inference_mode_skips_bwd(self, rng):
        etg = ExecutionTaskGraph(tiny_topo(), (2, 16, 8, 8), seed=0)
        x = rng.standard_normal((2, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 2)
        etg.forward_only(x, y)
        grads = etg.grads()
        assert all(np.all(g == 0) for g in grads)

    def test_shapes_inferred(self):
        etg = ExecutionTaskGraph(tiny_topo(), (4, 16, 8, 8))
        assert etg.shapes["c1"] == (4, 16, 8, 8)
        assert etg.shapes["gap"] == (4, 16)
        assert etg.shapes["fc"] == (4, 4)

    def test_missing_loss_rejected(self):
        topo = TopologySpec("noloss")
        d = topo.data("data")
        topo.conv("c", d, 16, 3)
        from repro.types import ReproError

        with pytest.raises(ReproError):
            ExecutionTaskGraph(topo, (1, 16, 4, 4))

    def test_residual_topology_runs(self, rng):
        topo = resnet_mini_topology(num_classes=4, width=16)
        etg = ExecutionTaskGraph(topo, (4, 16, 8, 8), seed=0)
        x = rng.standard_normal((4, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 4)
        assert np.isfinite(etg.train_step(x, y))


class TestGradientCheck:
    def test_end_to_end_weight_gradient(self, rng):
        """Finite-difference check of dLoss/dW through the whole ETG."""
        etg = ExecutionTaskGraph(tiny_topo(), (3, 16, 6, 6), seed=3)
        x = rng.standard_normal((3, 16, 6, 6)).astype(np.float32)
        y = rng.integers(0, 4, 3)
        etg.train_step(x, y)
        conv = etg.nodes["c1"]
        dw = conv.dweight.copy()
        eps = 1e-2
        for idx in [(0, 0, 0, 0), (7, 3, 1, 2)]:
            orig = conv.weight[idx]
            conv.weight[idx] = orig + eps
            lp = etg.forward_only(x, y)
            conv.weight[idx] = orig - eps
            lm = etg.forward_only(x, y)
            conv.weight[idx] = orig
            fd = (lp - lm) / (2 * eps)
            # fp32 forward differences are noisy; 10% agreement proves the
            # analytic gradient path end-to-end
            assert dw[idx] == pytest.approx(fd, rel=1e-1, abs=5e-3)

    def test_blocked_engine_matches_fast(self, rng):
        """The blocked streams engine and the fast engine must produce the
        same losses and gradients inside GxM."""
        x = rng.standard_normal((2, 16, 6, 6)).astype(np.float32)
        y = rng.integers(0, 4, 2)
        losses = {}
        grads = {}
        for engine in ("fast", "blocked"):
            etg = ExecutionTaskGraph(
                tiny_topo(), (2, 16, 6, 6), engine=engine, seed=5
            )
            losses[engine] = etg.train_step(x, y)
            grads[engine] = etg.nodes["c1"].dweight.copy()
        assert losses["fast"] == pytest.approx(losses["blocked"], rel=1e-5)
        assert np.allclose(grads["fast"], grads["blocked"], rtol=1e-3,
                           atol=1e-5)


class TestTierBitwise:
    @on_both_fold_paths
    def test_blocked_train_step_compiled_equals_interpret(self, rng):
        """A blocked train step of the perfbench model (every conv in
        forward, backward and update) gives the interpreter's loss and
        gradients bit for bit, on both fold paths."""
        topo = resnet_mini_topology(num_classes=4, width=32)
        x = rng.standard_normal((2, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 2)
        out = {}
        for tier in ("compiled", "interpret"):
            etg = ExecutionTaskGraph(topo, (2, 16, 8, 8), engine="blocked",
                                     execution_tier=tier, seed=5)
            loss = etg.train_step(x, y)
            out[tier] = [np.float64(loss)] + etg.grads()
        for got, ref in zip(out["compiled"], out["interpret"]):
            assert got.tobytes() == ref.tobytes()


class TestInputGradientSkip:
    def test_conv_on_the_data_top_builds_no_bwd_engine(self, rng):
        """The Data top keeps no gradient, so a blocked step never builds
        (or replays) conv1's BWD engine; every other conv needs one, and
        every conv still lands its weight gradient."""
        topo = resnet_mini_topology(num_classes=4, width=32)
        etg = ExecutionTaskGraph(topo, (2, 16, 8, 8), engine="blocked",
                                 seed=0)
        x = rng.standard_normal((2, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 2)
        Trainer(etg, lr=0.05).train_step(x, y)
        convs = {name: node for name, node in etg.nodes.items()
                 if isinstance(node, ConvNode)}
        assert len(convs) > 1
        assert convs["conv1"]._bwd is None
        assert all(node._bwd is not None
                   for name, node in convs.items() if name != "conv1")
        assert all(node.dweight.any() for node in convs.values())


class TestTraining:
    def test_loss_decreases(self):
        ds = SyntheticImageDataset(n=128, num_classes=4, shape=(16, 8, 8),
                                   seed=2)
        etg = ExecutionTaskGraph(tiny_topo(), (16, 16, 8, 8), seed=1)
        tr = Trainer(etg, lr=0.05)
        tr.fit(ds, batch_size=16, epochs=3)
        m = tr.metrics
        first = np.mean(m.losses[:3])
        last = np.mean(m.losses[-3:])
        assert last < 0.7 * first

    def test_beats_chance_accuracy(self):
        ds = SyntheticImageDataset(n=128, num_classes=4, shape=(16, 8, 8),
                                   seed=2)
        etg = ExecutionTaskGraph(tiny_topo(), (16, 16, 8, 8), seed=1)
        tr = Trainer(etg, lr=0.05)
        tr.fit(ds, batch_size=16, epochs=4)
        assert np.mean(tr.metrics.accuracies[-4:]) > 0.5  # chance = 0.25

    def test_sgd_momentum_math(self):
        p = np.array([1.0], dtype=np.float32)
        opt = SGD([p], lr=0.1, momentum=0.5)
        g = np.array([1.0], dtype=np.float32)
        opt.step([g])
        assert p[0] == pytest.approx(0.9)
        opt.step([g])
        # velocity = 0.5*1 + 1 = 1.5 -> p = 0.9 - 0.15
        assert p[0] == pytest.approx(0.75)

    def test_weight_decay(self):
        p = np.array([1.0], dtype=np.float32)
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.1)
        opt.step([np.array([0.0], dtype=np.float32)])
        assert p[0] == pytest.approx(1.0 - 0.1 * 0.1)

    def test_data_parallel_matches_single_node_without_bn(self, rng):
        """Sharded batches + gradient averaging == one big batch, when no
        layer carries cross-sample statistics."""
        ds = SyntheticImageDataset(n=64, num_classes=4, shape=(16, 8, 8),
                                   seed=4)
        results = {}
        for nodes in (1, 4):
            etg = ExecutionTaskGraph(tiny_topo(), (16, 16, 8, 8), seed=9)
            tr = Trainer(etg, lr=0.05, nodes=nodes)
            tr.fit(ds, batch_size=16 // nodes, epochs=1)
            results[nodes] = tr.metrics.losses
        assert np.allclose(results[1], results[4], rtol=1e-4)
