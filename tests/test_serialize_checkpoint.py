"""GxM checkpointing and inference sessions."""

import numpy as np
import pytest

from repro.gxm.checkpoint import load_checkpoint, save_checkpoint
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.inference import InferenceSession, fold_batchnorms
from repro.models.resnet50 import resnet_mini_topology
from repro.types import ReproError


class TestCheckpoint:
    def _etg(self, seed=0):
        topo = resnet_mini_topology(num_classes=4, width=16)
        return ExecutionTaskGraph(topo, (4, 16, 8, 8), seed=seed)

    def test_roundtrip_restores_outputs(self, tmp_path, rng):
        etg = self._etg(seed=1)
        x = rng.standard_normal((4, 16, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, 4)
        etg.train_step(x, y)  # move weights off their init
        from repro.gxm.trainer import SGD

        SGD(etg.params(), lr=0.1).step(etg.grads())
        loss_trained = etg.forward_only(x, y)
        path = tmp_path / "ck.npz"
        save_checkpoint(etg, path)

        fresh = self._etg(seed=2)  # different init
        assert fresh.forward_only(x, y) != pytest.approx(loss_trained)
        restored = load_checkpoint(fresh, path)
        assert restored
        # BN running stats differ (fresh never saw data) -- but they are
        # checkpointed too, so the forward must now agree exactly
        for bn in [n.layer for n in fresh.nodes.values()
                   if hasattr(n, "layer") and hasattr(n.layer, "running_mean")]:
            bn.training = False
        for bn in [n.layer for n in etg.nodes.values()
                   if hasattr(n, "layer") and hasattr(n.layer, "running_mean")]:
            bn.training = False
        assert fresh.forward_only(x, y) == pytest.approx(
            etg.forward_only(x, y), rel=1e-6
        )

    def test_strict_mode_rejects_mismatched_topology(self, tmp_path):
        etg = self._etg()
        path = tmp_path / "ck.npz"
        save_checkpoint(etg, path)
        from repro.gxm.topology import TopologySpec

        other = TopologySpec("other")
        d = other.data("data")
        t = other.conv("convX", d, 16, 3)
        t = other.global_pool("gap", t)
        t = other.fc("fc", t, 4)
        other.loss("loss", t)
        other_etg = ExecutionTaskGraph(other, (4, 16, 8, 8))
        with pytest.raises(ReproError):
            load_checkpoint(other_etg, path)


class TestInference:
    def test_session_toggles_bn_and_restores(self):
        etg = ExecutionTaskGraph(
            resnet_mini_topology(num_classes=4, width=16), (4, 16, 8, 8)
        )
        bns = [n.layer for n in etg.nodes.values()
               if hasattr(n, "layer") and hasattr(n.layer, "running_mean")]
        assert all(bn.training for bn in bns)
        with InferenceSession(etg):
            assert all(not bn.training for bn in bns)
        assert all(bn.training for bn in bns)

    def test_predict_probabilities(self, rng):
        etg = ExecutionTaskGraph(
            resnet_mini_topology(num_classes=4, width=16), (4, 16, 8, 8)
        )
        x = rng.standard_normal((4, 16, 8, 8)).astype(np.float32)
        with InferenceSession(etg) as sess:
            probs = sess.predict(x)
        assert probs.shape == (4, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_evaluate_after_training_beats_chance(self):
        from repro.gxm.data import SyntheticImageDataset
        from repro.gxm.trainer import Trainer

        ds = SyntheticImageDataset(n=128, num_classes=4, shape=(16, 8, 8),
                                   seed=6)
        etg = ExecutionTaskGraph(
            resnet_mini_topology(num_classes=4, width=16), (16, 16, 8, 8),
            seed=3,
        )
        Trainer(etg, lr=0.05).fit(ds, batch_size=16, epochs=3)
        with InferenceSession(etg) as sess:
            result = sess.evaluate(ds, batch_size=16)
        assert result.top1 > 0.5
        assert result.top5 >= result.top1
        assert result.n == 128

    def test_fold_batchnorms(self):
        etg = ExecutionTaskGraph(
            resnet_mini_topology(num_classes=4, width=16), (2, 16, 8, 8)
        )
        folded = fold_batchnorms(etg)
        assert folded  # every _bn node present
        for g, b in folded.values():
            assert g.shape == b.shape
