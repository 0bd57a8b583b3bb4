"""Stream serialization and GxM checkpointing."""

import io
import json

import numpy as np
import pytest

from repro.arch.machine import SKX
from repro.conv.forward import DirectConvForward
from repro.conv.params import ConvParams
from repro.gxm.checkpoint import load_checkpoint, save_checkpoint
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.inference import InferenceSession, fold_batchnorms
from repro.models.resnet50 import resnet_mini_topology
from repro.streams.serialize import (
    StaleArtifactError,
    load_stream_bundle,
    load_streams,
    save_stream_bundle,
    save_streams,
    streams_digest,
)
from repro.types import ReproError


class TestStreamSerialization:
    def _engine(self):
        p = ConvParams(N=1, C=16, K=16, H=6, W=6, R=3, S=3, stride=1)
        return DirectConvForward(p, machine=SKX, threads=2)

    def test_roundtrip(self, tmp_path):
        eng = self._engine()
        path = tmp_path / "streams.npz"
        save_streams(path, eng.streams, meta={"layer": "conv1"})
        loaded, meta = load_streams(path)
        assert meta["layer"] == "conv1"
        assert len(loaded) == len(eng.streams)
        for a, b in zip(eng.streams, loaded):
            assert np.array_equal(a.kinds, b.kinds)
            assert np.array_equal(a.i_off, b.i_off)
            assert np.array_equal(a.o_off, b.o_off)

    def test_digest_stable_and_sensitive(self):
        eng = self._engine()
        d1 = streams_digest(eng.streams)
        d2 = streams_digest(self._engine().streams)
        assert d1 == d2  # deterministic dryrun
        other = DirectConvForward(
            ConvParams(N=1, C=16, K=16, H=8, W=8, R=3, S=3, stride=1),
            machine=SKX, threads=2,
        )
        assert streams_digest(other.streams) != d1

    def test_in_memory_file(self):
        eng = self._engine()
        buf = io.BytesIO()
        save_streams(buf, eng.streams)
        buf.seek(0)
        loaded, meta = load_streams(buf)
        assert meta["threads"] == 2
        assert loaded[0].conv_calls == eng.streams[0].conv_calls

    def test_replay_from_loaded_streams(self, tmp_path, rng):
        """Streams reloaded from disk must replay to the same result."""
        p = ConvParams(N=1, C=16, K=16, H=6, W=6, R=3, S=3, stride=1)
        eng = DirectConvForward(p, machine=SKX, threads=2)
        x = rng.standard_normal((p.N, p.C, p.H, p.W)).astype(np.float32)
        w = rng.standard_normal((p.K, p.C, p.R, p.S)).astype(np.float32)
        before = eng.run_nchw(x, w)
        path = tmp_path / "s.npz"
        save_streams(path, eng.streams)
        eng.streams, _ = load_streams(path)
        from repro.streams.rle import encode_segments

        eng.segments = [encode_segments(s) for s in eng.streams]
        assert np.array_equal(eng.run_nchw(x, w), before)


def _stream_file(path, streams):
    save_streams(path, streams)


def _bundle_file(path, streams):
    save_stream_bundle(path, {"conv1": streams})


def _old_version(loader, path):
    key = "version" if loader is load_streams else "bundle_version"
    doc = json.dumps({key: 0, "threads": 0, "entries": {}}).encode()
    np.savez(path, __meta__=np.frombuffer(doc, dtype=np.uint8))


#: every way a stream artifact can be unusable, as (name, writer); the
#: writer makes the artifact at ``path`` for ``loader`` from a valid one
#: (``good(path)``) where it needs one
_BROKEN_ARTIFACTS = [
    ("empty", lambda loader, good, path: path.write_bytes(b"")),
    ("truncated", lambda loader, good, path: (
        good(path), path.write_bytes(path.read_bytes()[:200]))),
    ("garbage", lambda loader, good, path: path.write_bytes(
        np.random.default_rng(0).bytes(4096))),
    ("no_meta", lambda loader, good, path: np.savez(path, x=np.zeros(3))),
    ("old_version", lambda loader, good, path: _old_version(loader, path)),
]


class TestStreamLoaderErrors:
    """Both stream loaders raise one typed error for an unusable
    artifact and leave a missing path a :class:`FileNotFoundError`."""

    LOADERS = {"load_streams": (load_streams, _stream_file),
               "load_stream_bundle": (load_stream_bundle, _bundle_file)}

    @pytest.fixture
    def streams(self):
        p = ConvParams(N=1, C=16, K=16, H=6, W=6, R=3, S=3, stride=1)
        return DirectConvForward(p, machine=SKX, threads=2).streams

    @pytest.mark.parametrize("loader", list(LOADERS))
    def test_missing_path_is_file_not_found(self, tmp_path, loader):
        load, _ = self.LOADERS[loader]
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "absent.npz")

    @pytest.mark.parametrize("case", [c for c, _ in _BROKEN_ARTIFACTS])
    @pytest.mark.parametrize("loader", list(LOADERS))
    def test_unusable_artifact_is_stale(self, tmp_path, streams, loader,
                                        case):
        load, save = self.LOADERS[loader]
        path = tmp_path / "artifact.npz"
        dict(_BROKEN_ARTIFACTS)[case](
            load, lambda p: save(p, streams), path)
        with pytest.raises(StaleArtifactError):
            load(path)

    @pytest.mark.parametrize("loader", list(LOADERS))
    def test_valid_artifact_loads(self, tmp_path, streams, loader):
        load, save = self.LOADERS[loader]
        save(tmp_path / "ok.npz", streams)
        assert load(tmp_path / "ok.npz")


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
