"""repro.forensics: incident bundles, deterministic replay.

The load-bearing guarantees, each tested here (the bounded ring the
bundles freeze is tested with the tracer, in ``test_obs.py``):

* **atomic, tamper-evident bundles** -- a capture either fully exists
  under its final name or not at all, and any bit flipped after the
  write is detected at load time (:class:`BundleError`), never replayed;
* **torn-write checkpoint safety** -- a crash injected between the tmp
  write and the ``os.replace`` leaves the last good checkpoint intact,
  so a resume falls back to it with no live array half-mutated;
* **deterministic replay** -- a training-step bundle captured during a
  mid-collective worker crash and a serving bundle captured during a
  canary rollback both re-execute bitwise
  (``python -m repro incident replay``), end to end through the CLI.
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.forensics import (
    BundleError,
    IncidentWriter,
    ReplayMismatch,
    diff_incidents,
    digest_tensor_list,
    list_incidents,
    load_incident,
    replay_incident,
    tensor_digest,
    write_incident,
)
from repro.gxm.checkpoint import (
    load_checkpoint,
    load_training_checkpoint,
    save_checkpoint,
    save_training_checkpoint,
)
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.multiproc import ProcessParallelTrainer
from repro.gxm.trainer import SGD
from repro.models.resnet50 import resnet_mini_topology
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.serve import (
    CanaryError,
    InferenceServer,
    ServeConfig,
)

pytestmark = pytest.mark.timeout(180)

SHAPE = (3, 8, 8)


def _etg(seed=0):
    return ExecutionTaskGraph(
        resnet_mini_topology(num_classes=4, width=8), (2, *SHAPE),
        engine="fast", seed=seed,
    )


def serve_images(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 16, 8, 8)).astype(np.float32)


# ---------------------------------------------------------------------------
class TestBundle:
    def _write(self, tmp_path, **kw):
        kw.setdefault("kind", "serve")
        kw.setdefault("error", ValueError("boom"))
        kw.setdefault("tensors", {
            "x": np.arange(6, dtype=np.float32).reshape(2, 3),
        })
        kw.setdefault("events", [])
        return write_incident(str(tmp_path), **kw)

    def test_write_load_roundtrip(self, tmp_path):
        path = self._write(
            tmp_path, replay={"mode": "serve", "bucket": 1},
            extra={"trigger": "test"},
        )
        assert os.path.basename(path).startswith("incident_serve_")
        doc = load_incident(path)
        m = doc["manifest"]
        assert m["error"] == {"type": "ValueError", "message": "boom"}
        assert m["replay"]["bucket"] == 1
        assert m["tensor_digests"]["x"] == tensor_digest(doc["tensors"]["x"])
        # no tmp litter survives the claim
        assert not [n for n in os.listdir(tmp_path) if ".tmp~" in n]

    def test_concurrent_names_never_collide(self, tmp_path):
        a = self._write(tmp_path)
        b = self._write(tmp_path)
        assert a != b and os.path.isdir(a) and os.path.isdir(b)

    def test_tampered_file_is_rejected(self, tmp_path):
        path = self._write(tmp_path)
        with open(os.path.join(path, "events.json"), "a") as fh:
            fh.write(" ")
        with pytest.raises(BundleError, match="digest mismatch"):
            load_incident(path)
        rows = list_incidents(str(tmp_path))
        assert [r["valid"] for r in rows] == [False]

    def test_missing_file_is_rejected(self, tmp_path):
        path = self._write(tmp_path)
        os.unlink(os.path.join(path, "tensors.npz"))
        with pytest.raises(BundleError, match="missing"):
            load_incident(path)

    def test_verify_false_skips_digests(self, tmp_path):
        path = self._write(tmp_path)
        with open(os.path.join(path, "events.json"), "a") as fh:
            fh.write(" ")
        doc = load_incident(path, verify=False)
        assert doc["manifest"]["kind"] == "serve"

    def test_diff_incidents(self, tmp_path):
        a = self._write(tmp_path, extra={"n": 1})
        b = self._write(
            tmp_path,
            tensors={"x": np.ones((2, 3), dtype=np.float32)},
        )
        rep = diff_incidents(a, b)
        assert not rep["same"] and "x" in rep["tensor_diffs"]
        same = diff_incidents(a, a)
        assert same["same"] and not same["tensor_diffs"]

    def test_writer_disabled_and_capture_failure(self, tmp_path):
        off = IncidentWriter(None)
        assert not off.enabled
        assert off.capture("serve") is None
        writer = IncidentWriter(str(tmp_path))
        before = get_metrics().value("forensics.bundle_errors")
        # an undigestable tensor fails the capture, which is swallowed
        # (the original failure must never be masked by forensics)
        assert writer.capture("serve", tensors={"x": object()}) is None
        assert get_metrics().value("forensics.bundle_errors") == before + 1
        assert writer.written == []
        strict = IncidentWriter(str(tmp_path), strict=True)
        with pytest.raises(Exception):  # noqa: B017 -- any capture error
            strict.capture("serve", tensors={"x": object()})

    def test_events_only_bundle_replays_trivially(self, tmp_path):
        path = self._write(tmp_path, replay=None, tensors={})
        rep = replay_incident(path)
        assert rep == {"ok": True, "mode": None, "replayed": False}

    def test_batch_in_flight_is_frozen(self, tmp_path):
        """A batch's record enters the ring when the batch starts, so a
        bundle frozen while it runs holds it, request ids included."""
        from repro import obs

        tracer = obs.enable("events")
        with tracer.record("serve.batch", bucket=2, n=2, reqs=[7, 8]):
            path = write_incident(str(tmp_path), kind="manual")
        (batch,) = [e for e in load_incident(path)["events"]
                    if e["name"] == "serve.batch"]
        assert batch["args"]["reqs"] == [7, 8]
        assert batch["dur_us"] == 0.0 and batch["pid"] == os.getpid()


# ---------------------------------------------------------------------------
class TestCheckpointTornWrite:
    """Satellite: a crash between the tmp write and ``os.replace`` must
    leave the previous checkpoint untouched and resumable."""

    def _crash_injector(self):
        return FaultInjector(FaultPlan((
            FaultSpec(site="checkpoint.save", kind="crash", count=1),
        )))

    def test_weight_checkpoint_survives_torn_write(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        etg = _etg(seed=0)
        save_checkpoint(etg, path)
        good = [p.copy() for p in etg.params()]
        for p in etg.params():
            p += 1.0
        perturbed = [p.copy() for p in etg.params()]
        with pytest.raises(InjectedFault, match="tmp write"):
            save_checkpoint(etg, path, injector=self._crash_injector())
        # the tmp sibling is gone, the live arrays untouched by the
        # failed save, and the file still holds the last good weights
        assert not [n for n in os.listdir(tmp_path) if ".tmp~" in n]
        assert all(
            np.array_equal(p, q) for p, q in zip(etg.params(), perturbed)
        )
        fresh = _etg(seed=3)
        load_checkpoint(fresh, path)
        assert all(
            np.array_equal(p, q) for p, q in zip(fresh.params(), good)
        )

    def test_training_resume_falls_back_to_last_good(self, tmp_path):
        path = str(tmp_path / "train.npz")
        etg = _etg(seed=0)
        opt = SGD(etg.params(), lr=0.05)
        save_training_checkpoint(
            path, etg, opt, step=3, losses=[1.0, 0.9, 0.8],
        )
        good = [p.copy() for p in etg.params()]
        for p in etg.params():
            p *= 1.5
        with pytest.raises(InjectedFault):
            save_training_checkpoint(
                path, etg, opt, step=4,
                injector=self._crash_injector(),
            )
        fresh = _etg(seed=3)
        ck = load_training_checkpoint(path, fresh, SGD(fresh.params()))
        assert ck.step == 3  # the step-4 save died; resume is exact to 3
        assert ck.losses == [1.0, 0.9, 0.8]
        assert all(
            np.array_equal(p, q) for p, q in zip(fresh.params(), good)
        )

    def test_recorder_breadcrumbs_for_checkpoint_and_fault(self, tmp_path):
        from repro import obs

        rec = obs.enable("events")
        rec.clear()
        path = str(tmp_path / "ck.npz")
        etg = _etg()
        save_checkpoint(etg, path)
        load_checkpoint(etg, path)
        with pytest.raises(InjectedFault):
            save_checkpoint(etg, path, injector=self._crash_injector())
        kinds = [r.name for r in rec.events()]
        assert "checkpoint.save" in kinds and "checkpoint.load" in kinds
        (fire,) = rec.events("fault.fire")
        assert fire.args["site"] == "checkpoint.save"
        assert fire.args["kind"] == "crash"


# ---------------------------------------------------------------------------
class TestTrainIncidentDrill:
    """Tentpole drill, training side: a mid-collective worker crash
    degrades the step, freezes exactly one bundle, and the bundle
    replays bitwise -- through the API and through the CLI."""

    def test_collective_crash_bundle_replays_bitwise(self, tmp_path):
        inc = str(tmp_path / "incidents")
        plan = FaultPlan(specs=(
            FaultSpec(site="collective.hop", kind="crash",
                      step=2, rank=1),
        ))
        t = ProcessParallelTrainer(
            resnet_mini_topology(num_classes=4, width=8), (2, *SHAPE),
            nodes=2, seed=0, step_timeout=10.0, bucket_bytes=1024,
            fault_plan=plan, incident_dir=inc,
        )
        rng = np.random.default_rng(0)
        try:
            for _ in range(4):
                x = rng.standard_normal((4, *SHAPE)).astype(np.float32)
                labels = rng.integers(0, 4, 4)
                assert np.isfinite(t.train_step(x, labels))
            written = list(t.incidents.written)
        finally:
            t.close()

        assert len(written) == 1, "exactly one bundle per degraded step"
        rows = list_incidents(inc)
        assert [r["valid"] for r in rows] == [True]
        doc = load_incident(written[0])
        m = doc["manifest"]
        assert m["kind"] == "train"
        assert m["error"]["type"] == "WorkerFailure"
        assert m["extra"]["failed_rank"] == 1
        assert m["replay"]["mode"] == "train" and m["replay"]["step"] == 2
        # the worker rings drained into the root's before the freeze
        hops = [e for e in doc["events"] if e["name"] == "collective.hop"]
        assert any(e["pid"] != os.getpid() for e in hops)
        # the recorded expectation is the digest of the bit-identically
        # recomputed gradients -- the replay must reproduce it
        assert m["expect"]["grads"]

        rep = replay_incident(written[0])
        assert rep["ok"] and rep["mode"] == "train"
        assert rep["digests"]["grads"] == m["expect"]["grads"]
        assert rep["digests"]["loss"] == m["expect"]["loss"]
        # and the CLI agrees
        assert cli_main(["incident", "replay", written[0]]) == 0

        # bundles written by older versions carry extra keys this one
        # no longer writes (such as the retired degrade-policy choice):
        # they still load and replay
        assert set(m["extra"]) == {
            "failed_rank", "failures", "allreduce", "nodes",
        }
        mpath = os.path.join(written[0], "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest["extra"]["retired_key"] = "recompute"
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        assert [r["valid"] for r in list_incidents(inc)] == [True]
        assert load_incident(written[0])["manifest"]["extra"][
            "retired_key"] == "recompute"
        assert replay_incident(written[0])["ok"]

    def test_replay_detects_a_tampered_expectation(self, tmp_path):
        """Flip one expected digest: the replay must refuse, and the
        CLI must exit non-zero (the bundle file digests do not cover
        the manifest -- the manifest IS the claim being checked)."""
        inc = str(tmp_path / "incidents")
        plan = FaultPlan(specs=(
            FaultSpec(site="collective.hop", kind="crash",
                      step=0, rank=0),
        ))
        t = ProcessParallelTrainer(
            resnet_mini_topology(num_classes=4, width=8), (2, *SHAPE),
            nodes=2, seed=0, step_timeout=10.0, bucket_bytes=1024,
            fault_plan=plan, incident_dir=inc,
        )
        try:
            rng = np.random.default_rng(0)
            x = rng.standard_normal((4, *SHAPE)).astype(np.float32)
            t.train_step(x, rng.integers(0, 4, 4))
            (path,) = t.incidents.written
        finally:
            t.close()
        mpath = os.path.join(path, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest["expect"]["grads"] = "0" * 16
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ReplayMismatch, match="grads"):
            replay_incident(path)
        assert cli_main(["incident", "replay", path]) == 1


# ---------------------------------------------------------------------------
class TestServeIncidentDrill:
    """Tentpole drill, serving side: a canary rollback and
    ``POST /admin/dump`` each freeze one replayable bundle."""

    def test_canary_rollback_bundle_replays_bitwise(self, tmp_path):
        from dataclasses import replace

        inc = str(tmp_path / "incidents")
        cfg = ServeConfig(buckets=(1, 2), batch_window_ms=1.0,
                          incident_dir=inc)
        ck_a = str(tmp_path / "a.npz")
        ck_b = str(tmp_path / "b.npz")
        save_checkpoint(replace(cfg, seed=11).build_etg(1), ck_a)
        save_checkpoint(replace(cfg, seed=22).build_etg(1), ck_b)
        injector = FaultInjector(FaultPlan((
            FaultSpec(site="serve.reload.canary_fail",
                      kind="canary_fail", count=1),
        )))
        server = InferenceServer(
            replace(cfg, checkpoint=ck_a), fault_injector=injector
        )
        server.start()
        try:
            with pytest.raises(CanaryError, match="rolled back"):
                server.reload_checkpoint(ck_b)
            (path,) = server._incidents.written
            assert "serve.reload.rollback" in {
                r.name for r in get_tracer().events()
            }
        finally:
            server.stop()
        m = load_incident(path)["manifest"]
        assert m["error"]["type"] == "CanaryError"
        assert m["extra"] == {"checkpoint": ck_b, "trigger": "canary"}
        # the bundle's config points at the *rejected* checkpoint, so
        # the replay rebuilds exactly the engine the canary ran on
        assert m["config"]["checkpoint"] == ck_b
        rep = replay_incident(path)
        assert rep["ok"] and rep["mode"] == "serve"

    def test_dump_incident_records_and_replays(self, tmp_path):
        inc = str(tmp_path / "incidents")
        cfg = ServeConfig(buckets=(1, 2), incident_dir=inc)
        with InferenceServer(cfg) as server:
            server.predict(serve_images(1)[0], timeout=30.0)
            path = server.dump_incident()
            assert server.health()["incident_bundles"] == 1
        doc = load_incident(path)
        m = doc["manifest"]
        assert m["kind"] == "manual" and m["extra"]["trigger"] == "dump"
        # the admission and batch of the served request are in the ring
        kinds = {e["name"] for e in doc["events"]}
        assert {"serve.admit", "serve.batch", "serve.dump"} <= kinds
        rep = replay_incident(path)
        assert rep["ok"] and rep["digests"]["y"] == m["expect"]["y"]

    def test_dump_without_incident_dir_is_refused(self):
        from repro.types import ReproError

        with InferenceServer(ServeConfig(buckets=(1,))) as server:
            with pytest.raises(ReproError, match="incident_dir"):
                server.dump_incident()

    def test_config_fingerprint_ignores_forensics_knobs(self, tmp_path):
        base = ServeConfig(buckets=(1, 2))
        armed = ServeConfig(buckets=(1, 2), incident_dir=str(tmp_path))
        assert base.fingerprint() == armed.fingerprint()


# ---------------------------------------------------------------------------
class TestIncidentCLI:
    def _dump_bundle(self, tmp_path):
        inc = str(tmp_path / "incidents")
        cfg = ServeConfig(buckets=(1,), incident_dir=inc)
        with InferenceServer(cfg) as server:
            path = server.dump_incident()
        return inc, path

    def test_list_show_diff(self, tmp_path, capsys):
        inc, path = self._dump_bundle(tmp_path)
        assert cli_main(["incident", "list", "--dir", inc]) == 0
        out = capsys.readouterr().out
        assert os.path.basename(path) in out and "kind=manual" in out
        assert cli_main(["incident", "show", path]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["kind"] == "manual" and shown["tensor_shapes"]
        assert cli_main(["incident", "diff", path, path]) == 0
        assert json.loads(capsys.readouterr().out)["same"]

    def test_two_list_layout_still_lists_shows_and_replays(
        self, tmp_path, capsys
    ):
        """Older bundles hold ``events.json`` as two lists (``ring``
        events and ``spans``) and a config with retired fields (the
        ring capacity, the worker count); they still list, show and
        replay."""
        import hashlib

        inc, path = self._dump_bundle(tmp_path)
        old = {
            "ring": [
                {"kind": e["name"], "ts_us": int(e["ts_us"]),
                 "pid": e["pid"], "args": e["args"]}
                for e in load_incident(path)["events"]
            ],
            "spans": [
                {"name": "etg.task", "ts_us": 1.0, "dur_us": 2.0, "pid": 1,
                 "tid": 2, "depth": 0, "args": {"layer": "fc"}},
            ],
        }
        epath = os.path.join(path, "events.json")
        with open(epath, "w") as fh:
            json.dump(old, fh)
        mpath = os.path.join(path, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest["config"]["recorder"] = 64
        manifest["config"]["workers"] = 2
        with open(epath, "rb") as fh:
            manifest["files"]["events.json"] = hashlib.sha256(
                fh.read()
            ).hexdigest()[:16]
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)

        assert cli_main(["incident", "list", "--dir", inc]) == 0
        out = capsys.readouterr().out
        assert "BAD" not in out and "kind=manual" in out
        assert cli_main(["incident", "show", path]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["events"] == {"serve.dump": 1, "etg.task": 1}
        assert cli_main(["incident", "replay", path]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_list_empty_dir(self, tmp_path, capsys):
        assert cli_main(
            ["incident", "list", "--dir", str(tmp_path / "nope")]
        ) == 0
        assert "no incident bundles" in capsys.readouterr().out

    def test_list_flags_tampered_bundle(self, tmp_path, capsys):
        inc, path = self._dump_bundle(tmp_path)
        with open(os.path.join(path, "events.json"), "a") as fh:
            fh.write(" ")
        assert cli_main(["incident", "list", "--dir", inc]) == 0
        assert "BAD" in capsys.readouterr().out
        # show refuses the tampered bundle unless told not to verify
        with pytest.raises(BundleError):
            cli_main(["incident", "show", path])
        assert cli_main(["incident", "show", path, "--no-verify"]) == 0

    def test_replay_mismatch_exits_nonzero(self, tmp_path, capsys):
        _inc, path = self._dump_bundle(tmp_path)
        mpath = os.path.join(path, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest["expect"]["y"] = "f" * 16
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        assert cli_main(["incident", "replay", path]) == 1
        assert "REPLAY MISMATCH" in capsys.readouterr().out

    def test_wrong_arity_is_a_typed_error(self, tmp_path):
        from repro.types import ReproError

        with pytest.raises(ReproError, match="exactly 1"):
            cli_main(["incident", "show"])
        with pytest.raises(ReproError, match="exactly 2"):
            cli_main(["incident", "diff", "only-one"])


# ---------------------------------------------------------------------------
class TestDigestHelpers:
    def test_tensor_digest_covers_dtype_shape_bytes(self):
        a = np.arange(6, dtype=np.float32)
        assert tensor_digest(a) == tensor_digest(a.copy())
        assert tensor_digest(a) != tensor_digest(a.reshape(2, 3))
        assert tensor_digest(a) != tensor_digest(a.astype(np.float64))
        b = a.copy()
        b[0] += 1e-7
        assert tensor_digest(a) != tensor_digest(b)

    def test_digest_tensor_list_is_order_sensitive(self):
        a = np.ones(3, dtype=np.float32)
        b = np.zeros(3, dtype=np.float32)
        assert digest_tensor_list([a, b]) != digest_tensor_list([b, a])
