"""The fault matrix: every injectable fault, every recovery guarantee.

Tentpole tests for :mod:`repro.resilience` -- deterministic fault
injection wired through process-parallel training (crash / hang /
corrupt-message / NaN-gradient at named sites), exact-to-the-step
checkpoint resume, and the serving layer's graceful degradation
(worker crash -> supervisor restart, compiled-tier failure ->
interpret fallback).

The headline invariant, asserted bitwise throughout: a training run
that loses workers mid-step and recovers finishes with weights
*identical* to an undisturbed run (lost shards are recomputed at the
root), and a run killed and resumed from its autosave reproduces the
undisturbed trajectory exactly.
"""

from __future__ import annotations

import io
import os
import signal
import time

import numpy as np
import pytest

from repro.gxm.checkpoint import (
    CheckpointNotFoundError,
    load_checkpoint,
    load_training_checkpoint,
    read_checkpoint_meta,
    save_training_checkpoint,
)
from repro.gxm.data import SyntheticImageDataset
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.multiproc import ProcessParallelTrainer
from repro.gxm.parser import parse_topology
from repro.gxm.trainer import Trainer
from repro.models.resnet50 import resnet_mini_topology
from repro.obs.metrics import get_metrics
from repro.resilience import (
    DivergenceError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_file,
)
from repro.types import ReproError

pytestmark = pytest.mark.timeout(120)

SHAPE = (3, 8, 8)
CLASSES = 4


def tiny_topology():
    return resnet_mini_topology(num_classes=CLASSES, width=8)


def tiny_dataset(n=24, seed=3):
    return SyntheticImageDataset(
        n=n, num_classes=CLASSES, shape=SHAPE, seed=seed
    )


def tiny_trainer(**kw):
    etg = ExecutionTaskGraph(
        parse_topology(tiny_topology().to_text()),
        (4, *SHAPE),
        engine="fast",
        seed=0,
    )
    return Trainer(etg, lr=0.05, **kw)


def weights_of(etg):
    return [p.copy() for p in etg.params()]


@pytest.fixture
def clean_metrics():
    get_metrics().clear()
    yield get_metrics()
    get_metrics().clear()


# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_fires_only_at_matching_site_step_rank(self, clean_metrics):
        plan = FaultPlan(
            specs=(FaultSpec(site="s", kind="crash", step=2, rank=1),)
        )
        inj = FaultInjector(plan)
        assert inj.fire("other", step=2, rank=1) is None
        assert inj.fire("s", step=1, rank=1) is None
        assert inj.fire("s", step=2, rank=0) is None
        spec = inj.fire("s", step=2, rank=1)
        assert spec is not None and spec.kind == "crash"
        # count=1: armed exactly once
        assert inj.fire("s", step=2, rank=1) is None
        assert not inj.enabled
        assert clean_metrics.value("resilience.faults_injected") == 1

    def test_probability_draws_are_seeded(self, clean_metrics):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="s", kind="crash", count=100, probability=0.5
                ),
            ),
            seed=42,
        )
        inj_a, inj_b = FaultInjector(plan), FaultInjector(plan)
        a = [inj_a.fire("s") is not None for _ in range(40)]
        b = [inj_b.fire("s") is not None for _ in range(40)]
        assert a == b  # same plan => same seeded draw sequence
        assert any(a) and not all(a)

    def test_worker_streams_are_keyed_by_rank_and_incarnation(self):
        """A parent injector draws ``default_rng(plan.seed)``; a trainer
        worker's draws depend on its rank and incarnation, so two ranks,
        or a rank and its respawn, do not share one sequence."""
        import pickle

        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="s", kind="crash", count=100, probability=0.5
                ),
            ),
            seed=7,
        )

        def draws(**kw):
            inj = FaultInjector(plan, **kw)
            return [inj.fire("s") is not None for _ in range(40)]

        rng = np.random.default_rng(7)
        assert draws() == [rng.random() < 0.5 for _ in range(40)]
        streams = {
            key: draws(spawn_key=key)
            for key in ((0, 0), (1, 0), (0, 1))
        }
        assert len({tuple(d) for d in [draws(), *streams.values()]}) == 4
        assert draws(spawn_key=(1, 0)) == streams[(1, 0)]
        clone = pickle.loads(
            pickle.dumps(FaultInjector(plan, spawn_key=(0, 1)))
        )
        assert clone.spawn_key == (0, 1)

    def test_injector_pickles_via_plan(self):
        import pickle

        plan = FaultPlan(specs=(FaultSpec(site="s", kind="hang"),))
        clone = pickle.loads(pickle.dumps(FaultInjector(plan)))
        assert clone.plan == plan
        assert clone.fire("s") is not None

    def test_rejects_unknown_kind_and_bad_probability(self):
        with pytest.raises(ReproError, match="unknown fault kind"):
            FaultSpec(site="s", kind="meteor")
        with pytest.raises(ReproError, match="probability"):
            FaultSpec(site="s", kind="crash", probability=0.0)

    def test_corrupt_file_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        payload = bytes(range(256)) * 8
        p1.write_bytes(payload)
        p2.write_bytes(payload)
        assert corrupt_file(str(p1), n_bytes=32) == 32
        corrupt_file(str(p2), n_bytes=32)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes() != payload


# ---------------------------------------------------------------------------
class TestProcessParallelFaultMatrix:
    """Injected worker faults; recovery must be bit-identical under the
    default ``recompute`` degrade policy."""

    def _healthy_weights(self, ds):
        t = ProcessParallelTrainer(tiny_topology(), (2, *SHAPE), nodes=3,
                                   seed=0)
        try:
            t.fit(ds, batch_size=2, epochs=1)
            return weights_of(t.etg), list(t.metrics.losses)
        finally:
            t.close()

    def _faulted_run(self, ds, plan, **kw):
        kw.setdefault("step_timeout", 15.0)
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=3, seed=0,
            fault_plan=plan, **kw,
        )
        try:
            t.fit(ds, batch_size=2, epochs=1)
            return t, weights_of(t.etg), list(t.metrics.losses)
        finally:
            t.close()

    @pytest.mark.parametrize(
        "kind,timeout",
        [("crash", 15.0), ("hang", 1.0), ("corrupt_message", 15.0)],
    )
    def test_worker_fault_recovers_bit_identical(
        self, clean_metrics, kind, timeout
    ):
        ds = tiny_dataset()
        ref_w, ref_losses = self._healthy_weights(ds)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="mp.worker.step", kind=kind, step=2, rank=1
                ),
            )
        )
        t, w, losses = self._faulted_run(ds, plan, step_timeout=timeout)
        assert clean_metrics.value("resilience.degraded_steps") == 1
        assert clean_metrics.value("resilience.respawns") == 1
        assert [f.rank for f in t.failures] == [1]
        assert losses == ref_losses
        assert all(np.array_equal(a, b) for a, b in zip(ref_w, w))

    def test_external_sigkill_mid_training_recovers(self, clean_metrics):
        ds = tiny_dataset()
        ref_w, ref_losses = self._healthy_weights(ds)
        clean_metrics.clear()
        t = ProcessParallelTrainer(tiny_topology(), (2, *SHAPE), nodes=3,
                                   seed=0, step_timeout=15.0)
        try:
            batches = list(ds.batches(6, 1, seed=t.shuffle_seed))
            for i, (x, y) in enumerate(batches):
                if i == 2:
                    os.kill(t._procs[0].pid, signal.SIGKILL)
                    t._procs[0].join(timeout=10)
                t.train_step(x, y)
            m = clean_metrics
            assert m.value("resilience.degraded_steps") == 1
            # one fallback root step, then a ring step that re-syncs the
            # respawned rank only: 3 syncs at start + 1
            assert m.value("collective.rootsteps") == 1
            assert m.value("collective.steps") == len(batches) - 1
            assert m.value("collective.syncs") == 4
            assert t.metrics.losses == ref_losses
            assert all(
                np.array_equal(a, b)
                for a, b in zip(ref_w, weights_of(t.etg))
            )
        finally:
            t.close()

    def test_every_worker_dead_recompute_still_trains(self,
                                                      clean_metrics):
        # recompute re-runs every lost shard on the root replica, so
        # even total worker loss degrades instead of aborting
        ds = tiny_dataset()
        ref_w, ref_losses = self._healthy_weights(ds)
        t = ProcessParallelTrainer(tiny_topology(), (2, *SHAPE), nodes=3,
                                   seed=0, step_timeout=10.0,
                                   max_respawns=0)
        try:
            for proc in t._procs:
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10)
            t.fit(ds, batch_size=2, epochs=1)
            assert t.live_workers == 0
            assert t.metrics.losses == ref_losses
            assert all(
                np.array_equal(a, b)
                for a, b in zip(ref_w, weights_of(t.etg))
            )
        finally:
            t.close()

    def test_respawn_budget_is_bounded(self, clean_metrics):
        ds = tiny_dataset()
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="mp.worker.step", kind="crash", rank=1, count=5
                ),
            )
        )
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=3, seed=0,
            fault_plan=plan, step_timeout=15.0, max_respawns=2,
        )
        try:
            t.fit(ds, batch_size=2, epochs=1)
            assert clean_metrics.value("resilience.respawns") == 2
            # after the budget is spent rank 1 stays down; training
            # continues degraded on the survivors
            assert len(t.metrics.losses) == len(ds) // 6
            assert t.live_workers == 2
        finally:
            t.close()

    def test_injected_nan_grad_raises_with_rank_attribution(
        self, clean_metrics
    ):
        ds = tiny_dataset()
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="mp.worker.step", kind="nan_grad", step=1, rank=2
                ),
            )
        )
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=3, seed=0,
            fault_plan=plan, step_timeout=15.0,
        )
        try:
            with pytest.raises(DivergenceError, match="worker2"):
                t.fit(ds, batch_size=2, epochs=1)
        finally:
            t.close()

    def test_nan_grad_skip_policy_drops_step_and_continues(
        self, clean_metrics
    ):
        ds = tiny_dataset()
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="mp.worker.step", kind="nan_grad", step=1, rank=0
                ),
            )
        )
        t, w, losses = self._faulted_run(ds, plan, nan_policy="skip")
        assert clean_metrics.value("resilience.skipped_steps") == 1
        assert clean_metrics.value("resilience.nan_grads_detected") == 1
        assert len(losses) == len(ds) // 6
        assert all(np.isfinite(p).all() for p in w)

    def test_close_reaps_zombies_with_broken_pipes(self):
        t = ProcessParallelTrainer(tiny_topology(), (2, *SHAPE), nodes=2,
                                   seed=0)
        procs = list(t._procs)
        for proc in procs:
            os.kill(proc.pid, signal.SIGKILL)
        t.close()  # must not hang or raise
        assert all(not p.is_alive() for p in procs)
        assert t._procs == [] and t._conns == []


# ---------------------------------------------------------------------------
class TestMidCollectiveFaults:
    """Faults fired *inside* the overlapped all-reduce (site
    ``collective.hop``: a hop send, not a whole worker step).  The full
    position x bucket matrix lives in tests/test_collective.py; this is
    the fault-matrix anchor -- one kill and one hang mid-ring must
    complete the step degraded with bit-identical recovery."""

    def _run(self, ds, plan=None, **kw):
        kw.setdefault("step_timeout", kw.pop("timeout", 15.0))
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=3, seed=0,
            fault_plan=plan, bucket_bytes=1024, **kw,
        )
        try:
            t.fit(ds, batch_size=2, epochs=1)
            return t, weights_of(t.etg), list(t.metrics.losses)
        finally:
            t.close()

    @pytest.mark.parametrize("kind,rank,timeout",
                             [("crash", 1, 15.0), ("hang", 2, 2.0)])
    def test_hop_fault_recovers_bit_identical(self, clean_metrics, kind,
                                              rank, timeout):
        ds = tiny_dataset(n=18)
        _, ref_w, ref_losses = self._run(ds)
        get_metrics().clear()
        plan = FaultPlan(specs=(FaultSpec(
            site="collective.hop", kind=kind, step=1, rank=rank, bucket=0,
        ),))
        t, w, losses = self._run(ds, plan, timeout=timeout)
        assert clean_metrics.value("collective.aborts") == 1
        assert clean_metrics.value("resilience.degraded_steps") == 1
        assert [f.rank for f in t.failures] == [rank]
        assert losses == ref_losses
        assert all(np.array_equal(a, b) for a, b in zip(ref_w, w))


# ---------------------------------------------------------------------------
class TestTrainerWatchdog:
    def test_trainer_grads_site_raises(self, clean_metrics):
        plan = FaultPlan(
            specs=(FaultSpec(site="trainer.grads", kind="nan_grad",
                             step=1),)
        )
        tr = tiny_trainer(fault_plan=plan)
        ds = tiny_dataset()
        with pytest.raises(DivergenceError, match="node local"):
            tr.fit(ds, 4, epochs=1)
        assert tr.watchdog.incidents[0][0] == 1  # attributed to step 1

    def test_skip_policy_keeps_weights_of_dropped_step(
        self, clean_metrics
    ):
        plan = FaultPlan(
            specs=(FaultSpec(site="trainer.grads", kind="nan_grad",
                             step=0),)
        )
        tr = tiny_trainer(fault_plan=plan, nan_policy="skip")
        ds = tiny_dataset()
        before = weights_of(tr.etg)
        x, y = next(iter(ds.batches(4, 1)))
        tr.train_step(x, y)  # poisoned: must be dropped
        assert all(
            np.array_equal(a, b)
            for a, b in zip(before, weights_of(tr.etg))
        )
        tr.train_step(x, y)  # next step is clean and applies
        assert not all(
            np.array_equal(a, b)
            for a, b in zip(before, weights_of(tr.etg))
        )
        assert clean_metrics.value("resilience.skipped_steps") == 1

    def test_off_policy_never_checks(self, clean_metrics):
        tr = tiny_trainer(nan_policy="off")
        grads = [np.array([np.nan], dtype=np.float32)]
        assert tr.watchdog.check(grads) is True


# ---------------------------------------------------------------------------
class TestTrainingCheckpoint:
    def test_round_trip_restores_velocity_step_and_metrics(self):
        tr = tiny_trainer()
        ds = tiny_dataset()
        tr.fit(ds, 4, epochs=1)
        buf = io.BytesIO()
        tr.save(buf)
        buf.seek(0)
        fresh = tiny_trainer()
        ck = load_training_checkpoint(buf, fresh.etg, fresh.opt)
        assert ck.step == tr.iteration
        assert list(ck.losses) == tr.metrics.losses
        assert all(
            np.array_equal(a, b)
            for a, b in zip(weights_of(tr.etg), weights_of(fresh.etg))
        )
        assert all(
            np.array_equal(a, b)
            for a, b in zip(tr.opt._velocity, fresh.opt._velocity)
        )

    def test_kill_and_resume_is_exact_to_the_step(self, tmp_path):
        ds = tiny_dataset()
        a = tiny_trainer()
        a.fit(ds, 4, epochs=2)

        ck = str(tmp_path / "auto.npz")
        b = tiny_trainer(checkpoint_path=ck, checkpoint_every=2)
        for i, (x, y) in enumerate(
            ds.batches(4, 2, seed=b.shuffle_seed)
        ):
            b.train_step(x, y)
            if i == 3:
                break  # simulated kill between autosaves

        c = tiny_trainer()
        resumed_at = c.resume(ck)
        assert resumed_at == 4  # last autosave, not the kill point
        c.fit(ds, 4, epochs=2)
        assert c.metrics.losses == a.metrics.losses
        assert c.metrics.accuracies == a.metrics.accuracies
        assert all(
            np.array_equal(x, y)
            for x, y in zip(weights_of(a.etg), weights_of(c.etg))
        )

    def test_process_parallel_save_resume_round_trip(self, tmp_path):
        ds = tiny_dataset()
        ck = str(tmp_path / "pp.npz")
        a = ProcessParallelTrainer(tiny_topology(), (2, *SHAPE), nodes=2,
                                   seed=0)
        try:
            a.fit(ds, batch_size=2, epochs=2)
            final = weights_of(a.etg)
            losses = list(a.metrics.losses)
        finally:
            a.close()

        b = ProcessParallelTrainer(tiny_topology(), (2, *SHAPE), nodes=2,
                                   seed=0)
        try:
            batches = list(ds.batches(4, 2, seed=b.shuffle_seed))
            for x, y in batches[:3]:
                b.train_step(x, y)
            b.save(ck)
        finally:
            b.close()

        c = ProcessParallelTrainer(tiny_topology(), (2, *SHAPE), nodes=2,
                                   seed=0)
        try:
            assert c.resume(ck) == 3
            c.fit(ds, batch_size=2, epochs=2)
            assert c.metrics.losses == losses
            assert all(
                np.array_equal(x, y)
                for x, y in zip(final, weights_of(c.etg))
            )
        finally:
            c.close()

    def test_truncated_checkpoint_is_a_clear_error(self, tmp_path):
        tr = tiny_trainer()
        ck = str(tmp_path / "t.npz")
        tr.save(ck)
        blob = open(ck, "rb").read()
        with open(ck, "wb") as fh:
            fh.write(blob[: len(blob) // 3])
        fresh = tiny_trainer()
        with pytest.raises(ReproError):
            fresh.resume(ck)

    def test_corrupted_checkpoint_fails_before_mutating_weights(
        self, tmp_path
    ):
        tr = tiny_trainer()
        ck = str(tmp_path / "c.npz")
        tr.save(ck)
        corrupt_file(ck, n_bytes=512)
        fresh = tiny_trainer()
        before = weights_of(fresh.etg)
        with pytest.raises(ReproError):
            fresh.resume(ck)
        # digest/parse failure must leave the live weights untouched
        assert all(
            np.array_equal(a, b)
            for a, b in zip(before, weights_of(fresh.etg))
        )

    def test_atomic_save_leaves_no_tmp_and_overwrites_in_place(
        self, tmp_path
    ):
        tr = tiny_trainer()
        ck = tmp_path / "a.npz"
        tr.save(str(ck))
        tr.save(str(ck))  # second save replaces, never appends .npz
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz"]
        fresh = tiny_trainer()
        assert fresh.resume(str(ck)) == 0

    def test_wrong_kind_checkpoint_is_rejected(self, tmp_path):
        from repro.gxm.checkpoint import save_checkpoint

        tr = tiny_trainer()
        ck = str(tmp_path / "plain.npz")
        save_checkpoint(tr.etg, ck)  # weights-only, not a training ckpt
        with pytest.raises(ReproError):
            load_training_checkpoint(ck, tr.etg, tr.opt)

    @pytest.mark.parametrize(
        "loader", ["load_checkpoint", "read_checkpoint_meta",
                   "load_training_checkpoint"])
    def test_missing_checkpoint_is_a_typed_error(self, tmp_path, loader):
        tr = tiny_trainer()
        path = str(tmp_path / "absent.npz")
        load = {
            "load_checkpoint": lambda: load_checkpoint(tr.etg, path),
            "read_checkpoint_meta": lambda: read_checkpoint_meta(path),
            "load_training_checkpoint": lambda: load_training_checkpoint(
                path, tr.etg, tr.opt),
        }[loader]
        with pytest.raises(CheckpointNotFoundError) as info:
            load()
        # a ReproError that existing FileNotFoundError handlers still catch
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, FileNotFoundError)
        assert info.value.filename == path

    def test_save_training_checkpoint_to_file_object(self):
        tr = tiny_trainer()
        buf = io.BytesIO()
        save_training_checkpoint(buf, tr.etg, tr.opt, step=0)
        buf.seek(0)
        assert load_training_checkpoint(buf, tr.etg, tr.opt).step == 0


# ---------------------------------------------------------------------------
class TestServeResilience:
    """Serving survives worker crashes and compiled-tier failure;
    ``/healthz`` reports each state."""

    def _config(self, **kw):
        from repro.serve import ServeConfig

        kw.setdefault("buckets", (1, 2))
        kw.setdefault("batch_window_ms", 1.0)
        return ServeConfig(**kw)

    def _image(self, cfg, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(cfg.input_shape).astype(np.float32)

    def test_worker_crash_is_supervised_back_to_life(self,
                                                     clean_metrics):
        from repro.serve import InferenceServer

        plan = FaultPlan(
            specs=(
                FaultSpec(site="serve.worker.crash", kind="crash"),
            )
        )
        cfg = self._config()
        server = InferenceServer(cfg, fault_injector=FaultInjector(plan))
        try:
            server.start()
            x = self._image(cfg)
            first = server.predict(x)  # served; worker dies afterwards
            deadline = time.time() + 15
            while (time.time() < deadline
                   and server.health()["live_workers"] < 1):
                time.sleep(0.02)
            health = server.health()
            assert health["live_workers"] == 1
            assert health["worker_restarts"] == 1
            assert server.metrics.value("serve.worker_crashes") == 1
            assert np.array_equal(server.predict(x, timeout=15.0), first)
        finally:
            server.stop()

    def test_tier_failure_degrades_bucket_to_interpret(self,
                                                       clean_metrics):
        from repro.serve import InferenceServer

        cfg = self._config(engine="blocked", buckets=(1,))
        x = self._image(cfg)
        with InferenceServer(cfg) as healthy:
            ref = healthy.predict(x)

        plan = FaultPlan(
            specs=(
                FaultSpec(site="serve.replica.run", kind="tier_fail",
                          count=2),
            )
        )
        server = InferenceServer(cfg, fault_injector=FaultInjector(plan))
        try:
            server.start()
            # the interpret tier computes the identical stream, so even
            # the degraded answer matches the compiled one bitwise
            assert np.array_equal(server.predict(x, timeout=60.0), ref)
            health = server.health()
            assert health["status"] == "degraded"
            assert health["degraded_buckets"] == [1]
            assert server.metrics.value("serve.tier_degraded") == 1
            assert server.metrics.value(
                "serve.tier_degraded.compiled_to_interpret") == 1
            # interpret is the bottom: a failure there reaches the caller
            with pytest.raises(InjectedFault):
                server.predict(x, timeout=60.0)
            assert server.metrics.value("serve.tier_degraded") == 1
            assert np.array_equal(server.predict(x, timeout=60.0), ref)
        finally:
            server.stop()

    def test_healthz_endpoint_reports_degradation(self, clean_metrics):
        import json
        import urllib.error
        import urllib.request

        from repro.serve import InferenceServer, serve_http

        cfg = self._config(engine="blocked", buckets=(1,))
        plan = FaultPlan(
            specs=(FaultSpec(site="serve.replica.run", kind="tier_fail"),)
        )
        server = InferenceServer(cfg, fault_injector=FaultInjector(plan))
        server.start()
        httpd = serve_http(server, port=0)
        port = httpd.server_address[1]
        try:
            server.predict(self._image(cfg), timeout=60.0)
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ) as resp:
                assert resp.status == 200
                doc = json.loads(resp.read())
            assert doc["status"] == "degraded"
            assert doc["degraded_buckets"] == [1]
        finally:
            httpd.shutdown()
            server.stop()
        with pytest.raises(urllib.error.HTTPError) as exc:
            httpd2 = serve_http(server, port=0)
            try:
                urllib.request.urlopen(
                    "http://127.0.0.1:"
                    f"{httpd2.server_address[1]}/healthz",
                    timeout=10,
                )
            finally:
                httpd2.shutdown()
        assert exc.value.code == 503  # stopped server reports down
