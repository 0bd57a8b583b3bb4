"""repro.serve.fleet: multi-process replicas, router, shared memory.

The fleet's load-bearing guarantees, each tested here:

* **bitwise identity** -- whatever replica process serves a request,
  whatever crash/reroute happened on the way, the probability vector
  equals unbatched ``InferenceSession.predict`` for the same image.
* **zero-copy hot path** -- ``serve.router.bytes_copied`` stays 0 while
  the shm ring has slots; exhaustion falls back to pickling (counted).
* **crash containment** -- SIGKILL of a replica holding slots neither
  leaks a slot nor lets a stale write answer a different request.
* **fleet lifecycle** -- rolling drain/resume, canary-first rolling
  reload, aggregated health over HTTP.
"""

import json
import os
import signal
import threading
import time
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.gxm.checkpoint import load_checkpoint, save_checkpoint
from repro.gxm.inference import InferenceSession
from repro.obs.metrics import get_metrics, merge_snapshots
from repro.obs.tracer import get_tracer
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import (
    CanaryError,
    ClientConfig,
    InferenceFleet,
    InferenceServer,
    RequestShed,
    Router,
    ServeClient,
    ServeConfig,
    ServerClosed,
    ShmArrayStore,
    SlotCorruption,
    TensorShm,
    run_closed_loop,
    serve_http,
)
from repro.serve.shm import ShmLease
from repro.types import ReproError, ShapeError

SHAPE = (16, 8, 8)

pytestmark = pytest.mark.timeout(120)


def tiny_config(**kw):
    kw.setdefault("engine", "fast")
    kw.setdefault("buckets", (1, 2, 4))
    kw.setdefault("batch_window_ms", 1.0)
    kw.setdefault("workers", 1)
    return ServeConfig(**kw)


def images(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *SHAPE)).astype(np.float32)


def direct_reference(cfg, xs):
    etg = cfg.build_etg(1)
    with InferenceSession(etg) as sess:
        return [sess.predict(x[None])[0].copy() for x in xs]


@pytest.fixture
def clean_metrics():
    get_metrics().clear()
    yield get_metrics()
    get_metrics().clear()


def wait_until(pred, timeout_s=20.0, period_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(period_s)
    return pred()


# ---------------------------------------------------------------------------
class TestTensorShm:
    def test_acquire_release_ring(self):
        shm = TensorShm(2, SHAPE, (8,))
        try:
            a = shm.acquire()
            b = shm.acquire()
            assert {a.slot, b.slot} == {0, 1}
            assert shm.acquire() is None  # exhausted -> fallback signal
            assert shm.in_use == 2
            shm.release(a)
            c = shm.acquire()
            assert c.slot == a.slot
            assert c.generation == a.generation + 1  # bumped on release
            shm.release(b)
            shm.release(c)
            assert shm.in_use == 0
        finally:
            shm.close()

    def test_payload_round_trip(self):
        shm = TensorShm(1, SHAPE, (8,))
        try:
            lease = shm.acquire()
            x = images(1, seed=3)[0]
            shm.request_view(lease.slot)[:] = x
            assert (shm.request_view(lease.slot) == x).all()
            probs = np.linspace(0, 1, 8, dtype=np.float32)
            shm.response_view(lease.slot)[:] = probs
            assert (shm.response_view(lease.slot) == probs).all()
            shm.check(lease, lease.generation)  # all three gens agree
            shm.release(lease)
        finally:
            shm.close()

    def test_check_rejects_header_scribble(self):
        shm = TensorShm(1, SHAPE, (8,))
        try:
            lease = shm.acquire()
            shm.write_header(lease.slot, lease.generation + 99)
            with pytest.raises(SlotCorruption, match="header"):
                shm.check(lease, lease.generation)
        finally:
            shm.close()

    def test_check_rejects_stale_message_generation(self):
        shm = TensorShm(1, SHAPE, (8,))
        try:
            lease = shm.acquire()
            shm.reclaim(lease)  # crash path won
            fresh = shm.acquire()
            assert fresh.generation == lease.generation + 1
            # a late reply carrying the dead lease's generation must not
            # be trusted against the fresh lease
            with pytest.raises(SlotCorruption):
                shm.check(fresh, lease.generation)
        finally:
            shm.close()

    def test_release_after_reclaim_is_idempotent(self):
        shm = TensorShm(1, SHAPE, (8,))
        try:
            lease = shm.acquire()
            shm.reclaim(lease)
            shm.release(lease)  # late release of a reclaimed lease
            assert shm.in_use == 0  # not double-freed
            assert shm.acquire() is not None
            assert shm.acquire() is None
        finally:
            shm.close()

    def test_array_store_round_trip(self):
        arrays = {
            "a/k": np.arange(7, dtype=np.int64),
            "b/w": np.linspace(0, 1, 5, dtype=np.float32),
        }
        store = ShmArrayStore.from_arrays(arrays)
        try:
            assert store.names() == ["a/k", "b/w"]
            for name, arr in arrays.items():
                view = store.get(name)
                assert (view == arr).all()
                assert view.dtype == arr.dtype
                assert not view.flags.writeable
        finally:
            store.close()


# ---------------------------------------------------------------------------
class _StubHandle:
    def __init__(self, hid, outstanding=0, wait=0.0, degraded=(),
                 available=True):
        self.id = hid
        self.outstanding_count = outstanding
        self.est_wait_ms = wait
        self.degraded_buckets = degraded
        self.available = available


class TestRouter:
    def test_prefers_lower_load(self, clean_metrics):
        handles = [_StubHandle(0, outstanding=10), _StubHandle(1)]
        router = Router(handles, clean_metrics)
        assert all(router.pick().id == 1 for _ in range(8))
        assert clean_metrics.value("serve.router.dispatched") == 8
        assert clean_metrics.value("serve.router.dispatched.r1") == 8

    def test_degraded_bucket_penalty(self, clean_metrics):
        handles = [
            _StubHandle(0, degraded=(2, 4)),
            _StubHandle(1, outstanding=3),
        ]
        router = Router(handles, clean_metrics)
        # 2 degraded buckets (penalty 4) outweigh 3 outstanding
        assert router.pick().id == 1

    def test_exclude_is_soft(self, clean_metrics):
        handles = [_StubHandle(0), _StubHandle(1, available=False)]
        router = Router(handles, clean_metrics)
        assert router.pick(exclude=0).id == 0  # lone survivor serves
        handles[1].available = True
        assert router.pick(exclude=0).id == 1

    def test_sheds_when_empty(self, clean_metrics):
        router = Router([_StubHandle(0, available=False)], clean_metrics)
        with pytest.raises(RequestShed):
            router.pick()
        assert clean_metrics.value("serve.router.no_replica") == 1

    def test_copy_counter(self, clean_metrics):
        router = Router([], clean_metrics)
        router.note_copy(4096)
        assert router.stats()["serve.router.bytes_copied"] == 4096
        assert router.stats()["serve.router.shm_fallback"] == 1


# ---------------------------------------------------------------------------
class TestFleetServing:
    def test_bitwise_identity_and_zero_copy(self):
        cfg = tiny_config()
        xs = images(24, seed=1)
        ref = direct_reference(cfg, xs)
        with InferenceFleet(cfg, replicas=2) as fleet:
            got = [fleet.predict(x) for x in xs]
            stats = fleet._router.stats()
            shm = fleet._shm.stats()
        for r, g in zip(ref, got):
            assert (r == g).all()
        # hot path: never pickled an activation, never leaked a slot
        assert stats.get("serve.router.bytes_copied", 0) == 0
        assert stats["serve.router.dispatched"] == 24
        assert shm["in_use"] == 0

    def test_both_replicas_serve(self):
        cfg = tiny_config()
        xs = images(32, seed=2)
        with InferenceFleet(cfg, replicas=2) as fleet:
            reqs = [fleet.submit(x) for x in xs]
            for r in reqs:
                r.result(30.0)
            stats = fleet._router.stats()
        assert stats["serve.router.dispatched.r0"] > 0
        assert stats["serve.router.dispatched.r1"] > 0

    def test_ring_exhaustion_falls_back_to_pickle(self):
        cfg = tiny_config()
        xs = images(12, seed=3)
        ref = direct_reference(cfg, xs)
        with InferenceFleet(cfg, replicas=2, shm_slots=1) as fleet:
            reqs = [fleet.submit(x) for x in xs]
            got = [r.result(30.0) for r in reqs]
            stats = fleet._router.stats()
        for r, g in zip(ref, got):
            assert (r == g).all()  # fallback answers are still bitwise
        assert stats.get("serve.router.shm_fallback", 0) > 0
        assert stats.get("serve.router.bytes_copied", 0) > 0

    def test_shape_and_state_validation(self):
        cfg = tiny_config()
        fleet = InferenceFleet(cfg, replicas=1)
        with pytest.raises(ServerClosed):
            fleet.submit(images(1)[0])
        with fleet:
            with pytest.raises(ShapeError):
                fleet.submit(np.zeros((3, 8, 8), dtype=np.float32))
        with pytest.raises(ServerClosed):
            fleet.submit(images(1)[0])

    def test_rejects_bad_replica_count(self):
        with pytest.raises(ReproError, match="replica"):
            InferenceFleet(tiny_config(), replicas=0)

    def test_deadline_propagates_to_replica(self):
        from repro.serve import DeadlineExceeded

        cfg = tiny_config()
        with InferenceFleet(cfg, replicas=1) as fleet:
            req = fleet.submit(
                images(1)[0], deadline=time.perf_counter() - 0.01
            )
            with pytest.raises(DeadlineExceeded):
                req.result(10.0)

    def test_fleet_metrics_merge(self):
        cfg = tiny_config()
        with InferenceFleet(cfg, replicas=2) as fleet:
            for x in images(8, seed=4):
                fleet.predict(x)
            stats = fleet.stats()
        merged = stats["merged"]
        # requests were served across two registries; the merged view
        # must account for all of them
        assert merged["counters"].get("serve.responses", 0) == 8
        assert len(stats["per_replica"]) == 2
        assert stats["replicas"] == 2

    def test_replica_records_reach_the_parent_ring(self):
        """With spans on, the replicas' ``serve.batch`` and ``etg.task``
        records drain into the parent's ring through ``stats()``,
        tagged with the replica pids."""
        tracer = get_tracer().enable("spans")
        tracer.clear()
        with InferenceFleet(tiny_config(), replicas=2) as fleet:
            reqs = [fleet.submit(x) for x in images(6, seed=5)]
            for r in reqs:
                r.result(30.0)
            fleet.stats()
            replica_pids = {h.pid for h in fleet._handles}
        for name in ("serve.batch", "etg.task"):
            pids = {r.pid for r in tracer.events(name)}
            assert pids and pids <= replica_pids, name
        assert sum(
            len(r.args["reqs"]) for r in tracer.events("serve.batch")
        ) == 6

    def test_merge_snapshots_sums_counters(self):
        a = {"counters": {"c": 2}, "gauges": {"g": 1.0},
             "dists": {"d": {"count": 1, "samples": [1.0]}}}
        b = {"counters": {"c": 3}, "gauges": {"g": 2.0},
             "dists": {"d": {"count": 2, "samples": [3.0, 5.0]}}}
        merged = merge_snapshots([a, b])
        assert merged["counters"]["c"] == 5
        assert merged["gauges"]["g"] == 2.0
        assert merged["distributions"]["d"]["count"] == 3


# ---------------------------------------------------------------------------
class TestFleetFailover:
    def test_sigkill_midflight_reroutes_and_respawns(self):
        cfg = tiny_config()
        xs = images(20, seed=5)
        ref = direct_reference(cfg, xs)
        with InferenceFleet(cfg, replicas=2, health_period_ms=10.0) as fleet:
            reqs = [fleet.submit(x) for x in xs]
            os.kill(fleet._handles[0].pid, signal.SIGKILL)
            got = [r.result(30.0) for r in reqs]
            for r, g in zip(ref, got):
                assert (r == g).all()
            assert wait_until(
                lambda: fleet.health()["live_replicas"] == 2
            )
            h = fleet.health()
            assert h["replica_crashes"] >= 1
            assert h["respawns"] >= 1
            # post-respawn answers stay bitwise, slots fully recovered
            got2 = [fleet.predict(x) for x in xs]
            for r, g in zip(ref, got2):
                assert (r == g).all()
            assert fleet._shm.in_use == 0

    def test_crash_fault_site(self):
        # deterministic version of the SIGKILL test: replica 0 os._exits
        # on its first dispatched request
        plan = FaultPlan(specs=(
            FaultSpec(site="fleet.replica.predict", kind="crash", rank=0),
        ))
        cfg = tiny_config()
        xs = images(10, seed=6)
        ref = direct_reference(cfg, xs)
        with InferenceFleet(
            cfg, replicas=2, fault_plan=plan, health_period_ms=10.0
        ) as fleet:
            reqs = [fleet.submit(x) for x in xs]
            got = [r.result(30.0) for r in reqs]
            for r, g in zip(ref, got):
                assert (r == g).all()
            assert fleet.metrics.value("serve.fleet.replica_crashes") >= 1
            assert fleet._router.stats().get("serve.router.rerouted", 0) >= 1

    def test_hang_detection_kills_and_respawns(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="fleet.replica.predict", kind="hang", rank=0,
                      delay_s=60.0),
        ))
        cfg = tiny_config()
        xs = images(8, seed=7)
        ref = direct_reference(cfg, xs)
        with InferenceFleet(
            cfg, replicas=2, fault_plan=plan,
            health_period_ms=10.0, hang_polls=5,
        ) as fleet:
            reqs = [fleet.submit(x) for x in xs]
            # the hung replica answers nothing; the fleet must SIGKILL
            # it, reroute its outstanding work and respawn it
            got = [r.result(60.0) for r in reqs]
            for r, g in zip(ref, got):
                assert (r == g).all()
            assert wait_until(
                lambda: fleet.metrics.value("serve.fleet.hung_killed") >= 1
            )
            assert wait_until(
                lambda: fleet.health()["live_replicas"] == 2, timeout_s=30.0
            )

    def test_shm_corruption_fails_exactly_one_request(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="fleet.replica.reply", kind="corrupt_message",
                      rank=0),
        ))
        cfg = tiny_config()
        xs = images(16, seed=8)
        ref = direct_reference(cfg, xs)
        with InferenceFleet(cfg, replicas=2, fault_plan=plan) as fleet:
            reqs = [fleet.submit(x) for x in xs]
            failures, good = [], []
            for i, r in enumerate(reqs):
                try:
                    good.append((i, r.result(30.0)))
                except SlotCorruption:
                    failures.append(i)
            # exactly the slot owner failed; every neighbour is bitwise
            assert len(failures) == 1
            for i, g in good:
                assert (ref[i] == g).all()
            assert fleet.metrics.value("serve.fleet.shm_corruption") == 1
            # the corrupted slot was reclaimed, not leaked
            assert fleet._shm.in_use == 0
            # and the ring still serves correctly afterwards
            assert (fleet.predict(xs[0]) == ref[0]).all()


# ---------------------------------------------------------------------------
class TestFleetLifecycle:
    def test_drain_resume_rolls_replicas(self):
        cfg = tiny_config()
        xs = images(6, seed=9)
        with InferenceFleet(cfg, replicas=2) as fleet:
            for x in xs:
                fleet.predict(x)
            report = fleet.drain(timeout_s=10.0)
            assert report["drained_replicas"] == [0, 1]
            assert fleet.health()["status"] == "degraded"
            with pytest.raises(ServerClosed, match="draining"):
                fleet.submit(xs[0])
            report = fleet.resume()
            assert report["resumed_replicas"] == [0, 1]
            assert fleet.health()["status"] == "ok"
            fleet.predict(xs[0])

    def test_ops_return_with_fresh_replica_health(self, tmp_path):
        # no health poll after the first: what each replica's cached
        # health says when an op returns must come from the op itself
        cfg = tiny_config()
        ck = str(tmp_path / "b.npz")
        save_checkpoint(replace(cfg, seed=99).build_etg(1), ck)

        def per_replica(fleet, key):
            per = fleet.health()["per_replica"]
            return [per[i][key] for i in (0, 1)]

        with InferenceFleet(cfg, replicas=2,
                            health_period_ms=3.6e6) as fleet:
            fleet.drain(timeout_s=10.0)
            assert per_replica(fleet, "status") == ["degraded"] * 2
            fleet.resume()
            assert per_replica(fleet, "status") == ["ok"] * 2
            assert fleet.health()["status"] == "ok"
            fleet.reload_checkpoint(ck)
            assert per_replica(fleet, "checkpoint") == [ck] * 2

    def test_rolling_reload_canary_first(self, tmp_path):
        cfg = tiny_config()
        ck = str(tmp_path / "b.npz")
        etg = replace(cfg, seed=99).build_etg(1)
        save_checkpoint(etg, ck)
        x = images(1, seed=10)[0]
        ref_etg = cfg.build_etg(1)
        load_checkpoint(ref_etg, ck)
        with InferenceSession(ref_etg) as sess:
            ref_new = sess.predict(x[None])[0].copy()
        with InferenceFleet(cfg, replicas=2) as fleet:
            ref_old = fleet.predict(x)
            report = fleet.reload_checkpoint(ck)
            assert report["canary_replica"] == 0
            assert report["reloaded_replicas"] == [0, 1]
            got = fleet.predict(x)
            assert (got == ref_new).all()
            assert not (got == ref_old).all()
            assert fleet.metrics.value("serve.fleet.reloads") == 1

    def test_reload_canary_failure_rolls_back(self, tmp_path):
        from repro.gxm.nodes import _LayerNode
        from repro.layers.fc import Linear

        cfg = tiny_config()
        etg = cfg.build_etg(1)
        fc = next(
            n for n in etg.nodes.values()
            if isinstance(n, _LayerNode) and isinstance(n.layer, Linear)
        )
        fc.layer.weight[...] = np.nan
        ck = str(tmp_path / "nan.npz")
        save_checkpoint(etg, ck)
        x = images(1, seed=11)[0]
        with InferenceFleet(cfg, replicas=2) as fleet:
            ref = fleet.predict(x)
            with pytest.raises(CanaryError):
                fleet.reload_checkpoint(ck)
            # the canary rolled back inside its replica; nobody else
            # ever saw the poisoned weights
            assert (fleet.predict(x) == ref).all()
            assert fleet.metrics.value("serve.fleet.reload_rollbacks") == 1
            assert fleet.metrics.value("serve.fleet.reloads") == 0


# ---------------------------------------------------------------------------
class _StubFleet:
    """Minimal routes_replicas target: the primary never resolves, the
    backup resolves instantly -- so a hedge must (a) be sent and (b)
    carry exclude_replica=primary's replica."""

    routes_replicas = True

    def __init__(self):
        from repro.serve.request import InferenceRequest

        self._req_cls = InferenceRequest
        self.excludes = []
        self.submissions = 0

    def submit(self, x, deadline=None, exclude_replica=None):
        req = self._req_cls(x, deadline=deadline)
        self.submissions += 1
        self.excludes.append(exclude_replica)
        if exclude_replica is None:
            req.replica_id = 0  # slow primary parked on replica 0
        else:
            req.replica_id = 1
            req._resolve(np.ones(8, dtype=np.float32))
        return req


class TestHedgingAcrossReplicas:
    def test_hedge_excludes_primary_replica(self):
        fleet = _StubFleet()
        client = ServeClient(fleet, config=ClientConfig(
            timeout_s=5.0, max_retries=0, hedge=True, hedge_min_samples=1,
        ))
        # feed the p95 estimator fast samples so hedging arms
        client._latencies_s.extend([0.001] * 4)
        probs = client.predict(images(1)[0])
        assert (probs == 1.0).all()
        assert fleet.submissions == 2
        assert fleet.excludes == [None, 0]  # backup avoided replica 0
        stats = client.stats()
        assert stats["hedges"] == 1 and stats["hedge_wins"] == 1


# ---------------------------------------------------------------------------
class TestWarmFleetBoot:
    def test_bundle_verified_once_and_shared(self, tmp_path):
        cfg = tiny_config(engine="blocked")
        artifact = str(tmp_path / "streams.npz")
        with InferenceServer(cfg) as server:
            for x in images(3, seed=12):
                server.predict(x)
            server.save_streams_artifact(artifact)
        xs = images(10, seed=13)
        ref = direct_reference(cfg, xs)
        fleet = InferenceFleet(cfg, replicas=2)
        boot = fleet.start(streams_artifact=artifact)
        try:
            assert boot["bundle_verified_once"]
            assert boot["bundle_shared_bytes"] > 0
            # every replica boots warm (no dryrun) and reports its time
            for rid in (0, 1):
                per = boot["per_replica"][rid]
                assert per["warm_buckets"] == [1, 2, 4]
                assert per["cold_buckets"] == []
                assert boot["warm_ms"][rid] > 0
                assert fleet.metrics.gauges()[
                    f"serve.boot.warm_ms.r{rid}"
                ] > 0
            got = [fleet.predict(x) for x in xs]
            for r, g in zip(ref, got):
                assert (r == g).all()
        finally:
            fleet.stop()

    def test_stale_artifact_cold_boots_fleet(self, tmp_path):
        cfg = tiny_config(engine="blocked")
        artifact = str(tmp_path / "streams.npz")
        with InferenceServer(cfg) as server:
            server.predict(images(1)[0])
            server.save_streams_artifact(artifact)
        other = tiny_config(engine="blocked", width=64)
        fleet = InferenceFleet(other, replicas=1)
        boot = fleet.start(streams_artifact=artifact)
        try:
            assert "artifact_error" in boot
            assert not boot["bundle_verified_once"]
            assert fleet.metrics.value("serve.artifact_rejected") == 1
            # cold boot still serves correctly
            x = images(1, seed=14)[0]
            assert (
                fleet.predict(x)
                == direct_reference(other, [x])[0]
            ).all()
        finally:
            fleet.stop()


# ---------------------------------------------------------------------------
class TestFleetFrontEnds:
    def test_serve_client_closed_loop(self):
        cfg = tiny_config()
        xs = images(12, seed=15)
        ref = direct_reference(cfg, xs)
        with InferenceFleet(cfg, replicas=2) as fleet:
            client = ServeClient(fleet, config=ClientConfig(timeout_s=30.0))
            got = [client.predict(x) for x in xs]
            report = run_closed_loop(fleet, clients=4, requests=16, seed=16)
        for r, g in zip(ref, got):
            assert (r == g).all()
        assert report.replicas == 2
        assert report.router_stats["serve.router.dispatched"] > 0
        assert report.completed == 16

    def test_http_front_end_drives_fleet(self):
        cfg = tiny_config()
        x = images(1, seed=17)[0]
        ref = direct_reference(cfg, [x])[0]
        with InferenceFleet(cfg, replicas=2) as fleet:
            httpd = serve_http(fleet, port=0)
            host, port = httpd.server_address[:2]
            base = f"http://{host}:{port}"
            try:
                body = json.dumps({"input": x.tolist()}).encode()
                req = urllib.request.Request(
                    f"{base}/predict", data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(req) as resp:
                    probs = np.asarray(
                        json.loads(resp.read())["probs"], dtype=np.float32
                    )
                assert (probs == ref).all()
                with urllib.request.urlopen(f"{base}/healthz") as resp:
                    payload = json.loads(resp.read())
                assert payload["status"] == "ok"
                assert payload["live_replicas"] == 2
                assert payload["router"]["serve.router.dispatched"] >= 1
            finally:
                httpd.shutdown()
