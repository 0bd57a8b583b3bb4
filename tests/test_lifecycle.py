"""Request-lifecycle hardening: deadlines, backpressure, breaker,
client policy, drain, hot reload with canary + rollback.

The acceptance-critical invariants:

* a batch whose every row missed its deadline is **never replayed**
  (``serve.deadline_expired`` moves, ``serve.batches`` does not);
* a reload whose canary fails **rolls back** with zero failed client
  requests -- the old weights never leave service;
* a successful reload changes served outputs (bitwise equal to a fresh
  server booted on the new weights) without dropping or hanging any
  in-flight request.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.gxm.checkpoint import load_checkpoint, save_checkpoint
from repro.gxm.inference import InferenceSession
from repro.gxm.nodes import _LayerNode
from repro.obs.metrics import Ewma, MetricsRegistry, get_metrics
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.serve import (
    AdmissionQueue,
    CanaryError,
    CircuitBreaker,
    ClientConfig,
    DeadlineExceeded,
    InferenceRequest,
    InferenceServer,
    RequestShed,
    ServeClient,
    ServeConfig,
    ServerClosed,
    run_closed_loop,
    serve_http,
)
from repro.serve.http import _make_handler
from repro.types import ReproError, ShapeError

SHAPE = (16, 8, 8)


def tiny_config(**kw):
    kw.setdefault("buckets", (1, 2, 4))
    kw.setdefault("batch_window_ms", 1.0)
    return ServeConfig(**kw)


def images(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *SHAPE)).astype(np.float32)


def make_checkpoint(tmp_path, cfg, seed, name):
    """Weights for ``cfg``'s topology initialised from ``seed``."""
    etg = replace(cfg, seed=seed).build_etg(1)
    path = str(tmp_path / name)
    save_checkpoint(etg, path)
    return path


def make_nan_checkpoint(tmp_path, cfg, name):
    """A structurally valid checkpoint whose weights poison the canary.

    The classifier head is the right place to poison: a NaN conv weight
    gets laundered back to finite by ReLU (``where(x > 0, x, 0)`` picks
    0 for NaN), but NaN logits make the softmax output NaN."""
    from repro.layers.fc import Linear

    etg = cfg.build_etg(1)
    fc = next(
        n for n in etg.nodes.values()
        if isinstance(n, _LayerNode) and isinstance(n.layer, Linear)
    )
    fc.layer.weight[...] = np.nan
    path = str(tmp_path / name)
    save_checkpoint(etg, path)
    return path


def reference_probs(cfg, checkpoint, x):
    """Unbatched ground truth for one image under ``checkpoint``."""
    etg = cfg.build_etg(1)
    if checkpoint:
        load_checkpoint(etg, checkpoint)
    with InferenceSession(etg) as sess:
        return sess.predict(x[None])[0].copy()


def slow_plan(delay_s, count=64):
    return FaultPlan((FaultSpec(site="serve.worker.slow", kind="slow",
                                delay_s=delay_s, count=count),))


# ---------------------------------------------------------------------------
class TestEwma:
    def test_empty_then_converges(self):
        e = Ewma(alpha=0.5)
        assert e.value is None
        e.update(1.0)
        assert e.value == 1.0
        for _ in range(64):
            e.update(3.0)
        assert abs(e.value - 3.0) < 1e-6

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            Ewma(alpha=alpha)


class TestFaultVocabulary:
    def test_new_kinds_accepted(self):
        FaultSpec(site="serve.worker.slow", kind="slow", delay_s=0.01)
        FaultSpec(site="serve.reload.canary_fail", kind="canary_fail")

    def test_negative_delay_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec(site="s", kind="slow", delay_s=-0.1)


# ---------------------------------------------------------------------------
class TestServeConfigValidation:
    """Satellite: bad lifecycle knobs fail loudly as ValueError."""

    @pytest.mark.parametrize(
        "kw",
        [
            {"queue_capacity": 0},
            {"queue_capacity": -3},
            {"batch_window_ms": -1.0},
            {"buckets": ()},
            {"max_queue_wait_ms": 0.0},
            {"max_queue_wait_ms": -5.0},
        ],
    )
    def test_rejected_as_valueerror(self, kw):
        with pytest.raises(ValueError):
            ServeConfig(**kw)
        with pytest.raises(ReproError):  # old vocabulary still works
            ServeConfig(**kw)

    def test_message_names_the_field(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            ServeConfig(queue_capacity=0)
        with pytest.raises(ValueError, match="batch_window_ms"):
            ServeConfig(batch_window_ms=-2.0)
        with pytest.raises(ValueError, match="buckets"):
            ServeConfig(buckets=())


# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_result_converts_deadline_to_deadline_exceeded(self):
        req = InferenceRequest(
            images(1)[0], deadline=time.perf_counter() + 0.02
        )
        with pytest.raises(DeadlineExceeded):
            req.result(timeout=10.0)
        assert req.cancelled

    def test_queue_drops_expired_before_batching(self):
        reg = MetricsRegistry()
        q = AdmissionQueue(capacity=8, metrics=reg)
        dead = InferenceRequest(
            images(1)[0], deadline=time.perf_counter() - 0.01
        )
        live = InferenceRequest(images(1)[0])
        q.put(dead)
        q.put(live)
        batch = q.take(4, 0.0)
        assert batch == [live]
        assert reg.value("serve.deadline_expired") == 1
        with pytest.raises(DeadlineExceeded):
            dead.result(0.0)

    def test_expired_batch_is_never_replayed(self):
        """The acceptance criterion: under slow-worker injection every
        deadlined request expires and the engine runs zero batches."""
        injector = FaultInjector(slow_plan(0.08, count=16))
        server = InferenceServer(
            tiny_config(), fault_injector=injector
        )
        server.start()
        try:
            reqs = [
                server.submit(
                    x, deadline=time.perf_counter() + 0.02
                )
                for x in images(3, seed=5)
            ]
            for req in reqs:
                with pytest.raises(DeadlineExceeded):
                    req.result(timeout=5.0)
            deadline = time.perf_counter() + 5.0
            while (
                server.metrics.value("serve.deadline_expired") < 3
                and time.perf_counter() < deadline
            ):
                time.sleep(0.01)
            assert server.metrics.value("serve.deadline_expired") == 3
            assert server.metrics.value("serve.batches") == 0
            # and the pipeline recovers: an undeadlined request is served
            out = server.predict(images(1, seed=6)[0], timeout=10.0)
            assert out.shape == (server.config.num_classes,)
            assert server.metrics.value("serve.batches") >= 1
        finally:
            server.stop()

    def test_deadline_generous_enough_is_honoured(self):
        with InferenceServer(tiny_config()) as server:
            x = images(1)[0]
            probs = server.predict(
                x, deadline=time.perf_counter() + 30.0
            )
            assert probs.shape == (server.config.num_classes,)


# ---------------------------------------------------------------------------
class TestAdaptiveBackpressure:
    def test_sheds_on_estimated_wait_not_depth(self):
        reg = MetricsRegistry()
        q = AdmissionQueue(
            capacity=1000, metrics=reg, max_wait_s=0.05
        )
        # one observed batch at 1s/request: the EWMA now predicts any
        # queued request waits ~1s -- way over the 50ms budget
        q.record_service(2.0, 2)
        q.put(InferenceRequest(images(1)[0]))  # depth 0 -> est 0, admits
        with pytest.raises(RequestShed, match="estimated queue wait"):
            q.put(InferenceRequest(images(1)[0]))
        assert reg.value("serve.shed_backpressure") == 1
        assert reg.value("serve.shed") == 1
        assert q.depth == 1  # nowhere near the capacity of 1000

    def test_no_shedding_before_evidence(self):
        q = AdmissionQueue(capacity=10, max_wait_s=0.0001,
                           metrics=MetricsRegistry())
        for x in images(5):
            q.put(InferenceRequest(x))  # optimistic start: no EWMA yet
        assert q.depth == 5

    def test_server_wires_the_budget(self):
        server = InferenceServer(tiny_config(max_queue_wait_ms=20.0))
        assert server.queue.max_wait_s == pytest.approx(0.02)
        health = server.health()
        assert "estimated_wait_ms" in health


# ---------------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def make(self, **kw):
        clock = _Clock()
        kw.setdefault("window", 8)
        kw.setdefault("error_threshold", 0.5)
        kw.setdefault("min_volume", 4)
        kw.setdefault("reset_s", 1.0)
        kw.setdefault("probes", 2)
        kw.setdefault("metrics", MetricsRegistry())
        return CircuitBreaker(clock=clock, **kw), clock

    def test_trips_on_error_rate_then_fast_fails(self):
        b, _ = self.make()
        for _ in range(3):
            b.record_failure()
            assert b.state == "closed"  # below min_volume
        b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        assert b._metrics.value("serve.breaker_open") == 1
        assert b._metrics.value("serve.breaker_fast_fail") == 1

    def test_cold_breaker_needs_min_volume(self):
        b, _ = self.make()
        b.record_failure()  # 1/1 = 100% error rate, but volume 1
        assert b.state == "closed" and b.allow()

    def test_half_open_probes_then_close(self):
        b, clock = self.make()
        for _ in range(4):
            b.record_failure()
        assert b.state == "open"
        clock.t += 1.0
        assert b.state == "half_open"
        assert b.allow() and b.allow()  # two probe slots
        assert not b.allow()  # third concurrent probe rejected
        b.record_success()
        assert b.state == "half_open"  # one success is not enough
        b.record_success()
        assert b.state == "closed"
        assert b.allow()

    def test_release_frees_a_half_open_probe_without_an_outcome(self):
        b, clock = self.make()
        for _ in range(4):
            b.record_failure()
        clock.t += 1.0
        assert b.allow() and b.allow() and not b.allow()
        b.release()
        b.release()
        assert b.state == "half_open"
        assert b.allow() and b.allow()

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        b, clock = self.make()
        for _ in range(4):
            b.record_failure()
        clock.t += 1.0
        assert b.state == "half_open" and b.allow()
        b.record_failure()
        assert b.state == "open"
        clock.t += 0.5
        assert b.state == "open"  # cool-down restarted at the re-trip
        clock.t += 0.6
        assert b.state == "half_open"

    def test_snapshot(self):
        b, _ = self.make()
        b.record_failure()
        b.record_success()
        snap = b.snapshot()
        assert snap["state"] == "closed"
        assert snap["window"] == 2
        assert snap["error_rate"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
class _StubServer:
    """Scriptable stand-in for an InferenceServer: each entry of
    ``script`` is either an exception class to raise at submit, or
    ``"ok"`` / ``"pending"`` for a resolved / never-resolving request."""

    def __init__(self, script, num_classes=8):
        self.script = list(script)
        self.calls = 0
        self.num_classes = num_classes

    def submit(self, x, deadline=None):
        action = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        if isinstance(action, type) and issubclass(action, BaseException):
            raise action("scripted")
        req = InferenceRequest(np.asarray(x), deadline=deadline)
        if action == "ok":
            probs = np.full(self.num_classes, 1.0 / self.num_classes,
                            dtype=np.float32)
            req._resolve(probs)
        return req  # "pending": never resolves


class TestServeClient:
    CFG = ClientConfig(timeout_s=0.2, max_retries=2,
                       backoff_base_s=0.001, backoff_max_s=0.002)

    def test_retries_shed_then_succeeds(self):
        stub = _StubServer([RequestShed, RequestShed, "ok"])
        client = ServeClient(stub, config=self.CFG)
        probs = client.predict(images(1)[0])
        assert probs.shape == (8,)
        stats = client.stats()
        assert stats["retries"] == 2
        assert stats["completed"] == 1
        assert stub.calls == 3

    def test_exhausted_retries_raise_shed(self):
        stub = _StubServer([RequestShed])
        client = ServeClient(stub, config=self.CFG)
        with pytest.raises(RequestShed):
            client.predict(images(1)[0])
        stats = client.stats()
        assert stats["retries"] == 2  # max_retries, then gave up
        assert stats["shed_failures"] == 1
        assert stub.calls == 3

    def test_never_retries_bad_request(self):
        stub = _StubServer([ShapeError])
        client = ServeClient(stub, config=self.CFG)
        with pytest.raises(ShapeError):
            client.predict(images(1)[0])
        assert stub.calls == 1
        assert client.stats()["retries"] == 0

    def test_never_retries_timeout(self):
        stub = _StubServer(["pending"])
        client = ServeClient(stub, config=self.CFG)
        with pytest.raises(TimeoutError):
            client.predict(images(1)[0])
        assert stub.calls == 1
        assert client.stats()["timeouts"] == 1

    def test_never_retries_deadline(self):
        stub = _StubServer(["pending"])
        client = ServeClient(stub, config=self.CFG)
        with pytest.raises(DeadlineExceeded):
            client.predict(images(1)[0], deadline_ms=20.0)
        assert stub.calls == 1
        assert client.stats()["deadline_exceeded"] == 1

    def test_no_retry_past_the_deadline(self):
        cfg = ClientConfig(timeout_s=1.0, max_retries=5,
                           backoff_base_s=0.2, backoff_max_s=0.2,
                           jitter=0.0)
        stub = _StubServer([RequestShed])
        client = ServeClient(stub, config=cfg)
        t0 = time.perf_counter()
        with pytest.raises(RequestShed):
            client.predict(images(1)[0], deadline_ms=50.0)
        # backoff (200ms) exceeds the deadline budget (50ms): the client
        # must give up instead of sleeping into a worthless retry
        assert time.perf_counter() - t0 < 0.15
        assert stub.calls == 1

    def test_breaker_fast_fails_client_side(self):
        breaker = CircuitBreaker(
            window=4, min_volume=2, error_threshold=0.5,
            metrics=MetricsRegistry(),
        )
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        stub = _StubServer(["ok"])
        client = ServeClient(stub, config=self.CFG, breaker=breaker)
        with pytest.raises(RequestShed, match="breaker"):
            client.predict(images(1)[0])
        assert stub.calls == 0  # never even reached the server
        assert client.stats()["breaker_fast_fails"] == 1

    def test_hedge_places_backup_and_takes_winner(self):
        cfg = ClientConfig(timeout_s=0.5, max_retries=0, hedge=True,
                           hedge_min_samples=1)
        # call 1 primes the latency window; call 2's primary hangs and
        # its hedged backup answers
        stub = _StubServer(["ok", "pending", "ok"])
        client = ServeClient(stub, config=cfg)
        client.predict(images(1)[0])
        probs = client.predict(images(1)[0])
        assert probs.shape == (8,)
        stats = client.stats()
        assert stats["hedges"] == 1
        assert stats["hedge_wins"] == 1
        assert stats["hedge_cutoff_ms"] is not None
        assert stub.calls == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClientConfig(timeout_s=0)
        with pytest.raises(ValueError):
            ClientConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ClientConfig(jitter=1.5)

    def test_end_to_end_against_real_server(self):
        with InferenceServer(tiny_config()) as server:
            client = ServeClient(server, config=ClientConfig(timeout_s=10))
            x = images(1)[0]
            a = client.predict(x)
            b = server.predict(x, timeout=10.0)
            assert (a == b).all()


# ---------------------------------------------------------------------------
class TestDrainResume:
    def test_drain_stops_admission_resume_reopens(self):
        with InferenceServer(tiny_config()) as server:
            x = images(1)[0]
            server.predict(x, timeout=10.0)
            report = server.drain()
            assert report["drained"] and report["leftover_failed"] == 0
            with pytest.raises(ServerClosed, match="draining"):
                server.submit(x)
            health = server.health()
            assert health["status"] == "degraded" and health["draining"]
            assert server.metrics.value("serve.drains") == 1
            server.resume()
            assert not server.health()["draining"]
            assert server.predict(x, timeout=10.0).shape == (8,)

    def test_ops_return_with_fresh_health(self, tmp_path):
        """What :meth:`health` says the moment a lifecycle op returns is
        that op's outcome: degraded while drained, ok after the resume,
        the new checkpoint after a reload."""
        cfg = tiny_config()
        ck = make_checkpoint(tmp_path, cfg, seed=99, name="b.npz")
        with InferenceServer(cfg) as server:
            server.drain(timeout_s=10.0)
            assert server.health()["status"] == "degraded"
            server.resume()
            assert server.health()["status"] == "ok"
            server.reload_checkpoint(ck)
            health = server.health()
            assert health["status"] == "ok"
            assert health["checkpoint"] == ck

    def test_drain_timeout_fails_leftovers_instead_of_hanging(self):
        injector = FaultInjector(slow_plan(0.15, count=64))
        server = InferenceServer(
            tiny_config(batch_window_ms=0.0),
            fault_injector=injector,
        )
        server.start()
        try:
            reqs = [server.submit(x) for x in images(8, seed=2)]
            report = server.drain(timeout_s=0.05)
            assert report["leftover_failed"] >= 1
            assert not report["drained"]
            served = failed = 0
            for req in reqs:  # nothing may hang
                try:
                    req.result(timeout=10.0)
                    served += 1
                except ServerClosed:
                    failed += 1
            assert failed == report["leftover_failed"]
            assert served + failed == len(reqs)
        finally:
            server.stop()

    def test_drain_waits_for_inflight_batches(self):
        injector = FaultInjector(slow_plan(0.1, count=1))
        server = InferenceServer(
            tiny_config(batch_window_ms=0.0),
            fault_injector=injector,
        )
        server.start()
        try:
            req = server.submit(images(1)[0])
            time.sleep(0.02)  # let the worker take it (then stall)
            report = server.drain(timeout_s=5.0)
            assert report["drained"]
            # the in-flight batch finished before drain returned
            assert req.done
            assert req.result(0.0).shape == (8,)
        finally:
            server.stop()


# ---------------------------------------------------------------------------
class TestLifecycleBusy:
    """Satellite regression: a lifecycle operation arriving while another
    is in flight is refused deterministically (:class:`LifecycleBusy`,
    HTTP 409) -- it never queues behind the running one, never
    interleaves with it, and the running operation always completes."""

    def _stalled_draining_server(self):
        """A started server with one in-flight batch stalled in the
        worker (slow-fault) and a drain thread inside the lifecycle
        lock waiting for it."""
        injector = FaultInjector(slow_plan(0.4, count=1))
        server = InferenceServer(
            tiny_config(batch_window_ms=0.0),
            fault_injector=injector,
        )
        server.start()
        req = server.submit(images(1)[0])
        time.sleep(0.05)  # the worker took the batch; now stalled 400ms
        report = {}

        def drainer():
            report.update(server.drain(timeout_s=10.0))

        t = threading.Thread(target=drainer)
        t.start()
        deadline = time.perf_counter() + 5.0
        while (not server._lifecycle.locked()
               and time.perf_counter() < deadline):
            time.sleep(0.005)
        assert server._lifecycle.locked()
        return server, req, t, report

    def test_concurrent_reload_and_drain_get_busy(self, tmp_path):
        from repro.serve import LifecycleBusy

        server, req, t, report = self._stalled_draining_server()
        try:
            # both a reload and a second drain racing the in-flight
            # drain are refused, immediately and typed
            with pytest.raises(LifecycleBusy):
                server.reload_checkpoint(str(tmp_path / "any.npz"))
            with pytest.raises(LifecycleBusy):
                server.drain()
            assert server.metrics.value("serve.reload.rollbacks") == 0
            t.join(timeout=10.0)
            # the original drain was untouched by the refused intruders
            assert report["drained"]
            assert req.result(0.0).shape == (8,)
            server.resume()  # lock released: lifecycle ops work again
            assert server.predict(
                images(1)[0], timeout=10.0
            ).shape == (8,)
        finally:
            server.stop()

    def test_http_maps_busy_to_409(self):
        server, _req, t, _report = self._stalled_draining_server()
        httpd = serve_http(server, port=0)
        try:
            host, port = httpd.server_address[:2]
            url = f"http://{host}:{port}"
            status, doc = _post(url, "/admin/resume")
            assert status == 409 and doc["busy"]
            t.join(timeout=10.0)
            status, doc = _post(url, "/admin/resume")
            assert status == 200 and doc["resumed"]
        finally:
            httpd.shutdown()
            server.stop()


# ---------------------------------------------------------------------------
class TestReload:
    def test_successful_reload_changes_served_outputs(self, tmp_path):
        cfg = tiny_config()
        ck_a = make_checkpoint(tmp_path, cfg, seed=11, name="a.npz")
        ck_b = make_checkpoint(tmp_path, cfg, seed=22, name="b.npz")
        x = images(1, seed=3)[0]
        ref_a = reference_probs(cfg, ck_a, x)
        ref_b = reference_probs(cfg, ck_b, x)
        assert not np.array_equal(ref_a, ref_b)

        with InferenceServer(replace(cfg, checkpoint=ck_a)) as server:
            assert (server.predict(x, timeout=10.0) == ref_a).all()
            report = server.reload_checkpoint(ck_b)
            assert report["checkpoint"] == ck_b
            assert report["checkpoint_digest"]
            assert report["buckets_canaried"] == [1, 2, 4]
            # bitwise identical to a fresh server booted on ck_b
            assert (server.predict(x, timeout=10.0) == ref_b).all()
            assert server.metrics.value("serve.reloads") == 1
            assert server.health()["checkpoint"] == ck_b

    def test_inflight_requests_survive_reload(self, tmp_path):
        """Concurrent clients across the swap: every request completes
        and every answer is bitwise old-weights or new-weights."""
        cfg = tiny_config()
        ck_a = make_checkpoint(tmp_path, cfg, seed=11, name="a.npz")
        ck_b = make_checkpoint(tmp_path, cfg, seed=22, name="b.npz")
        x = images(1, seed=3)[0]
        ref_a = reference_probs(cfg, ck_a, x)
        ref_b = reference_probs(cfg, ck_b, x)

        with InferenceServer(replace(cfg, checkpoint=ck_a)) as server:
            stop = threading.Event()
            outputs, errors = [], []
            lock = threading.Lock()

            def hammer():
                while not stop.is_set():
                    try:
                        out = server.predict(x, timeout=10.0)
                        with lock:
                            outputs.append(out)
                    except Exception as err:  # noqa: BLE001
                        with lock:
                            errors.append(err)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.05)
            server.reload_checkpoint(ck_b)
            time.sleep(0.05)
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            assert not errors
            assert outputs
            for out in outputs:
                assert (
                    np.array_equal(out, ref_a)
                    or np.array_equal(out, ref_b)
                )
            # and the swap actually happened under load
            assert any(np.array_equal(out, ref_b) for out in outputs)

    def test_injected_canary_failure_rolls_back(self, tmp_path):
        cfg = tiny_config()
        ck_a = make_checkpoint(tmp_path, cfg, seed=11, name="a.npz")
        ck_b = make_checkpoint(tmp_path, cfg, seed=22, name="b.npz")
        x = images(1, seed=3)[0]
        ref_a = reference_probs(cfg, ck_a, x)
        injector = FaultInjector(FaultPlan((
            FaultSpec(site="serve.reload.canary_fail",
                      kind="canary_fail", count=1),
        )))
        server = InferenceServer(
            replace(cfg, checkpoint=ck_a), fault_injector=injector
        )
        server.start()
        try:
            stop = threading.Event()
            outputs, errors = [], []
            lock = threading.Lock()

            def hammer():
                while not stop.is_set():
                    try:
                        out = server.predict(x, timeout=10.0)
                        with lock:
                            outputs.append(out)
                    except Exception as err:  # noqa: BLE001
                        with lock:
                            errors.append(err)

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.03)
            with pytest.raises(CanaryError, match="rolled back"):
                server.reload_checkpoint(ck_b)
            time.sleep(0.03)
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            # zero failed client requests through the failed reload
            assert not errors
            assert all(np.array_equal(out, ref_a) for out in outputs)
            assert server.metrics.value("serve.reload.rollbacks") == 1
            assert server.metrics.value("serve.reloads") == 0
            # the old weights are still serving afterwards too
            assert (server.predict(x, timeout=10.0) == ref_a).all()
            assert server.config.checkpoint == ck_a
        finally:
            server.stop()

    def test_nan_weights_fail_the_real_canary(self, tmp_path):
        cfg = tiny_config()
        ck_a = make_checkpoint(tmp_path, cfg, seed=11, name="a.npz")
        ck_bad = make_nan_checkpoint(tmp_path, cfg, name="bad.npz")
        x = images(1, seed=3)[0]
        ref_a = reference_probs(cfg, ck_a, x)
        with InferenceServer(replace(cfg, checkpoint=ck_a)) as server:
            with pytest.raises(CanaryError, match="non-finite"):
                server.reload_checkpoint(ck_bad)
            assert server.metrics.value("serve.reload.rollbacks") == 1
            assert (server.predict(x, timeout=10.0) == ref_a).all()

    def test_worker_restarts_racing_reloads_serve_live_replicas(
        self, tmp_path
    ):
        """The supervisor replaces a crashed worker while reloads swap
        the replica: each restart and each swap happens under the gate,
        so no worker ever runs on a replica a reload has closed -- every
        answer is old- or new-weights, none is an error."""
        import sys

        cfg = tiny_config()
        cks = [make_checkpoint(tmp_path, cfg, seed=s, name=f"{s}.npz")
               for s in (11, 22)]
        x = images(1, seed=3)[0]
        refs = [reference_probs(cfg, ck, x) for ck in cks]
        injector = FaultInjector(FaultPlan((
            FaultSpec(site="serve.worker.crash", kind="crash", count=3),
        )))
        server = InferenceServer(replace(cfg, checkpoint=cks[0]),
                                 fault_injector=injector)
        outputs, errors = [], []
        lock = threading.Lock()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    out = server.predict(x, timeout=10.0)
                    with lock:
                        outputs.append(out)
                except Exception as err:  # noqa: BLE001
                    with lock:
                        errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        server.start()
        threads = [threading.Thread(target=hammer) for _ in range(6)]
        try:
            for t in threads:
                t.start()
            deadline = time.perf_counter() + 20.0
            for i in range(6):
                server.reload_checkpoint(cks[(i + 1) % 2])
            while (server.metrics.value("serve.worker_restarts") < 3
                   and time.perf_counter() < deadline):
                server.reload_checkpoint(cks[0])
            stop.set()
            for t in threads:
                t.join(timeout=15.0)
                assert not t.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            server.stop()
        assert server.metrics.value("serve.worker_restarts") == 3
        assert not errors
        assert outputs
        assert all(
            any(np.array_equal(out, ref) for ref in refs) for out in outputs
        )

    def test_missing_checkpoint_rolls_back_cleanly(self, tmp_path):
        with InferenceServer(tiny_config()) as server:
            with pytest.raises((ReproError, FileNotFoundError)):
                server.reload_checkpoint(str(tmp_path / "nope.npz"))
            assert server.metrics.value("serve.reload.rollbacks") == 1
            assert server.predict(images(1)[0], timeout=10.0) is not None

    def test_blocked_reload_records_streams_by_dryrun(self, tmp_path):
        """The shadow a blocked reload builds records every bucket's
        streams by its own dryrun, as boot does, and then serves the new
        weights bitwise."""
        cfg = tiny_config(engine="blocked", buckets=(1, 2))
        ck_b = make_checkpoint(tmp_path, cfg, seed=22, name="b.npz")
        x = images(1, seed=3)[0]
        metrics = get_metrics()
        before = metrics.value("conv.streams_recorded")
        with InferenceServer(cfg) as server:
            at_boot = metrics.value("conv.streams_recorded") - before
            assert at_boot > 0
            server.reload_checkpoint(ck_b)
            assert (
                metrics.value("conv.streams_recorded") - before
                == 2 * at_boot
            )
            ref_b = reference_probs(cfg, ck_b, x)
            assert (server.predict(x, timeout=30.0) == ref_b).all()


# ---------------------------------------------------------------------------
class TestSubmitRacingStop:
    """Satellite: submits racing ``stop()`` must fail fast with
    ``ServerClosed`` (or complete) -- never hang."""

    def test_no_request_hangs_across_stop(self):
        server = InferenceServer(tiny_config())
        server.start()
        start = threading.Event()
        admitted = []
        rejected = []
        lock = threading.Lock()

        def hammer(seed):
            xs = images(10, seed=seed)
            start.wait()
            for x in xs:
                try:
                    req = server.submit(x)
                except (ServerClosed, RequestShed) as err:
                    with lock:
                        rejected.append(err)
                    continue
                with lock:
                    admitted.append(req)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        start.set()  # barrier: all 8 hammer while we stop
        time.sleep(0.005)
        server.stop()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        # every admitted request resolved: a result or ServerClosed,
        # within a bounded wait -- nothing may hang
        served = closed = 0
        for req in admitted:
            try:
                probs = req.result(timeout=5.0)
                assert probs.shape == (8,)
                served += 1
            except ServerClosed:
                closed += 1
        assert served + closed == len(admitted)
        assert all(isinstance(e, ServerClosed) for e in rejected)

    def test_submit_after_stop_fails_immediately(self):
        server = InferenceServer(tiny_config())
        server.start()
        server.stop()
        with pytest.raises(ServerClosed):
            server.submit(images(1)[0])


# ---------------------------------------------------------------------------
def _post(url, path, doc=None, headers=None):
    body = json.dumps(doc or {}).encode()
    req = urllib.request.Request(
        f"{url}{path}", data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHttpLifecycle:
    @pytest.fixture
    def served(self, tmp_path):
        cfg = tiny_config()
        ck_a = make_checkpoint(tmp_path, cfg, seed=11, name="a.npz")
        ck_b = make_checkpoint(tmp_path, cfg, seed=22, name="b.npz")
        server = InferenceServer(replace(cfg, checkpoint=ck_a))
        server.start()
        httpd = serve_http(server, port=0)
        host, port = httpd.server_address[:2]
        yield server, f"http://{host}:{port}", ck_a, ck_b
        httpd.shutdown()
        server.stop()

    def test_deadline_header_maps_to_504(self, served):
        server, url, _, _ = served
        server.injector = FaultInjector(slow_plan(0.1, count=8))
        server._worker.injector = server.injector
        x = images(1)[0].tolist()
        status, doc = _post(url, "/predict", {"input": x},
                            headers={"X-Deadline-Ms": "15"})
        assert status == 504
        assert "deadline" in doc["error"].lower() or "expired" in \
            doc["error"].lower()
        # the expired request never produced a batch: whichever side won
        # the race (the waiter cancelling at its deadline, or the worker
        # dropping the expired row), the engine ran nothing
        deadline = time.perf_counter() + 5.0
        while (
            server.metrics.value("serve.deadline_expired")
            + server.metrics.value("serve.cancelled") < 1
            and time.perf_counter() < deadline
        ):
            time.sleep(0.01)
        assert (
            server.metrics.value("serve.deadline_expired")
            + server.metrics.value("serve.cancelled")
        ) >= 1
        assert server.metrics.value("serve.batches") == 0

    def test_bad_deadline_header_is_400(self, served):
        _, url, _, _ = served
        x = images(1)[0].tolist()
        for bad in ("zero", "-5", "0"):
            status, _doc = _post(url, "/predict", {"input": x},
                                 headers={"X-Deadline-Ms": bad})
            assert status == 400

    def test_admin_drain_resume_roundtrip(self, served):
        server, url, _, _ = served
        x = images(1)[0].tolist()
        status, doc = _post(url, "/admin/drain", {"timeout_s": 5.0})
        assert status == 200 and doc["drained"]
        status, doc = _post(url, "/predict", {"input": x})
        assert status == 503
        status, doc = _post(url, "/admin/resume")
        assert status == 200 and doc["resumed"]
        status, doc = _post(url, "/predict", {"input": x})
        assert status == 200 and len(doc["probs"]) == 8

    def test_admin_reload_success_and_409_rollback(self, served, tmp_path):
        server, url, ck_a, ck_b = served
        x = images(1)[0]
        status, doc = _post(url, "/admin/reload", {"checkpoint": ck_b})
        assert status == 200
        assert doc["checkpoint"] == ck_b and doc["checkpoint_digest"]
        ref_b = reference_probs(server.config, ck_b, x)
        status, doc = _post(url, "/predict", {"input": x.tolist()})
        assert status == 200
        assert (np.asarray(doc["probs"], dtype=np.float32) == ref_b).all()

        # now a canary-failing reload: 409, rolled_back, still serving
        server.injector = FaultInjector(FaultPlan((
            FaultSpec(site="serve.reload.canary_fail",
                      kind="canary_fail", count=1),
        )))
        status, doc = _post(url, "/admin/reload", {"checkpoint": ck_a})
        assert status == 409 and doc["rolled_back"]
        status, doc = _post(url, "/predict", {"input": x.tolist()})
        assert status == 200
        assert (np.asarray(doc["probs"], dtype=np.float32) == ref_b).all()

    def test_admin_reload_requires_checkpoint(self, served):
        _, url, _, _ = served
        status, doc = _post(url, "/admin/reload", {})
        assert status == 500 and "checkpoint" in doc["error"]

    def test_breaker_guards_predict(self, served):
        server, url, _, _ = served
        httpd_breaker = CircuitBreaker(
            window=4, min_volume=2, error_threshold=0.5,
            metrics=server.metrics,
        )
        httpd = serve_http(server, port=0, breaker=httpd_breaker)
        try:
            host, port = httpd.server_address[:2]
            url2 = f"http://{host}:{port}"
            httpd_breaker.record_failure()
            httpd_breaker.record_failure()
            assert httpd_breaker.state == "open"
            x = images(1)[0].tolist()
            status, doc = _post(url2, "/predict", {"input": x})
            assert status == 503 and "breaker" in doc["error"]
            assert server.metrics.value("serve.breaker_fast_fail") >= 1
        finally:
            httpd.shutdown()

    def test_malformed_requests_do_not_wedge_a_half_open_breaker(
            self, served):
        """A 400 says nothing about the server: half-open, it gives its
        probe slot back, so well-formed requests still probe and close
        the breaker."""
        server, _, _, _ = served
        clock = _Clock()
        breaker = CircuitBreaker(min_volume=1, reset_s=1.0, probes=2,
                                 metrics=server.metrics, clock=clock)
        httpd = serve_http(server, port=0, breaker=breaker)
        try:
            host, port = httpd.server_address[:2]
            url2 = f"http://{host}:{port}"
            breaker.record_failure()
            clock.t += 1.0
            assert breaker.state == "half_open"
            bad = np.zeros((3, 8, 8), dtype=np.float32).tolist()
            for _ in range(2):
                assert _post(url2, "/predict", {"input": bad})[0] == 400
            x = images(1)[0].tolist()
            for _ in range(2):
                assert _post(url2, "/predict", {"input": x})[0] == 200
            assert breaker.state == "closed"
        finally:
            httpd.shutdown()

    def test_http_client_transport_maps_statuses(self, served):
        server, url, _, _ = served
        client = ServeClient(url, config=ClientConfig(timeout_s=10,
                                                      max_retries=0))
        x = images(1)[0]
        probs = client.predict(x)
        assert (probs == server.predict(x, timeout=10.0)).all()
        with pytest.raises(ShapeError):  # 400 -> not retried
            client.predict(np.zeros((3, 3), dtype=np.float32))


class TestClientDisconnect:
    """Satellite: a reply to a vanished client is counted, not crashed."""

    def test_broken_pipe_counted_not_raised(self):
        server = InferenceServer(tiny_config())  # unstarted: metrics only
        handler_cls = _make_handler(server, None)
        h = handler_cls.__new__(handler_cls)
        h.request_version = "HTTP/1.1"
        h.requestline = "POST /predict HTTP/1.1"
        h.client_address = ("127.0.0.1", 0)
        h.close_connection = False

        class _Gone:
            def write(self, _b):
                raise BrokenPipeError("client went away")

            def flush(self):
                pass

        h.wfile = _Gone()
        h._reply(200, {"probs": [0.5, 0.5]})  # must not raise
        assert server.metrics.value("serve.client_disconnects") == 1
        assert h.close_connection

    def test_connection_reset_counted_too(self):
        server = InferenceServer(tiny_config())
        handler_cls = _make_handler(server, None)
        h = handler_cls.__new__(handler_cls)
        h.request_version = "HTTP/1.1"
        h.requestline = "GET /metrics HTTP/1.1"
        h.client_address = ("127.0.0.1", 0)
        h.close_connection = False

        class _Reset:
            def write(self, _b):
                raise ConnectionResetError("reset by peer")

            def flush(self):
                pass

        h.wfile = _Reset()
        h._reply(200, {"ok": True})
        assert server.metrics.value("serve.client_disconnects") == 1


# ---------------------------------------------------------------------------
class TestLoadgenLifecycle:
    def test_closed_loop_reports_client_policy_columns(self):
        with InferenceServer(tiny_config()) as server:
            report = run_closed_loop(
                server, clients=4, requests=16,
                client_config=ClientConfig(timeout_s=10, max_retries=1),
            )
        assert report.completed == 16
        assert report.timeouts == 0
        doc = report.to_dict()
        for key in ("timeouts", "deadline_exceeded", "retries", "hedges",
                    "client_stats"):
            assert key in doc
        assert doc["client_stats"]["completed"] == 16

    def test_closed_loop_counts_deadline_misses(self):
        injector = FaultInjector(slow_plan(0.12, count=64))
        server = InferenceServer(
            tiny_config(), fault_injector=injector
        )
        server.start()
        try:
            report = run_closed_loop(
                server, clients=2, requests=4,
                client_config=ClientConfig(timeout_s=10, max_retries=0),
                deadline_ms=20.0,
            )
        finally:
            server.stop()
        assert report.deadline_exceeded + report.completed == 4
        assert report.deadline_exceeded >= 1
