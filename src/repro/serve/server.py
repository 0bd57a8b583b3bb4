"""The inference server: queue + batcher + one replica + its worker.

Boot does everything expensive exactly once -- graph construction,
JIT codegen, each bucket's dryrun recording its kernel streams -- so
the steady state per request is: admission, a short batching wait, one
engine call, scatter.  SLO signals use the
:mod:`repro.obs` machinery on a per-server registry
(:attr:`InferenceServer.metrics`): ``serve.latency_ms`` (distribution
-> p50/p95/p99), ``serve.queue_depth``, ``serve.batch_occupancy``,
``serve.shed``/``serve.batches``/``serve.responses``/
``serve.cancelled``/``serve.deadline_expired`` counters and the
``serve.boot_s`` gauge.

Because the kernel-stream design makes a cold restart expensive (every
bucket's dryrun again), production robustness comes from *lifecycle*
operations on the running server rather than kill-and-reboot:

* :meth:`drain` -- stop admission, let in-flight and queued batches
  finish, fail (and report) anything left after the timeout.  Admission
  can be re-opened with :meth:`resume`.
* :meth:`reload_checkpoint` -- build a **shadow** replica on the new
  weights (its dryruns record its streams, as at boot, off the request
  path), validate a canary batch per bucket against the numerics
  contract (finite values, correct shape, probability simplex), then
  atomically swap it in under the
  :class:`~repro.serve.worker.SwapGate`.  Any canary failure rolls
  back: the shadow is discarded, the old replica never stopped serving,
  and the error is raised to the operator (``serve.reload.rollbacks``).

Resilience: a supervisor thread restarts a crashed worker thread with
exponential backoff (``serve.worker_restarts``); and :meth:`health` --
the ``/healthz`` payload -- reports whether the worker is alive and
every degraded state.

Lifecycle operations never interleave: drain/resume/reload serialize on
one lock, and a second operation arriving while one is in flight is
refused *deterministically* with :class:`LifecycleBusy` (HTTP 409)
instead of queueing behind it -- an operator script that fires a reload
during a drain gets a typed refusal, not an arbitrary interleaving.

Forensics: with :attr:`ServeConfig.incident_dir` set the server raises
the process-wide tracer (:mod:`repro.obs.tracer`) to at least its
``"events"`` state, so its ring records admissions, batches (one
``serve.batch`` span each, carrying the request ids), tier degrades and
lifecycle transitions, and freezes that ring into an atomic,
digest-verified incident bundle on every canary rollback and on
``POST /admin/dump`` (:meth:`dump_incident`) -- each bundle replays
bitwise via ``python -m repro incident replay``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from repro.forensics.bundle import IncidentWriter, tensor_digest
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import get_tracer
from repro.resilience.faults import FaultInjector
from repro.serve.admission import AdmissionQueue
from repro.serve.batcher import MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.request import InferenceRequest, InvalidImage, ServerClosed
from repro.serve.worker import EngineReplica, SwapGate, Worker
from repro.types import ReproError, ShapeError

__all__ = ["CanaryError", "InferenceServer", "LifecycleBusy"]

#: supervisor scan period and restart backoff bounds
_SUPERVISE_S = 0.05
_BACKOFF_BASE_S = 0.05
_BACKOFF_MAX_S = 2.0


class CanaryError(ReproError):
    """A shadow replica's canary batch violated the numerics contract
    during :meth:`InferenceServer.reload_checkpoint`; the reload was
    rolled back and the old replica kept serving."""


class LifecycleBusy(ReproError):
    """A lifecycle operation (drain/resume/reload) was refused because
    another one is already in flight.  Typed so the HTTP front end maps
    it to a deterministic ``409`` -- the operation never queues behind
    the running one and never interleaves with it."""


class InferenceServer:
    """Dynamic-batching front end over bucket-sized inference engines.

    ``fault_injector`` arms deterministic fault injection at the serving
    sites (``serve.worker.crash``, ``serve.worker.slow``,
    ``serve.replica.run``, ``serve.reload.canary_fail``);
    ``max_worker_restarts`` bounds how many times the supervisor will
    replace the worker thread before leaving it down (and reporting it
    through :meth:`health`).
    """

    def __init__(
        self,
        config: ServeConfig,
        fault_injector: FaultInjector | None = None,
        max_worker_restarts: int = 8,
    ):
        self.config = config
        #: per-server registry: several servers can live in one process
        #: (tests, loadgen comparisons), so SLO numbers must not bleed
        #: across instances through the process-wide registry
        self.metrics = MetricsRegistry()
        self.injector = fault_injector
        self.max_worker_restarts = max_worker_restarts
        self.queue = AdmissionQueue(
            config.queue_capacity,
            metrics=self.metrics,
            max_wait_s=(
                config.max_queue_wait_ms / 1e3
                if config.max_queue_wait_ms is not None
                else None
            ),
        )
        self.batcher = MicroBatcher(config.buckets, metrics=self.metrics)
        #: read side held per batch by the worker, write side by the
        #: replica swap (reload), worker restarts and drain's barrier
        self.gate = SwapGate()
        #: the engines that serve; built by :meth:`start`, swapped by
        #: :meth:`reload_checkpoint`
        self.replica: EngineReplica | None = None
        self._worker: Worker | None = None
        self._restarts = 0
        self._supervisor: threading.Thread | None = None
        self._stopping = threading.Event()
        #: serializes lifecycle operations (drain/resume/reload/stop)
        self._lifecycle = threading.Lock()
        if config.incident_dir:
            get_tracer().enable("events")
        self._incidents = IncidentWriter(config.incident_dir)
        self.boot_stats: dict = {}
        self._started = False
        self._draining = False

    # ------------------------------------------------------------------
    def start(self) -> dict:
        """Build the replica (each blocked bucket records its kernel
        streams by dryrun) and start the worker thread.  Returns
        :attr:`boot_stats`."""
        if self._started:
            raise ReproError("server already started")
        t0 = time.perf_counter()
        self.replica = EngineReplica(
            self.config, metrics=self.metrics, injector=self.injector,
        )
        boot_s = time.perf_counter() - t0
        self.boot_stats = {"boot_s": boot_s, "engine": self.config.engine}
        self.metrics.set_gauge("serve.boot_s", boot_s)
        self._restarts = 0
        self._worker = self._make_worker()
        self._worker.start()
        self._stopping.clear()
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()
        self._started = True
        return self.boot_stats

    def _make_worker(self) -> Worker:
        return Worker(
            name="serve-worker",
            queue=self.queue,
            batcher=self.batcher,
            replica=self.replica,
            batch_window_s=self.config.batch_window_ms / 1e3,
            metrics=self.metrics,
            injector=self.injector,
            gate=self.gate,
        )

    # -- self-healing ---------------------------------------------------
    def _supervise(self) -> None:
        """Restart a crashed worker thread (bounded, with backoff).

        A worker that exited because the queue closed
        (``exited_cleanly``) is never restarted; one that died any other
        way is replaced on the current replica -- engines are stateless
        between batches, so the replacement picks up immediately.  The
        replacement is made under the swap gate, so it can never start
        on a replica a concurrent hot reload has just retired.
        """
        while not self._stopping.wait(_SUPERVISE_S):
            worker = self._worker
            if worker.is_alive() or worker.exited_cleanly:
                continue
            if self._restarts >= self.max_worker_restarts:
                continue  # left down; health() reports it
            delay = min(
                _BACKOFF_BASE_S * (2 ** self._restarts), _BACKOFF_MAX_S
            )
            if self._stopping.wait(delay):
                return
            self._restarts += 1
            self.metrics.inc("serve.worker_restarts")
            with self.gate.write():
                self._worker = self._make_worker()
            self._worker.start()

    # ------------------------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline: float | None = None
    ) -> InferenceRequest:
        """Admit one ``(C, H, W)`` image; returns the pending request.

        ``deadline`` is an absolute ``time.perf_counter()`` moment after
        which nobody cares about the answer; the pipeline drops the
        request (failing it with :class:`DeadlineExceeded`) instead of
        computing into the void.  Raises :class:`RequestShed` when
        admission sheds (full queue or estimated wait over budget),
        :class:`ServerClosed` after :meth:`stop` or during a drain,
        :class:`ShapeError` for a wrong shape and :class:`InvalidImage`
        for values that are not real numbers or not finite as float32.
        """
        if not self._started:
            raise ServerClosed("server not started")
        try:
            x = np.asarray(x)
        except (TypeError, ValueError) as err:  # ragged nesting
            raise InvalidImage(f"image is not an array: {err}") from err
        if x.dtype != np.float32:
            if x.dtype.kind not in "biuf":
                raise InvalidImage(
                    f"image dtype {x.dtype} is not a real number type"
                )
            with np.errstate(over="ignore"):  # overflow is refused below
                x = x.astype(np.float32)
        if x.shape != self.config.input_shape:
            raise ShapeError(
                f"request shape {x.shape} != configured "
                f"{self.config.input_shape}"
            )
        if not np.isfinite(x).all():
            raise InvalidImage("image has NaN or infinite float32 values")
        req = InferenceRequest(x, deadline=deadline)
        self.queue.put(req)
        tracer = get_tracer()
        if tracer.recording:
            tracer.record("serve.admit", req=req.id)
        return req

    def predict(
        self,
        x: np.ndarray,
        timeout: float | None = 30.0,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Blocking convenience: submit one image, wait for its probs."""
        return self.submit(x, deadline=deadline).result(timeout)

    # -- lifecycle: drain / resume / hot reload -------------------------
    @contextmanager
    def _lifecycle_op(self, name: str):
        """Serialize lifecycle operations; a second one arriving while
        one is in flight is refused with :class:`LifecycleBusy` instead
        of queueing behind it and interleaving."""
        if not self._lifecycle.acquire(blocking=False):
            raise LifecycleBusy(
                f"another lifecycle operation is in flight; retry "
                f"{name} after it completes"
            )
        try:
            get_tracer().record(f"serve.{name}")
            yield
        finally:
            self._lifecycle.release()

    def drain(self, timeout_s: float = 30.0) -> dict:
        """Graceful quiesce: stop admission, finish queued and in-flight
        batches, report what was left.

        New submissions fail with :class:`ServerClosed` ("draining") the
        moment this is called; the worker keeps draining the queue.  When the
        queue has not emptied within ``timeout_s`` the leftovers are
        failed with :class:`ServerClosed` and counted in the report --
        nothing is ever left hanging on ``result()``.  The server stays
        started (use :meth:`resume` to re-open admission, or :meth:`stop`
        to shut down, which is now instant)."""
        if not self._started:
            raise ServerClosed("server not started")
        with self._lifecycle_op("drain"):
            t0 = time.perf_counter()
            self.queue.pause()
            self._draining = True
            self.metrics.set_gauge("serve.draining", 1)
            # queue empty AND every taken batch acknowledged: a batch
            # popped the instant before the drain is still waited for
            self.queue.join(timeout_s)
            leftover = self.queue.drain()
            for req in leftover:
                req._fail(ServerClosed(
                    "server drained before this request ran"
                ))
            # barrier: wait for the in-flight batch to finish
            with self.gate.write():
                pass
            report = {
                "drained": not leftover,
                "leftover_failed": len(leftover),
                "duration_s": time.perf_counter() - t0,
                "queue_depth": self.queue.depth,
            }
            self.metrics.inc("serve.drains")
            return report

    def resume(self) -> dict:
        """Re-open admission after :meth:`drain`."""
        if not self._started:
            raise ServerClosed("server not started")
        with self._lifecycle_op("resume"):
            self.queue.resume()
            self._draining = False
            self.metrics.set_gauge("serve.draining", 0)
            return {"resumed": True}

    def _canary_contract(self, probs, bucket: int) -> str | None:
        """Why ``probs`` violates the serving numerics contract, or
        ``None`` if it honours it.  The contract is what every response
        from the *old* replica already satisfies: a finite, row-wise
        probability simplex of the configured class count."""
        probs = np.asarray(probs)
        want = (bucket, self.config.num_classes)
        if probs.shape != want:
            return f"canary output shape {probs.shape} != {want}"
        if not np.isfinite(probs).all():
            return "canary output contains non-finite values"
        if (probs < 0).any():
            return "canary output contains negative probabilities"
        if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-4):
            return "canary output rows do not sum to 1"
        return None

    def reload_checkpoint(self, path: str, canary_seed: int = 0) -> dict:
        """Hot-swap to new weights with zero dropped requests.

        Mechanics: (1) build a **shadow** replica on the weights at
        ``path`` -- its blocked buckets record their streams by dryrun,
        as at boot -- while the live replica keeps serving untouched;
        (2) run one canary batch per bucket on the shadow and validate
        the numerics contract (finite, correct shape, probability
        simplex); (3) only if every canary passes, take the swap gate's
        write side (waits for the in-flight batch, holds new ones back
        for the swap instant) and repoint the worker at the shadow;
        (4) close the old replica.

        On *any* canary failure -- including an injected
        ``serve.reload.canary_fail`` -- the shadow is discarded, the
        old replica never stopped serving, ``serve.reload.rollbacks``
        is bumped and :class:`CanaryError` raised.  Client requests in
        flight observe either the old or the new weights, never an
        error, never a hang."""
        if not self._started:
            raise ServerClosed("server not started")
        with self._lifecycle_op("reload"):
            t0 = time.perf_counter()
            new_config = replace(self.config, checkpoint=path)
            shadow: EngineReplica | None = None
            try:
                shadow = EngineReplica(
                    new_config, metrics=self.metrics, injector=self.injector,
                )
                # canary: one deterministic batch per bucket, on the shadow
                rng = np.random.default_rng(canary_seed)
                for bucket in self.config.buckets:
                    x = rng.standard_normal(
                        (bucket, *self.config.input_shape)
                    ).astype(np.float32)
                    probs = shadow.run(x, bucket)
                    violation = self._canary_contract(probs, bucket)
                    if violation is None and self.injector is not None:
                        fault = self.injector.fire(
                            "serve.reload.canary_fail"
                        )
                        if fault is not None and fault.kind == "canary_fail":
                            violation = (
                                "injected canary failure "
                                "(serve.reload.canary_fail)"
                            )
                    if violation is not None:
                        err = CanaryError(
                            f"reload of {path!r} rolled back: bucket "
                            f"{bucket} {violation}"
                        )
                        self._capture_canary_incident(
                            err, new_config, x, bucket, path
                        )
                        raise err
            except BaseException:
                # rollback: discard the shadow; the old replica never
                # stopped serving
                if shadow is not None:
                    shadow.close()
                self.metrics.inc("serve.reload.rollbacks")
                raise
            # every canary passed: atomic swap under the write gate
            with self.gate.write():
                old, self.replica = self.replica, shadow
                self._worker.replica = shadow
                self.config = new_config
            old.close()
            duration = time.perf_counter() - t0
            self.metrics.inc("serve.reloads")
            self.metrics.set_gauge("serve.reload_s", duration)
            report = {
                "checkpoint": path,
                "buckets_canaried": list(self.config.buckets),
                "duration_s": duration,
            }
            try:
                from repro.gxm.checkpoint import read_checkpoint_meta

                report["checkpoint_digest"] = read_checkpoint_meta(
                    path
                ).get("digest")
            except ReproError:  # pragma: no cover -- digest is advisory
                report["checkpoint_digest"] = None
            self.boot_stats["checkpoint"] = path
            return report

    def _capture_canary_incident(
        self, err: CanaryError, new_config: ServeConfig,
        x: np.ndarray, bucket: int, path: str,
    ) -> None:
        """Freeze the failing canary batch before the rollback discards
        the shadow.  The bundle carries the *new* config (checkpoint =
        the rejected path), so a replay rebuilds exactly the engine the
        canary ran on."""
        get_tracer().record(
            "serve.reload.rollback", bucket=int(bucket), checkpoint=path,
        )
        if not self._incidents.enabled:
            return
        self._incidents.capture(
            "serve",
            error=err,
            replay={"mode": "serve", "bucket": int(bucket)},
            config=asdict(new_config),
            config_fingerprint=new_config.fingerprint(),
            fault_plan=(
                self.injector.plan if self.injector is not None else None
            ),
            tune_db_digest=new_config._tune_db_digest(),
            tensors={"x": np.array(x)},
            extra={"checkpoint": path, "trigger": "canary"},
        )

    def dump_incident(self) -> str:
        """Operator-triggered capture (``POST /admin/dump``): freeze the
        tracer's ring, config and a deterministic canary request
        -- together with the live weights and the current output digest
        -- into one replayable bundle.  Returns the bundle path."""
        if not self._started:
            raise ServerClosed("server not started")
        if not self._incidents.enabled:
            raise ReproError(
                "no incident directory configured; set "
                "ServeConfig.incident_dir to enable /admin/dump"
            )
        get_tracer().record("serve.dump")
        bucket = self.config.buckets[0]
        rng = np.random.default_rng(self.config.seed)
        x = rng.standard_normal(
            (bucket, *self.config.input_shape)
        ).astype(np.float32)
        with self.gate.read():
            replica = self.replica
            y = np.asarray(replica.run(x, bucket))
            tensors = {"x": x}
            for i, p in enumerate(
                replica._sessions[bucket].etg.params()
            ):
                tensors[f"weights__{i}"] = p.copy()
        path = self._incidents.capture(
            "manual",
            replay={"mode": "serve", "bucket": int(bucket)},
            config=asdict(self.config),
            config_fingerprint=self.config.fingerprint(),
            fault_plan=(
                self.injector.plan if self.injector is not None else None
            ),
            tune_db_digest=self.config._tune_db_digest(),
            tensors=tensors,
            expect={"x": tensor_digest(x), "y": tensor_digest(y)},
            extra={"trigger": "dump", "health": self.health()},
        )
        if path is None:
            raise ReproError("incident capture failed (see metrics)")
        return path

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Close admission, drain the worker, fail leftover requests."""
        if not self._started:
            return
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
            self._supervisor = None
        self.queue.close()
        self._worker.join(timeout=30.0)
        for req in self.queue.drain():
            req._fail(ServerClosed("server stopped before request ran"))
        self.replica.close()
        self.replica = None
        self._worker = None
        self._started = False
        self._draining = False

    def __enter__(self) -> "InferenceServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` readiness payload.

        ``status`` is ``"ok"`` (full capacity, no degradation),
        ``"degraded"`` (serving, but with a degraded execution tier or
        admission paused by a drain) or ``"down"`` (not started, or the
        worker thread is dead -- awaiting its restart, or out of restart
        budget)."""
        live = int(self._worker is not None and self._worker.is_alive())
        degraded_buckets = (
            sorted(self.replica.degraded_buckets)
            if self.replica is not None else []
        )
        if not self._started or not live:
            status = "down"
        elif degraded_buckets or self._draining:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "started": self._started,
            "draining": self._draining,
            "live_workers": live,
            "worker_restarts": self.metrics.value("serve.worker_restarts"),
            "degraded_buckets": degraded_buckets,
            "queue_depth": self.queue.depth,
            "estimated_wait_ms": self.queue.estimated_wait_s() * 1e3,
            "reloads": self.metrics.value("serve.reloads"),
            "reload_rollbacks": self.metrics.value(
                "serve.reload.rollbacks"
            ),
            "checkpoint": self.config.checkpoint,
            "incident_bundles": len(self._incidents.written),
        }

    def stats(self) -> dict:
        """SLO snapshot: this server's serve.* metrics, latency
        percentiles, kernel cache state, boot stats and the health
        payload.  Reads the per-instance registry, so the
        numbers cover exactly this server's lifetime -- not every server
        ever booted in the process."""
        from repro.jit.kernel_cache import get_default_cache

        return {
            "counters": self.metrics.counters(),
            "gauges": self.metrics.gauges(),
            "distributions": self.metrics.distributions(),
            "kernel_cache": get_default_cache().stats(),
            "boot": dict(self.boot_stats),
            "health": self.health(),
        }
