"""The inference server: queue + batcher + warm cache + workers.

Boot does everything expensive exactly once -- graph construction,
JIT codegen, dryrun stream recording (or warm-cache replay, skipping
the dryrun entirely) -- so the steady state per request is: admission,
a short batching wait, one engine call, scatter.  SLO signals use the
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
* :meth:`reload_checkpoint` -- load new weights into a **shadow**
  replica set (reusing the stream warm cache, so no dryrun), validate a
  canary batch per bucket against the numerics contract (finite values,
  correct shape, probability simplex), then atomically swap the shadows
  in under the :class:`~repro.serve.worker.SwapGate` and rebuild the
  warm cache from the new replicas.  Any canary failure rolls back:
  shadows are discarded, the old replicas never stopped serving, and
  the error is raised to the operator (``serve.reload.rollbacks``).

Resilience: boot falls back to a cold dryrun when the warm-cache
artifact is stale or corrupt (:class:`StaleArtifactError` -> counted in
``serve.artifact_rejected``, never a boot abort); a supervisor thread
restarts crashed worker threads with exponential backoff
(``serve.worker_restarts``); and :meth:`health` -- the ``/healthz``
payload -- reports live-worker count and every degraded state.

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
from repro.serve.warmcache import StreamWarmCache
from repro.serve.worker import EngineReplica, ReplicaSlot, SwapGate, Worker
from repro.streams.serialize import StaleArtifactError
from repro.types import ReproError, ShapeError

__all__ = ["CanaryError", "InferenceServer", "LifecycleBusy"]

#: supervisor scan period and restart backoff bounds
_SUPERVISE_S = 0.05
_BACKOFF_BASE_S = 0.05
_BACKOFF_MAX_S = 2.0


class CanaryError(ReproError):
    """A shadow replica's canary batch violated the numerics contract
    during :meth:`InferenceServer.reload_checkpoint`; the reload was
    rolled back and the old replicas kept serving."""


class LifecycleBusy(ReproError):
    """A lifecycle operation (drain/resume/reload) was refused because
    another one is already in flight.  Typed so the HTTP front end maps
    it to a deterministic ``409`` -- the operation never queues behind
    the running one and never interleaves with it."""


def _config_doc(config: ServeConfig) -> dict:
    """JSON-serializable config document for an incident manifest
    (``replay`` is a runtime object, not part of the capture)."""
    doc = asdict(config)
    doc.pop("replay", None)
    return doc


class InferenceServer:
    """Dynamic-batching front end over bucket-sized inference engines.

    ``fault_injector`` arms deterministic fault injection at the serving
    sites (``serve.worker.crash``, ``serve.worker.slow``,
    ``serve.replica.run``, ``serve.reload.canary_fail``);
    ``max_worker_restarts`` bounds how many times the supervisor will
    replace any one worker slot before leaving it down (and reporting it
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
            workers=config.workers,
        )
        self.batcher = MicroBatcher(config.buckets, metrics=self.metrics)
        self.warm_cache = StreamWarmCache(config.fingerprint())
        #: read side held per batch by workers, write side by replica
        #: swaps (reload) and drain's in-flight barrier
        self.gate = SwapGate()
        self._slots: list[ReplicaSlot] = []
        self._workers: list[Worker] = []
        self._restarts: list[int] = []
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

    @property
    def _replicas(self) -> list[EngineReplica]:
        """The live replica set (compat accessor; tests patch
        ``server._replicas[0].run``)."""
        return [slot.replica for slot in self._slots]

    # ------------------------------------------------------------------
    def start(self, streams_artifact=None) -> dict:
        """Build every replica and start the worker threads.

        ``streams_artifact`` (path or file object) warm-starts the
        blocked engine from saved kernel streams; buckets present in the
        artifact skip their dryrun.  A stale or corrupt artifact does
        NOT abort boot: it is rejected (``serve.artifact_rejected``) and
        every bucket cold-boots through its dryrun.  Returns
        :attr:`boot_stats`.
        """
        if self._started:
            raise ReproError("server already started")
        t0 = time.perf_counter()
        artifact_error: str | None = None
        if streams_artifact is not None:
            if self.config.engine != "blocked":
                raise ReproError(
                    "stream warm-start applies only to the blocked engine"
                )
            try:
                self.warm_cache.load(streams_artifact)
            except StaleArtifactError as err:
                # graceful degradation: cold dryrun instead of boot abort
                artifact_error = str(err)
                self.metrics.inc("serve.artifact_rejected")
        for i in range(self.config.workers):
            replica = EngineReplica(
                self.config, self.warm_cache, metrics=self.metrics,
                injector=self.injector,
            )
            self._slots.append(ReplicaSlot(replica))
            self._workers.append(self._make_worker(i, self._slots[i]))
            self._restarts.append(0)
        if self.config.checkpoint:
            self._load_checkpoint(self.config.checkpoint, self._replicas)
        boot_s = time.perf_counter() - t0
        first = self._slots[0].replica
        self.boot_stats = {
            "boot_s": boot_s,
            "engine": self.config.engine,
            "warm_buckets": list(first.warm_buckets),
            "cold_buckets": list(first.cold_buckets),
        }
        if artifact_error is not None:
            self.boot_stats["artifact_error"] = artifact_error
        self.metrics.set_gauge("serve.boot_s", boot_s)
        for w in self._workers:
            w.start()
        self._stopping.clear()
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()
        self._started = True
        return self.boot_stats

    def _make_worker(self, slot_idx: int, slot: ReplicaSlot) -> Worker:
        return Worker(
            name=f"serve-worker-{slot_idx}",
            queue=self.queue,
            batcher=self.batcher,
            replica=slot,
            batch_window_s=self.config.batch_window_ms / 1e3,
            metrics=self.metrics,
            injector=self.injector,
            gate=self.gate,
        )

    @staticmethod
    def _load_checkpoint(path: str, replicas) -> None:
        """Copy trained parameters from a checkpoint into every graph of
        every replica (all graphs share one layout, so loading is a flat
        parameter copy per graph)."""
        from repro.gxm.checkpoint import load_checkpoint

        for replica in replicas:
            for session in replica.sessions():
                load_checkpoint(session.etg, path)

    # -- self-healing ---------------------------------------------------
    def _supervise(self) -> None:
        """Restart crashed worker threads (bounded, with backoff).

        A worker that exited because the queue closed
        (``exited_cleanly``) is never restarted; one that died any other
        way is replaced on its own replica slot -- engines are stateless
        between batches, so the replacement picks up immediately (and a
        slot repointed by a hot reload restarts onto the new replica).
        """
        while not self._stopping.wait(_SUPERVISE_S):
            for slot_idx, worker in enumerate(self._workers):
                if worker.is_alive() or worker.exited_cleanly:
                    continue
                if self._restarts[slot_idx] >= self.max_worker_restarts:
                    continue  # slot abandoned; health() reports it
                delay = min(
                    _BACKOFF_BASE_S * (2 ** self._restarts[slot_idx]),
                    _BACKOFF_MAX_S,
                )
                if self._stopping.wait(delay):
                    return
                self._restarts[slot_idx] += 1
                self.metrics.inc("serve.worker_restarts")
                replacement = self._make_worker(
                    slot_idx, self._slots[slot_idx]
                )
                self._workers[slot_idx] = replacement
                replacement.start()

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
        moment this is called; workers keep draining the queue.  When the
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
            # barrier: wait for every in-flight batch to finish
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
        from the *old* replicas already satisfies: a finite, row-wise
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

        Mechanics: (1) build a **shadow** replica set from the warm
        cache (stream replay, no dryrun) and load ``path`` into it --
        the live replicas keep serving untouched; (2) run one canary
        batch per bucket on a shadow and validate the numerics contract
        (finite, correct shape, probability simplex); (3) only if every
        canary passes, take the swap gate's write side (waits for
        in-flight batches, holds new ones back for the swap instant),
        repoint every worker slot at its shadow, and rebuild the stream
        warm cache from the new replicas; (4) close the old replicas.

        On *any* canary failure -- including an injected
        ``serve.reload.canary_fail`` -- the shadows are discarded, the
        old replicas never stopped serving, ``serve.reload.rollbacks``
        is bumped and :class:`CanaryError` raised.  Client requests in
        flight observe either the old or the new weights, never an
        error, never a hang."""
        if not self._started:
            raise ServerClosed("server not started")
        with self._lifecycle_op("reload"):
            t0 = time.perf_counter()
            new_config = replace(self.config, checkpoint=path)
            shadows: list[EngineReplica] = []
            try:
                for _ in self._slots:
                    shadows.append(EngineReplica(
                        new_config, self.warm_cache,
                        metrics=self.metrics, injector=self.injector,
                    ))
                self._load_checkpoint(path, shadows)
                # canary: one deterministic batch per bucket, on shadows
                rng = np.random.default_rng(canary_seed)
                for bucket in self.config.buckets:
                    x = rng.standard_normal(
                        (bucket, *self.config.input_shape)
                    ).astype(np.float32)
                    probs = shadows[0].run(x, bucket)
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
                # rollback: discard shadows; old replicas never stopped
                for shadow in shadows:
                    shadow.close()
                self.metrics.inc("serve.reload.rollbacks")
                raise
            # every canary passed: atomic swap under the write gate
            old: list[EngineReplica]
            with self.gate.write():
                old = [slot.replica for slot in self._slots]
                for slot, shadow in zip(self._slots, shadows):
                    slot.replica = shadow
                self.config = new_config
                # invalidate + rebuild the warm cache from the replicas
                # now live, so a saved artifact always reflects them
                if new_config.engine == "blocked":
                    self.warm_cache.clear()
                    for bucket, state in shadows[0].stream_state().items():
                        self.warm_cache.put(bucket, state)
            for replica in old:
                replica.close()
            duration = time.perf_counter() - t0
            self.metrics.inc("serve.reloads")
            self.metrics.set_gauge("serve.reload_s", duration)
            report = {
                "checkpoint": path,
                "buckets_canaried": list(self.config.buckets),
                "duration_s": duration,
                "warm_cache_rebuilt": self.config.engine == "blocked",
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
        the shadows.  The bundle carries the *new* config (checkpoint =
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
            config=_config_doc(new_config),
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
            replica = self._slots[0].replica
            y = np.asarray(replica.run(x, bucket))
            tensors = {"x": x}
            for i, p in enumerate(
                replica._sessions[bucket].etg.params()
            ):
                tensors[f"weights__{i}"] = p.copy()
        path = self._incidents.capture(
            "manual",
            replay={"mode": "serve", "bucket": int(bucket)},
            config=_config_doc(self.config),
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
        """Close admission, drain workers, fail leftover requests."""
        if not self._started:
            return
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
            self._supervisor = None
        self.queue.close()
        for w in self._workers:
            w.join(timeout=30.0)
        for req in self.queue.drain():
            req._fail(ServerClosed("server stopped before request ran"))
        for slot in self._slots:
            slot.replica.close()
        self._slots.clear()
        self._workers.clear()
        self._restarts.clear()
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
        ``"degraded"`` (serving, but with dead workers, a degraded
        execution tier, a warm-artifact rejection, or admission paused
        by a drain) or ``"down"`` (not started / nothing alive to
        serve)."""
        live = sum(1 for w in self._workers if w.is_alive())
        degraded_buckets = sorted(
            {
                b
                for r in self._replicas
                for b in r.degraded_buckets
            }
        )
        artifact_fallback = "artifact_error" in self.boot_stats
        if not self._started or (self._workers and live == 0):
            status = "down"
        elif (
            live < len(self._workers)
            or degraded_buckets
            or artifact_fallback
            or self._draining
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "started": self._started,
            "draining": self._draining,
            "live_workers": live,
            "configured_workers": self.config.workers,
            "worker_restarts": self.metrics.value("serve.worker_restarts"),
            "degraded_buckets": degraded_buckets,
            "artifact_fallback": artifact_fallback,
            "artifact_error": self.boot_stats.get("artifact_error"),
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
        percentiles, kernel cache state, boot stats, warm-cache digests
        and the health payload.  Reads the per-instance registry, so the
        numbers cover exactly this server's lifetime -- not every server
        ever booted in the process."""
        from repro.jit.kernel_cache import get_default_cache

        return {
            "counters": self.metrics.counters(),
            "gauges": self.metrics.gauges(),
            "distributions": self.metrics.distributions(),
            "kernel_cache": get_default_cache().stats(),
            "boot": dict(self.boot_stats),
            "warm_streams": self.warm_cache.digests(),
            "health": self.health(),
        }

    def save_streams_artifact(self, path_or_file) -> int:
        """Persist the warm cache for the next boot; returns the entry
        count.  Only meaningful for the blocked engine (the fast engine
        records no streams)."""
        if self.config.engine != "blocked":
            raise ReproError(
                "stream artifacts apply only to the blocked engine"
            )
        return self.warm_cache.save(path_or_file)
