"""Engine replicas and the worker threads that drive them.

A replica is one complete set of forward-only engines for every
configured batch bucket, wrapped in entered
:class:`~repro.gxm.inference.InferenceSession` instances so BatchNorm
runs on its running statistics for the replica's whole lifetime.

Engine strategy per :class:`~repro.serve.config.ServeConfig`:

* ``fast`` -- batch size is just the leading dimension, so ONE graph
  serves every bucket.  This is the throughput engine (batching feeds
  BLAS bigger GEMMs).
* ``blocked`` -- kernel streams are recorded for a fixed minibatch, so
  the replica owns one graph *per bucket*.  Building each graph replays
  warm-cache streams when available (no dryrun) and contributes its
  freshly recorded streams to the cache otherwise.

Hot reload support: a worker reads its replica through a
:class:`ReplicaSlot` (a one-field holder the server repoints during
:meth:`~repro.serve.server.InferenceServer.reload_checkpoint`) and runs
each batch under the shared :class:`SwapGate`'s read side.  The reload
path takes the write side, so a swap happens only between batches --
never under a replay in flight -- and an in-flight batch always
finishes on the replica it started on.

Request lifecycle: expired requests are dropped (and failed with
:class:`~repro.serve.request.DeadlineExceeded`) immediately before the
batch is built, so a batch whose every row already missed its deadline
is **never replayed** -- the engine call is skipped entirely.  The
``serve.worker.slow`` fault site stalls the worker between take and
build, which is exactly how tests age a batch past its deadline
deterministically.

Graceful degradation: a blocked replica whose ``compiled`` bucket fails
at runtime rebuilds that bucket's engine on ``interpret`` and retries
the batch.  The transition increments ``serve.tier_degraded`` plus the
``serve.tier_degraded.compiled_to_interpret`` pair counter and records
the bucket in :attr:`EngineReplica.degraded_buckets`; a bucket already
on ``interpret`` propagates the failure.  A worker thread that dies (e.g.
an injected crash) is restarted by the server's supervisor -- its
batches are never lost because the crash boundary is between batches.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.gxm.inference import InferenceSession
from repro.jit.compile import resolve_execution_tier
from repro.jit.tiers import ExecutionTier
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience.faults import FaultInjector, InjectedFault
from repro.serve.admission import AdmissionQueue
from repro.serve.batcher import MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.request import InferenceRequest
from repro.serve.warmcache import StreamWarmCache

__all__ = ["EngineReplica", "ReplicaSlot", "SwapGate", "Worker"]


class SwapGate:
    """Readers-writer gate between batch execution and replica swaps.

    Workers hold the read side for the duration of one engine call;
    :meth:`~repro.serve.server.InferenceServer.reload_checkpoint` (and
    drain) take the write side, which waits for every in-flight batch
    and briefly holds new ones back.  Writers have priority so a steady
    request stream cannot starve a reload.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class ReplicaSlot:
    """One worker's view of "its" replica, indirected so the server can
    atomically repoint every slot at a shadow replica set during hot
    reload.  Plain attribute read/write under the :class:`SwapGate` --
    no lock of its own."""

    __slots__ = ("replica",)

    def __init__(self, replica: "EngineReplica"):
        self.replica = replica


class EngineReplica:
    """Every engine one worker thread needs, built once at boot."""

    def __init__(
        self,
        config: ServeConfig,
        warm_cache: StreamWarmCache | None = None,
        metrics=None,
        injector: FaultInjector | None = None,
    ):
        self.config = config
        self.metrics = metrics if metrics is not None else get_metrics()
        self.injector = injector
        self._warm_cache = warm_cache
        self._lock = threading.Lock()
        self._sessions: dict[int, InferenceSession] = {}
        self.warm_buckets: list[int] = []
        self.cold_buckets: list[int] = []
        #: buckets rebuilt on a lower tier after a runtime tier failure
        #: (graceful degradation, never silent)
        self.degraded_buckets: list[int] = []
        #: the tier each degraded bucket currently runs (buckets absent
        #: here run the configured tier)
        self._bucket_tier: dict = {}
        if config.engine == "fast":
            # one graph handles any leading dimension
            etg = config.build_etg(config.max_bucket)
            session = InferenceSession(etg).__enter__()
            for bucket in config.buckets:
                self._sessions[bucket] = session
            self.cold_buckets = list(config.buckets)
        else:
            for bucket in config.buckets:
                streams = warm_cache.get(bucket) if warm_cache else None
                etg = config.build_etg(bucket, conv_streams=streams)
                if streams is None:
                    self.cold_buckets.append(bucket)
                    if warm_cache is not None:
                        warm_cache.put(bucket, etg.conv_stream_state())
                else:
                    self.warm_buckets.append(bucket)
                self._sessions[bucket] = InferenceSession(etg).__enter__()

    def run(self, batch, bucket: int):
        """Probabilities for one ``(bucket, C, H, W)`` batch.

        A blocked-engine failure on ``compiled`` rebuilds the bucket on
        ``interpret`` and retries; a failure on ``interpret`` propagates.
        """
        if self.injector is not None:
            fault = self.injector.fire("serve.replica.run")
            if fault is not None and fault.kind == "tier_fail":
                return self._degrade_and_retry(
                    batch, bucket,
                    InjectedFault("injected compiled-tier failure"),
                )
        try:
            return self._sessions[bucket].predict(batch)
        except Exception as err:  # noqa: BLE001 -- degrade, don't die
            return self._degrade_and_retry(batch, bucket, err)

    def _current_tier(self, bucket: int):
        """The tier this bucket actually runs right now."""
        tier = self._bucket_tier.get(bucket)
        if tier is not None:
            return tier
        return resolve_execution_tier(self.config.execution_tier)

    def _degrade_and_retry(self, batch, bucket: int, err: BaseException):
        """Rebuild one bucket's engine on ``interpret``, the reference
        tier, and retry the batch there."""
        if self.config.engine != "blocked":
            raise err  # the fast engine has no tier to fall back to
        with self._lock:
            cur = self._current_tier(bucket)
            nxt = ExecutionTier.INTERPRET
            if cur == nxt:
                raise err  # already on the reference tier: genuine failure
            streams = (
                self._warm_cache.get(bucket)
                if self._warm_cache is not None
                else None
            )
            etg = self.config.build_etg(
                bucket,
                conv_streams=streams,
                execution_tier=nxt,
            )
            if self.config.checkpoint:
                from repro.gxm.checkpoint import load_checkpoint

                load_checkpoint(etg, self.config.checkpoint)
            old = self._sessions[bucket]
            self._sessions[bucket] = InferenceSession(etg).__enter__()
            old.__exit__(None, None, None)
            self._bucket_tier[bucket] = nxt
            if bucket not in self.degraded_buckets:
                self.degraded_buckets.append(bucket)
            self.metrics.inc("serve.tier_degraded")
            self.metrics.inc(f"serve.tier_degraded.{cur}_to_{nxt}")
            get_tracer().record(
                "serve.tier_degrade", bucket=bucket,
                frm=str(cur), to=str(nxt),
                error=f"{type(err).__name__}: {err}",
            )
        return self._sessions[bucket].predict(batch)

    def sessions(self) -> list[InferenceSession]:
        """Each distinct session exactly once (the fast replica maps
        every bucket to one)."""
        return list({id(s): s for s in self._sessions.values()}.values())

    def stream_state(self) -> dict[int, dict[str, list]]:
        """Per-bucket recorded forward streams, the payload a
        :class:`~repro.serve.warmcache.StreamWarmCache` rebuild wants
        after a hot reload (empty for the fast engine -- it records no
        streams)."""
        if self.config.engine != "blocked":
            return {}
        return {
            bucket: session.etg.conv_stream_state()
            for bucket, session in self._sessions.items()
        }

    def close(self) -> None:
        for session in self.sessions():
            session.__exit__(None, None, None)
        self._sessions.clear()


class Worker(threading.Thread):
    """Drains the admission queue: take -> pad -> run -> scatter."""

    def __init__(
        self,
        name: str,
        queue: AdmissionQueue,
        batcher: MicroBatcher,
        replica,
        batch_window_s: float,
        metrics=None,
        injector: FaultInjector | None = None,
        gate: SwapGate | None = None,
    ):
        super().__init__(name=name, daemon=True)
        self.queue = queue
        self.batcher = batcher
        #: indirection for hot reload; a bare replica is wrapped so
        #: standalone construction (tests, benchmarks) keeps working
        self.slot = (
            replica if isinstance(replica, ReplicaSlot)
            else ReplicaSlot(replica)
        )
        self.batch_window_s = batch_window_s
        self.metrics = metrics if metrics is not None else get_metrics()
        self.injector = injector
        self.gate = gate
        #: set when the thread exits because the queue closed (orderly);
        #: a dead thread without this flag crashed and may be restarted
        self.exited_cleanly = False

    @property
    def replica(self) -> EngineReplica:
        return self.slot.replica

    def run(self) -> None:
        try:
            self._drain()
            self.exited_cleanly = True
        except InjectedFault:
            # simulated crash: die between batches; the supervisor
            # restarts a replacement thread on the same replica
            self.metrics.inc("serve.worker_crashes")

    def _drain(self) -> None:
        metrics = self.metrics
        tracer = get_tracer()
        max_n = self.batcher.buckets[-1]
        while True:
            requests = self.queue.take(max_n, self.batch_window_s)
            if not requests:
                return  # queue closed and drained
            try:
                self._handle_batch(requests, metrics, tracer)
            finally:
                # acknowledge every taken request -- served, failed,
                # cancelled or expired -- so a drain's join() sees the
                # batch through even across an injected crash
                self.queue.task_done(len(requests))

    def _handle_batch(self, requests, metrics, tracer) -> None:
        live = [r for r in requests if not r.cancelled]
        if len(live) < len(requests):
            metrics.inc("serve.cancelled", len(requests) - len(live))
        if not live:
            return  # every submitter in the batch gave up waiting
        if self.injector is not None:
            fault = self.injector.fire("serve.worker.slow")
            if fault is not None and fault.kind == "slow":
                # stall between take and build: the deterministic way
                # to age a batch past its deadline
                time.sleep(fault.delay_s)
        # the pre-replay deadline check: a row that expired while
        # batching is failed here, and a fully-expired batch never
        # reaches the engine at all
        requests = self.batcher.drop_expired(live)
        if not requests:
            return
        try:
            self._serve_batch(requests, metrics, tracer)
        except BaseException as err:  # noqa: BLE001 -- fail, don't die
            metrics.inc("serve.errors")
            for req in requests:
                req._fail(err)
        if self.injector is not None:
            fault = self.injector.fire("serve.worker.crash")
            if fault is not None and fault.kind == "crash":
                raise InjectedFault(
                    f"injected crash of {self.name}"
                )

    def _run_gated(self, batch, bucket: int):
        """One engine call on the current replica, holding the swap
        gate's read side so a concurrent reload cannot close the replica
        out from under the replay."""
        if self.gate is None:
            return self.slot.replica.run(batch, bucket)
        with self.gate.read():
            return self.slot.replica.run(batch, bucket)

    def _serve_batch(
        self, requests: list[InferenceRequest], metrics, tracer
    ) -> None:
        batch, n, bucket = self.batcher.build(requests)
        t0 = time.perf_counter()
        if tracer.recording:
            # in the ring from the start, so a dump mid-batch shows it
            with tracer.record("serve.batch", bucket=bucket, n=n,
                               reqs=[r.id for r in requests]):
                probs = self._run_gated(batch, bucket)
        else:
            probs = self._run_gated(batch, bucket)
        # feed the admission controller's wait estimator
        self.queue.record_service(time.perf_counter() - t0, n)
        self.batcher.scatter(requests, probs)
        done = time.perf_counter()
        for req in requests:
            metrics.observe(
                "serve.latency_ms", (done - req.t_submit) * 1e3
            )
        metrics.inc("serve.batches")
        metrics.inc("serve.responses", n)
