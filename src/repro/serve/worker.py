"""The engine replica and the worker thread that drives it.

A replica is one complete set of forward-only engines for every
configured batch bucket, wrapped in entered
:class:`~repro.gxm.inference.InferenceSession` instances so BatchNorm
runs on its running statistics for the replica's whole lifetime.

Engine strategy per :class:`~repro.serve.config.ServeConfig`:

* ``fast`` -- batch size is just the leading dimension, so ONE graph
  serves every bucket.  This is the throughput engine (batching feeds
  BLAS bigger GEMMs).
* ``blocked`` -- kernel streams are recorded for a fixed minibatch, so
  the replica owns one graph *per bucket*, each recording its streams
  by its own dryrun when it is built (section II-H: the dryrun "has to
  be performed only once during the setup of the CNN layer").

Hot reload support: the worker runs each batch on its ``replica`` under
the shared :class:`SwapGate`'s read side.  The reload path takes the
write side to repoint the worker at the new replica, so a swap happens
only between batches -- never under a replay in flight -- and an
in-flight batch always finishes on the replica it started on.

Request lifecycle: expired requests are dropped (and failed with
:class:`~repro.serve.request.DeadlineExceeded`) immediately before the
batch is built, so a batch whose every row already missed its deadline
is **never replayed** -- the engine call is skipped entirely.  The
``serve.worker.slow`` fault site stalls the worker between take and
build, which is exactly how tests age a batch past its deadline
deterministically.

Graceful degradation: a blocked replica whose ``compiled`` bucket fails
at runtime rebuilds that bucket's engine on ``interpret`` (recording its
streams by dryrun, as at boot) and retries the batch.  The transition
increments ``serve.tier_degraded`` plus the
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

__all__ = ["EngineReplica", "SwapGate", "Worker"]


class SwapGate:
    """Readers-writer gate between batch execution and replica swaps.

    The worker holds the read side for the duration of one engine call;
    :meth:`~repro.serve.server.InferenceServer.reload_checkpoint`, drain
    and the supervisor's worker restart take the write side, which waits
    for the in-flight batch and briefly holds new ones back.  Writers
    have priority so a steady request stream cannot starve a reload.
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


class EngineReplica:
    """Every engine the worker thread needs, built once at boot (and
    once more per hot reload, as the shadow the canary runs on)."""

    def __init__(
        self,
        config: ServeConfig,
        metrics=None,
        injector: FaultInjector | None = None,
    ):
        self.config = config
        self.metrics = metrics if metrics is not None else get_metrics()
        self.injector = injector
        self._lock = threading.Lock()
        self._sessions: dict[int, InferenceSession] = {}
        #: buckets rebuilt on a lower tier after a runtime tier failure
        #: (graceful degradation, never silent)
        self.degraded_buckets: list[int] = []
        #: the tier each degraded bucket currently runs (buckets absent
        #: here run the configured tier)
        self._bucket_tier: dict = {}
        if config.engine == "fast":
            # one graph handles any leading dimension
            session = self._session(config.max_bucket)
            for bucket in config.buckets:
                self._sessions[bucket] = session
        else:
            for bucket in config.buckets:
                self._sessions[bucket] = self._session(bucket)

    def _session(self, bucket: int, **tier) -> InferenceSession:
        """An entered session over a graph sized for ``bucket`` (its
        blocked conv nodes record their streams by dryrun) holding the
        configured checkpoint's weights; ``execution_tier=`` overrides
        the configured tier."""
        etg = self.config.build_etg(bucket, **tier)
        if self.config.checkpoint:
            from repro.gxm.checkpoint import load_checkpoint

            load_checkpoint(etg, self.config.checkpoint)
        return InferenceSession(etg).__enter__()

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
            old = self._sessions[bucket]
            self._sessions[bucket] = self._session(
                bucket, execution_tier=nxt
            )
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

    def close(self) -> None:
        # each distinct session once: the fast replica maps every
        # bucket to one
        for session in {id(s): s for s in self._sessions.values()}.values():
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
        #: repointed by a hot reload under the gate's write side
        self.replica = replica
        self.batch_window_s = batch_window_s
        self.metrics = metrics if metrics is not None else get_metrics()
        self.injector = injector
        self.gate = gate
        #: set when the thread exits because the queue closed (orderly);
        #: a dead thread without this flag crashed and may be restarted
        self.exited_cleanly = False

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
            return self.replica.run(batch, bucket)
        with self.gate.read():
            return self.replica.run(batch, bucket)

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
