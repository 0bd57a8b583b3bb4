"""Multi-process serving fleet: N ``InferenceServer`` replicas behind a
router.

One :class:`~repro.serve.server.InferenceServer` is GIL-bound: its
worker threads interleave on a single core no matter how fast a single
replay is.  The fleet escapes the GIL the same way the paper escapes a
single SIMD lane -- explicit partitioning: ``replicas`` full server
*processes*, each owning its own admission queue, batcher, worker
threads and engines, fronted by a parent-side :class:`~repro.serve
.router.Router` doing power-of-two-choices dispatch fed by each
replica's ``health()``.

Data plane
    Tensor payloads ride the :class:`~repro.serve.shm.TensorShm` ring:
    the submitting thread writes the image into a leased slot, the
    control pipe carries a few integers, the replica answers into the
    same slot, and the parent reader verifies the generation tag before
    trusting the bytes.  The router itself never touches payloads --
    ``serve.router.bytes_copied`` stays 0 on this path.  When the ring
    is exhausted the payload falls back to pickling through the pipe
    (counted, never an error).

Warm boot
    The parent loads and digest-verifies the stream bundle **once**,
    packs every offset array into a :class:`~repro.serve.shm
    .ShmArrayStore`, and forks.  Each child rebuilds zero-copy
    read-only ``FrozenStream`` views over the same physical pages -- no
    per-replica re-verify, no per-replica deserialize -- and reports
    its ``serve.boot.warm_ms`` so the 1/2/4/8 sweep can show boot cost
    staying flat.

Supervision
    A supervisor thread polls replica health over the control pipe.  A
    dead process (crash, SIGKILL) or a hung one (consecutive missed
    health polls) is detected, its outstanding requests are rerouted to
    surviving replicas (their shm slots reclaimed via generation bump,
    so nothing leaks and no stale write can satisfy another request),
    and the replica is respawned from the same shared warm store with
    bounded exponential backoff.

Fleet lifecycle
    ``drain``/``resume`` roll the PR 5 primitives across replicas;
    ``reload_checkpoint`` canaries the new weights on **one** replica
    first (the rest keep serving old weights), rolls the remainder only
    after the canary passes, and rolls nothing back mid-request: every
    request is pinned to a single replica whose own swap is atomic, so
    no answer ever mixes weights.  ``health()`` aggregates per-replica
    status for ``/healthz``.

The fleet quacks like an ``InferenceServer`` (``submit`` / ``predict``
/ ``drain`` / ``resume`` / ``reload_checkpoint`` / ``health`` /
``stats`` / ``metrics`` / ``config``), so ``serve_http``, ``ServeClient``
and ``loadgen`` drive it unchanged; ``routes_replicas = True`` is the
capability flag the client uses to hedge onto a *different* replica.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import signal
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.forensics.bundle import IncidentWriter
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.tracer import get_tracer
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.serve.config import ServeConfig
from repro.serve.request import (
    DeadlineExceeded,
    InferenceRequest,
    RequestShed,
    ServerClosed,
)
from repro.serve.router import Router
from repro.serve.server import LifecycleBusy, _config_doc
from repro.serve.shm import ShmArrayStore, SlotCorruption, TensorShm
from repro.serve.warmcache import StreamWarmCache
from repro.streams.serialize import StaleArtifactError
from repro.streams.stream import FrozenStream
from repro.types import ReproError, ShapeError

__all__ = ["InferenceFleet", "ReplicaHandle"]

#: supervisor tick (liveness scan); health polls ride every Nth tick
_SUPERVISE_S = 0.01
#: respawn backoff: base * 2**restarts, capped
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0
#: how long a replica reaper waits on one request before giving up on it
_REAPER_TIMEOUT_S = 60.0
#: fields of a FrozenStream, in bundle order (mirrors streams.serialize)
_STREAM_FIELDS = ("kinds", "i_off", "w_off", "o_off", "apply_op")

_ETYPES = {
    "RequestShed": RequestShed,
    "ServerClosed": ServerClosed,
    "DeadlineExceeded": DeadlineExceeded,
    "ShapeError": ShapeError,
    "SlotCorruption": SlotCorruption,
    "TimeoutError": TimeoutError,
}

#: error classes a reroute may retry on a different replica: the replica
#: refused the request without computing anything, so re-dispatching is
#: side-effect free
_REROUTABLE = ("RequestShed", "ServerClosed")


def _map_error(etype: str, msg: str) -> BaseException:
    """Rebuild a typed exception from a child's ``(etype, msg)`` reply."""
    if etype == "CanaryError":
        from repro.serve.server import CanaryError

        return CanaryError(msg)
    cls = _ETYPES.get(etype)
    if cls is not None:
        return cls(msg)
    return ReproError(f"replica error {etype}: {msg}")


def _reinit_shared_locks() -> None:
    """Make process-wide locks sane in a freshly forked child.

    Respawns fork while parent threads are live, so the child can
    inherit the metrics-registry or kernel-cache lock in a *held* state
    with no owner left to release it.  Both protect pure-Python dicts,
    so replacing the lock object in the child is safe."""
    from repro.jit.kernel_cache import get_default_cache
    from repro.obs.metrics import get_metrics

    get_metrics()._lock = threading.Lock()
    get_default_cache()._lock = threading.RLock()


# ----------------------------------------------------------------------
# child process
# ----------------------------------------------------------------------

def _rebuild_warm_cache(config, warm) -> StreamWarmCache:
    """Reconstruct a verified warm cache from the parent's shared store.

    ``warm`` is ``{"store", "index"}``: the parent
    already digest-verified the bundle, so the child only rebuilds
    zero-copy read-only views -- no load, no verify, no copy."""
    cache = StreamWarmCache(config.fingerprint())
    if warm is None:
        return cache
    store: ShmArrayStore = warm["store"]
    for bucket, nodes in warm["index"].items():
        by_node = {}
        for node, n_streams in nodes.items():
            by_node[node] = [
                FrozenStream(**{
                    field: store.get(f"{bucket}/{node}/{i}/{field}")
                    for field in _STREAM_FIELDS
                })
                for i in range(n_streams)
            ]
        cache.put(bucket, by_node)
    return cache


def _replica_main(
    replica_id: int,
    config: ServeConfig,
    conn,
    shm: TensorShm,
    warm,
    plan: FaultPlan | None,
) -> None:
    """Child entry: boot one ``InferenceServer`` and serve the pipe.

    The main loop only ever blocks on ``conn.recv`` -- request
    completions are harvested by reaper threads -- so health polls are
    answered promptly unless the process is genuinely hung or dead,
    which is exactly what the parent's hang detection should see."""
    _reinit_shared_locks()
    # the fork copied the parent's tracer state and records: start an
    # empty ring, drained back to the parent through the stats op
    get_tracer().clear()
    from repro.serve.server import CanaryError, InferenceServer

    injector = FaultInjector(plan) if plan is not None else None
    t0 = time.perf_counter()
    server = InferenceServer(config, fault_injector=injector)
    server.warm_cache = _rebuild_warm_cache(config, warm)
    # engines must see the pre-populated cache, so swap it in pre-start
    try:
        boot = server.start()
    except BaseException as err:  # boot failure: report, don't hang boot
        try:
            conn.send({
                "kind": "boot", "ok": False,
                "error": f"{type(err).__name__}: {err}",
            })
        except OSError:
            pass
        os._exit(17)
    warm_ms = (time.perf_counter() - t0) * 1e3
    server.metrics.set_gauge("serve.boot.warm_ms", warm_ms)

    send_lock = threading.Lock()

    def send(msg: dict) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):  # parent gone: shutting down
                pass

    send({
        "kind": "boot", "ok": True, "pid": os.getpid(),
        "warm_ms": warm_ms, "boot": boot,
    })

    import queue as _queue

    pending: _queue.Queue = _queue.Queue()

    def reaper() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            msg, req = item
            try:
                probs = req.result(timeout=_REAPER_TIMEOUT_S)
            except BaseException as err:
                send({
                    "kind": "fail", "req": msg["req"],
                    "etype": type(err).__name__, "msg": str(err),
                })
                continue
            slot = msg.get("slot")
            if slot is None:
                send({"kind": "done", "req": msg["req"], "payload": probs})
                continue
            if injector is not None:
                fault = injector.fire("fleet.replica.reply", rank=replica_id)
                if fault is not None and fault.kind == "corrupt_message":
                    # scribble the slot's generation header: the parent
                    # must refuse the payload and fail only this request
                    shm.write_header(slot, msg["gen"] + 0xBAD)
            out = shm.response_view(slot)
            out[:] = probs
            send({
                "kind": "done", "req": msg["req"],
                "slot": slot, "gen": msg["gen"],
            })

    reapers = [
        threading.Thread(target=reaper, name=f"fleet-reaper-{i}",
                         daemon=True)
        for i in range(max(2, config.workers + 1))
    ]
    for t in reapers:
        t.start()

    def rep(op_id, ok: bool, payload=None, etype="", msg_="") -> None:
        send({
            "kind": "rep", "id": op_id, "ok": ok,
            "payload": payload, "etype": etype, "msg": msg_,
        })

    def push_health() -> None:
        try:
            h = server.health()
            h["replica_id"] = replica_id
            replicas = server._replicas
            h["bucket_tiers"] = (
                replicas[0].bucket_tiers() if replicas else {}
            )
            send({"kind": "health", "payload": h})
        except Exception:  # never let a health report kill the loop
            pass

    def handle_op(op_id, fn) -> None:
        try:
            reply = (True, fn(), "", "")
        except BaseException as err:
            reply = (False, None, type(err).__name__, str(err))
        # sent ahead of the reply on the same pipe, so when the parent's
        # call returns its cached health already shows the outcome (a
        # poll answered mid-drain would otherwise linger until the next)
        push_health()
        rep(op_id, *reply)

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg.get("op")
            if op == "stop":
                break
            if op == "predict":
                if injector is not None:
                    fault = injector.fire("fleet.replica.predict", rank=replica_id)
                    if fault is not None:
                        if fault.kind == "crash":
                            os._exit(23)
                        if fault.kind == "hang":
                            # stalls the recv loop: health polls go
                            # unanswered, which is what a real hang does
                            time.sleep(fault.delay_s)
                slot = msg.get("slot")
                x = (
                    shm.request_view(slot) if slot is not None
                    else msg["payload"]
                )
                deadline = (
                    time.perf_counter() + msg["deadline_ms"] / 1e3
                    if msg.get("deadline_ms") is not None
                    else None
                )
                try:
                    req = server.submit(x, deadline=deadline)
                except BaseException as err:
                    send({
                        "kind": "fail", "req": msg["req"],
                        "etype": type(err).__name__, "msg": str(err),
                    })
                else:
                    pending.put((msg, req))
            elif op == "poll":
                push_health()
            elif op == "stats":
                handle_op(msg["id"], lambda: {
                    "stats": server.stats(),
                    "snapshot": server.metrics.snapshot(),
                    "events": get_tracer().export_events(clear=True),
                })
            elif op == "drain":
                handle_op(
                    msg["id"], lambda: server.drain(msg["timeout_s"])
                )
            elif op == "resume":
                handle_op(msg["id"], server.resume)
            elif op == "reload":
                handle_op(msg["id"], lambda: server.reload_checkpoint(
                    msg["path"], canary_seed=msg["canary_seed"]
                ))
    finally:
        for _ in reapers:
            pending.put(None)
        try:
            server.stop()
        except BaseException:
            pass
        try:
            conn.close()
        except OSError:
            pass
        # skip inherited atexit/mp cleanup meant for the parent
        os._exit(0)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

class _Dispatch:
    """Parent-side record of one request sent to one replica."""

    __slots__ = ("req", "lease", "attempts")

    def __init__(self, req, lease, attempts: int):
        self.req = req
        self.lease = lease
        self.attempts = attempts


class ReplicaHandle:
    """Parent-side view of one replica process: pipe, process handle,
    outstanding dispatches, and the last health report (the router's
    balancing inputs)."""

    def __init__(self, replica_id: int):
        self.id = replica_id
        self.proc = None
        self.conn = None
        self.reader: threading.Thread | None = None
        #: "init" -> "booting" -> "up" | "reloading" | "down"
        self.state = "init"
        self.lock = threading.Lock()
        self.send_lock = threading.Lock()
        self.outstanding: dict[int, _Dispatch] = {}
        self.boot_event = threading.Event()
        self.boot_error: str | None = None
        self.boot: dict = {}
        self.warm_ms: float | None = None
        self.pid: int | None = None
        self.restarts = 0
        # router inputs, refreshed by health polls and admin-op replies
        self.est_wait_ms = 0.0
        self.queue_depth = 0
        self.degraded_buckets: tuple = ()
        self.bucket_tiers: dict = {}
        self.health: dict = {}
        self.missed_polls = 0

    @property
    def available(self) -> bool:
        return self.state == "up"

    @property
    def outstanding_count(self) -> int:
        return len(self.outstanding)

    def summary(self) -> dict:
        return {
            "id": self.id,
            "state": self.state,
            "pid": self.pid,
            "restarts": self.restarts,
            "outstanding": self.outstanding_count,
            "est_wait_ms": self.est_wait_ms,
            "queue_depth": self.queue_depth,
            "degraded_buckets": list(self.degraded_buckets),
            "warm_ms": self.warm_ms,
            "status": self.health.get("status"),
            "checkpoint": self.health.get("checkpoint"),
        }


class InferenceFleet:
    """N server processes + router + shared-memory tensor transport.

    Duck-types the ``InferenceServer`` surface so the HTTP front end,
    ``ServeClient`` and ``loadgen`` work unchanged against a fleet.

    ``hang_polls``: consecutive unanswered health polls before a replica
    is declared hung and SIGKILLed (the crash path then respawns it).
    """

    #: capability flag: ``ServeClient`` hedges to a different replica
    routes_replicas = True

    def __init__(
        self,
        config: ServeConfig,
        replicas: int = 2,
        fault_plan: FaultPlan | None = None,
        shm_slots: int | None = None,
        health_period_ms: float = 25.0,
        hang_polls: int = 40,
        max_respawns: int = 8,
        seed: int = 0,
    ):
        if replicas < 1:
            raise ReproError(f"fleet needs >= 1 replica, got {replicas}")
        self.config = config
        self.replicas = int(replicas)
        self.fault_plan = fault_plan
        self.metrics = MetricsRegistry()
        self._health_period_s = health_period_ms / 1e3
        self._hang_polls = int(hang_polls)
        self.max_respawns = int(max_respawns)
        if shm_slots is None:
            shm_slots = max(64, 4 * self.replicas * config.max_bucket)
        self._shm_slots = int(shm_slots)
        self._handles = [ReplicaHandle(i) for i in range(self.replicas)]
        self._router = Router(self._handles, self.metrics, seed=seed)
        self._shm: TensorShm | None = None
        self._warm: dict | None = None
        self._warm_store: ShmArrayStore | None = None
        self._mail: dict[int, list] = {}
        self._op_ids = itertools.count()
        self._supervisor: threading.Thread | None = None
        self._stopping = threading.Event()
        self._lifecycle = threading.Lock()
        if config.incident_dir:
            get_tracer().enable("events")
        self._incidents = IncidentWriter(config.incident_dir)
        self.boot_stats: dict = {}
        self._started = False
        self._draining = False
        try:
            self._ctx = mp.get_context("fork")
        except ValueError as err:  # pragma: no cover -- non-POSIX
            raise ReproError(
                "the serving fleet requires the fork start method "
                f"(unavailable on this platform: {err})"
            ) from err

    # -- boot ----------------------------------------------------------
    def _pack_warm(self, streams_artifact) -> str | None:
        """Load + verify the stream bundle once; pack it into shared
        memory for every replica.  Returns the rejection message when
        the artifact is stale/corrupt (replicas then cold-boot)."""
        cache = StreamWarmCache(self.config.fingerprint())
        try:
            cache.load(streams_artifact)
        except StaleArtifactError as err:
            self.metrics.inc("serve.artifact_rejected")
            return str(err)
        arrays: dict[str, np.ndarray] = {}
        index: dict[int, dict[str, int]] = {}
        for bucket in cache.buckets:
            by_node = cache.get(bucket) or {}
            index[bucket] = {}
            for node, streams in by_node.items():
                index[bucket][node] = len(streams)
                for i, stream in enumerate(streams):
                    for field in _STREAM_FIELDS:
                        arrays[f"{bucket}/{node}/{i}/{field}"] = getattr(
                            stream, field
                        )
        self._warm_store = ShmArrayStore.from_arrays(arrays)
        self._warm = {"store": self._warm_store, "index": index}
        self.metrics.set_gauge(
            "serve.fleet.warm_shared_bytes", self._warm_store.nbytes
        )
        return None

    def start(self, streams_artifact=None) -> dict:
        """Boot every replica; returns fleet boot stats.

        ``streams_artifact`` is loaded and digest-verified exactly once
        in the parent; replicas rebuild read-only views over shared
        pages (a stale artifact is rejected here and every replica
        cold-boots, mirroring single-server semantics)."""
        if self._started:
            raise ReproError("fleet already started")
        t0 = time.perf_counter()
        artifact_error: str | None = None
        if streams_artifact is not None:
            if self.config.engine != "blocked":
                raise ReproError(
                    "stream warm-start applies only to the blocked engine"
                )
            artifact_error = self._pack_warm(streams_artifact)
        self._shm = TensorShm(
            self._shm_slots,
            request_shape=self.config.input_shape,
            response_shape=(self.config.num_classes,),
        )
        self._stopping.clear()
        for handle in self._handles:
            self._spawn(handle)
        deadline = time.monotonic() + 120.0
        for handle in self._handles:
            if not handle.boot_event.wait(max(0.0, deadline - time.monotonic())):
                self.stop()
                raise ReproError(
                    f"fleet replica {handle.id} did not boot in time"
                )
            if handle.boot_error is not None:
                err = handle.boot_error
                self.stop()
                raise ReproError(
                    f"fleet replica {handle.id} failed to boot: {err}"
                )
        self._supervisor = threading.Thread(
            target=self._supervise, name="fleet-supervisor", daemon=True
        )
        self._started = True
        self._supervisor.start()
        boot_s = time.perf_counter() - t0
        warm_ms = {h.id: h.warm_ms for h in self._handles}
        for h in self._handles:
            if h.warm_ms is not None:
                self.metrics.set_gauge(
                    f"serve.boot.warm_ms.r{h.id}", h.warm_ms
                )
        self.boot_stats = {
            "boot_s": boot_s,
            "engine": self.config.engine,
            "replicas": self.replicas,
            "warm_ms": warm_ms,
            "bundle_verified_once": self._warm is not None,
            "bundle_shared_bytes": (
                self._warm_store.nbytes if self._warm_store else 0
            ),
            "shm": self._shm.stats(),
            "per_replica": {h.id: dict(h.boot) for h in self._handles},
        }
        if artifact_error is not None:
            self.boot_stats["artifact_error"] = artifact_error
        self.metrics.set_gauge("serve.boot_s", boot_s)
        return self.boot_stats

    def _spawn(self, handle: ReplicaHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        handle.conn = parent_conn
        handle.state = "booting"
        handle.boot_event.clear()
        handle.boot_error = None
        handle.missed_polls = 0
        handle.proc = self._ctx.Process(
            target=_replica_main,
            name=f"fleet-replica-{handle.id}",
            args=(
                handle.id, self.config, child_conn, self._shm,
                self._warm, self.fault_plan,
            ),
            daemon=True,
        )
        handle.proc.start()
        child_conn.close()
        handle.reader = threading.Thread(
            target=self._read_loop, args=(handle,),
            name=f"fleet-reader-{handle.id}", daemon=True,
        )
        handle.reader.start()

    # -- reader: one thread per replica pipe ---------------------------
    def _read_loop(self, handle: ReplicaHandle) -> None:
        conn = handle.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            handle.missed_polls = 0
            kind = msg.get("kind")
            if kind == "done":
                self._on_done(handle, msg)
            elif kind == "fail":
                self._on_fail(handle, msg)
            elif kind == "health":
                self._on_health(handle, msg["payload"])
            elif kind == "rep":
                entry = self._mail.get(msg["id"])
                if entry is not None:
                    entry[1] = msg
                    entry[0].set()
            elif kind == "boot":
                if msg.get("ok"):
                    handle.pid = msg["pid"]
                    handle.warm_ms = msg["warm_ms"]
                    handle.boot = msg["boot"]
                    handle.state = "up"
                else:
                    handle.boot_error = msg.get("error", "boot failed")
                    handle.state = "down"
                handle.boot_event.set()

    def _pop_dispatch(self, handle: ReplicaHandle, req_id) -> _Dispatch | None:
        with handle.lock:
            return handle.outstanding.pop(req_id, None)

    def _on_done(self, handle: ReplicaHandle, msg: dict) -> None:
        disp = self._pop_dispatch(handle, msg["req"])
        if disp is None:  # already failed/rerouted by the crash path
            return
        if disp.lease is None:
            disp.req._resolve(np.asarray(msg["payload"], dtype=np.float32))
            return
        try:
            self._shm.check(disp.lease, msg["gen"])
        except SlotCorruption as err:
            self.metrics.inc("serve.fleet.shm_corruption")
            # capture BEFORE reclaim: the request region (written only
            # by the parent) is still intact; reclaim returns the slot
            # to the ring and a new lease could overwrite it
            self._capture_slot_incident(handle, disp, err)
            self._shm.reclaim(disp.lease)
            disp.req._fail(err)
            return
        probs = np.array(
            self._shm.response_view(disp.lease.slot), dtype=np.float32
        )
        self._shm.release(disp.lease)
        disp.req._resolve(probs)

    def _capture_slot_incident(
        self, handle: ReplicaHandle, disp: _Dispatch, err: SlotCorruption
    ) -> None:
        """Freeze the corrupted exchange into an incident bundle.

        Runs on the reader thread, so it must not round-trip on any
        replica pipe: the failing request tensor is read back from the
        slot's *request* region (the replica scribbled the header, the
        parent-written request bytes are intact) and only the parent's
        ring rides along."""
        if not self._incidents.enabled:
            return
        get_tracer().record(
            "fleet.slot_corruption", replica=handle.id,
            slot=disp.lease.slot, req=disp.req.id,
        )
        x = np.array(
            self._shm.request_view(disp.lease.slot), dtype=np.float32
        )
        self._incidents.capture(
            "serve",
            error=err,
            replay={"mode": "serve", "bucket": int(self.config.buckets[0])},
            config=_config_doc(self.config),
            config_fingerprint=self.config.fingerprint(),
            fault_plan=self.fault_plan,
            tensors={"x": x[None]},
            extra={
                "trigger": "slot_corruption",
                "replica": handle.id,
                "slot": disp.lease.slot,
                "restarts": handle.restarts,
            },
        )

    def _on_fail(self, handle: ReplicaHandle, msg: dict) -> None:
        disp = self._pop_dispatch(handle, msg["req"])
        if disp is None:
            return
        if disp.lease is not None:
            self._shm.release(disp.lease)
        err = _map_error(msg["etype"], msg["msg"])
        if (
            msg["etype"] in _REROUTABLE
            and disp.attempts < self.replicas
            and not disp.req.expired
            and not self._stopping.is_set()
            and not self._draining
        ):
            try:
                self._router.note_reroute()
                self._dispatch(
                    disp.req, attempts=disp.attempts, exclude=handle.id
                )
                return
            except BaseException as redisp_err:
                err = redisp_err
        disp.req._fail(err)

    def _on_health(self, handle: ReplicaHandle, payload: dict) -> None:
        handle.health = payload
        handle.est_wait_ms = float(payload.get("estimated_wait_ms", 0.0))
        handle.queue_depth = int(payload.get("queue_depth", 0))
        handle.degraded_buckets = tuple(
            payload.get("degraded_buckets", ())
        )
        handle.bucket_tiers = payload.get("bucket_tiers", {})

    # -- supervisor: liveness, hang detection, respawn -----------------
    def _supervise(self) -> None:
        next_poll = time.monotonic()
        while not self._stopping.wait(_SUPERVISE_S):
            poll_due = time.monotonic() >= next_poll
            if poll_due:
                next_poll = time.monotonic() + self._health_period_s
            for handle in self._handles:
                proc = handle.proc
                if handle.state in ("init", "down") or proc is None:
                    continue
                if not proc.is_alive():
                    self._on_replica_death(handle)
                    continue
                if handle.state != "up" or not poll_due:
                    continue
                if handle.missed_polls >= self._hang_polls:
                    self.metrics.inc("serve.fleet.hung_killed")
                    try:
                        os.kill(proc.pid, signal.SIGKILL)
                    except (ProcessLookupError, OSError):
                        pass
                    continue  # death handled on a later tick
                handle.missed_polls += 1
                try:
                    with handle.send_lock:
                        handle.conn.send({"op": "poll"})
                except (BrokenPipeError, OSError):
                    pass  # liveness check will catch it

    def _on_replica_death(self, handle: ReplicaHandle) -> None:
        with handle.lock:
            if handle.state == "down":
                return
            handle.state = "down"
            orphans = list(handle.outstanding.values())
            handle.outstanding.clear()
        self.metrics.inc("serve.fleet.replica_crashes")
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.reader is not None:
            handle.reader.join(timeout=5.0)
        handle.proc.join(timeout=5.0)
        for disp in orphans:
            if disp.lease is not None:
                # generation bump: the slot returns to the ring and any
                # late write from the dead replica is detectable garbage
                self._shm.reclaim(disp.lease)
                disp.lease = None
            if disp.req.done:
                continue
            if disp.req.expired:
                disp.req._fail(DeadlineExceeded(
                    "deadline passed while replica was being replaced"
                ))
                continue
            try:
                self._router.note_reroute()
                self._dispatch(
                    disp.req, attempts=disp.attempts, exclude=handle.id
                )
            except BaseException as err:
                disp.req._fail(err)
        if self._stopping.is_set():
            return
        if handle.restarts >= self.max_respawns:
            self.metrics.inc("serve.fleet.respawns_exhausted")
            return
        delay = min(
            _BACKOFF_BASE_S * (2 ** handle.restarts), _BACKOFF_CAP_S
        )
        if self._stopping.wait(delay):
            return
        handle.restarts += 1
        self.metrics.inc("serve.fleet.respawns")
        self._spawn(handle)

    # -- dispatch ------------------------------------------------------
    def _dispatch(
        self,
        req: InferenceRequest,
        attempts: int = 0,
        exclude: int | None = None,
    ) -> None:
        """Route one request: pick a replica, lease a slot, write the
        tensor, send the control message.  Retries the pick when a
        replica dies between pick and send."""
        lease = self._shm.acquire(timeout_s=0.0)
        if lease is not None:
            self._shm.request_view(lease.slot)[:] = req.x
        else:
            self._router.note_copy(req.x.nbytes)
        last_err: BaseException | None = None
        for _ in range(self.replicas):
            try:
                handle = self._router.pick(exclude=exclude)
            except RequestShed:
                if lease is not None:
                    self._shm.release(lease)
                raise
            disp = _Dispatch(req, lease, attempts + 1)
            with handle.lock:
                if handle.state != "up":  # died between pick and lock
                    exclude = handle.id
                    continue
                handle.outstanding[req.id] = disp
            req.replica_id = handle.id
            msg = {
                "op": "predict", "req": req.id,
                "slot": lease.slot if lease is not None else None,
                "gen": lease.generation if lease is not None else None,
                "payload": req.x if lease is None else None,
                "deadline_ms": (
                    max(0.0, req.remaining_s()) * 1e3
                    if req.deadline is not None else None
                ),
            }
            try:
                with handle.send_lock:
                    handle.conn.send(msg)
                return
            except (BrokenPipeError, OSError) as err:
                # picked a corpse: undo, exclude it, try another
                self._pop_dispatch(handle, req.id)
                last_err = err
                exclude = handle.id
        if lease is not None:
            self._shm.release(lease)
        raise RequestShed(
            f"no fleet replica accepted the request ({last_err})"
        )

    # -- InferenceServer surface ---------------------------------------
    def submit(
        self,
        x: np.ndarray,
        deadline: float | None = None,
        exclude_replica: int | None = None,
    ) -> InferenceRequest:
        """Admit one image into the fleet; returns the pending request.

        ``exclude_replica`` keeps a hedged backup off the primary's
        replica (soft: a lone survivor still serves)."""
        if not self._started:
            raise ServerClosed("fleet not started")
        if self._draining:
            raise ServerClosed("fleet is draining")
        x = np.asarray(x, dtype=np.float32)
        if x.shape != self.config.input_shape:
            raise ShapeError(
                f"request shape {x.shape} != configured "
                f"{self.config.input_shape}"
            )
        req = InferenceRequest(x, deadline=deadline)
        self._dispatch(req, attempts=0, exclude=exclude_replica)
        return req

    def predict(
        self,
        x: np.ndarray,
        timeout: float | None = 30.0,
        deadline: float | None = None,
    ) -> np.ndarray:
        return self.submit(x, deadline=deadline).result(timeout)

    # -- admin ops over the pipe ---------------------------------------
    def _call(self, handle: ReplicaHandle, msg: dict, timeout: float):
        op_id = next(self._op_ids)
        event = threading.Event()
        self._mail[op_id] = [event, None]
        msg = dict(msg, id=op_id)
        try:
            with handle.send_lock:
                handle.conn.send(msg)
        except (BrokenPipeError, OSError) as err:
            self._mail.pop(op_id, None)
            raise ReproError(
                f"replica {handle.id} unreachable for {msg['op']}: {err}"
            ) from err
        if not event.wait(timeout):
            self._mail.pop(op_id, None)
            raise ReproError(
                f"replica {handle.id} did not answer {msg['op']} "
                f"within {timeout:.1f}s"
            )
        reply = self._mail.pop(op_id)[1]
        if reply["ok"]:
            return reply["payload"]
        raise _map_error(reply["etype"], reply["msg"])

    def _up_handles(self) -> list[ReplicaHandle]:
        return [h for h in self._handles if h.state == "up"]

    @contextmanager
    def _lifecycle_op(self, name: str):
        """Serialize fleet lifecycle operations; a second one arriving
        while one is in flight is refused with :class:`LifecycleBusy`
        (HTTP 409) instead of queueing behind it and interleaving its
        per-replica rollout with the running one's."""
        if not self._lifecycle.acquire(blocking=False):
            raise LifecycleBusy(
                f"another fleet lifecycle operation is in flight; "
                f"retry {name} after it completes"
            )
        try:
            get_tracer().record(f"fleet.{name}")
            yield
        finally:
            self._lifecycle.release()

    def drain(self, timeout_s: float = 30.0) -> dict:
        """Rolling drain: stop fleet admission, then quiesce each
        replica in turn.  Outstanding dispatches finish normally."""
        if not self._started:
            raise ServerClosed("fleet not started")
        with self._lifecycle_op("drain"):
            if self._draining:
                raise ReproError("fleet already draining")
            self._draining = True
            reports = {}
            for handle in self._up_handles():
                reports[handle.id] = self._call(
                    handle, {"op": "drain", "timeout_s": timeout_s},
                    timeout=timeout_s + 10.0,
                )
            self.metrics.inc("serve.fleet.drains")
            return {
                "drained_replicas": sorted(reports),
                "per_replica": reports,
            }

    def resume(self) -> dict:
        if not self._started:
            raise ServerClosed("fleet not started")
        with self._lifecycle_op("resume"):
            if not self._draining:
                raise ReproError("fleet is not draining")
            reports = {}
            for handle in self._up_handles():
                reports[handle.id] = self._call(
                    handle, {"op": "resume"}, timeout=30.0
                )
            self._draining = False
            return {
                "resumed_replicas": sorted(reports),
                "per_replica": reports,
            }

    def reload_checkpoint(self, path: str, canary_seed: int = 0) -> dict:
        """Rolling reload with a per-replica canary.

        One replica reloads first (inside it, PR 5's shadow-build +
        numerics canary + atomic slot swap runs as usual); only when it
        passes do the remaining replicas roll, one at a time, each
        routed around while swapping.  A canary failure rolls back that
        one replica (its server already restored old weights) and
        leaves the rest untouched -- the fleet keeps serving old
        weights uniformly.  Requests never mix weights: each is pinned
        to one replica whose swap is atomic."""
        if not self._started:
            raise ServerClosed("fleet not started")
        with self._lifecycle_op("reload"):
            ups = self._up_handles()
            if not ups:
                raise ServerClosed("no live replica to reload")
            canary, rest = ups[0], ups[1:]
            canary.state = "reloading"
            try:
                reports = {canary.id: self._call(
                    canary,
                    {"op": "reload", "path": path,
                     "canary_seed": canary_seed},
                    timeout=120.0,
                )}
            except BaseException:
                self.metrics.inc("serve.fleet.reload_rollbacks")
                raise
            finally:
                canary.state = "up"
            for handle in rest:
                handle.state = "reloading"
                try:
                    reports[handle.id] = self._call(
                        handle,
                        {"op": "reload", "path": path,
                         "canary_seed": canary_seed},
                        timeout=120.0,
                    )
                except BaseException as err:
                    self.metrics.inc("serve.fleet.reload_partial")
                    raise ReproError(
                        f"rolling reload failed at replica {handle.id} "
                        f"after canary passed: {err}"
                    ) from err
                finally:
                    handle.state = "up"
            self.metrics.inc("serve.fleet.reloads")
            return {
                "checkpoint": path,
                "canary_replica": canary.id,
                "reloaded_replicas": sorted(reports),
                "per_replica": reports,
            }

    # -- health / stats ------------------------------------------------
    def health(self) -> dict:
        """Aggregated ``/healthz`` payload: fleet status plus the last
        health report each replica pushed (no blocking pipe calls)."""
        live = self._up_handles()
        replica_degraded = any(
            h.health.get("status") not in (None, "ok") for h in live
        )
        if not self._started or not live:
            status = "down"
        elif (
            len(live) < self.replicas
            or replica_degraded
            or self._draining
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "started": self._started,
            "draining": self._draining,
            "replicas": self.replicas,
            "live_replicas": len(live),
            "respawns": self.metrics.value("serve.fleet.respawns"),
            "replica_crashes": self.metrics.value(
                "serve.fleet.replica_crashes"
            ),
            "estimated_wait_ms": min(
                (h.est_wait_ms for h in live), default=0.0
            ),
            "queue_depth": sum(h.queue_depth for h in live),
            "degraded_buckets": sorted(
                {b for h in live for b in h.degraded_buckets}
            ),
            "checkpoint": self.config.checkpoint,
            "per_replica": {h.id: h.summary() for h in self._handles},
            "router": self._router.stats(),
            "shm": self._shm.stats() if self._shm else {},
        }

    def stats(self) -> dict:
        """Fleet SLO snapshot: parent-side counters, router + shm
        stats, per-replica server stats fetched live, and the merged
        cross-replica metrics view."""
        per_replica = {}
        snapshots = []
        for handle in self._up_handles():
            try:
                payload = self._call(handle, {"op": "stats"}, timeout=30.0)
            except ReproError:
                continue
            per_replica[handle.id] = payload["stats"]
            snapshots.append(payload["snapshot"])
            # the replica's records drain into the parent's ring,
            # tagged with the replica's pid
            get_tracer().ingest(payload["events"], pid=handle.pid)
        return {
            "counters": self.metrics.counters(),
            "gauges": self.metrics.gauges(),
            "replicas": self.replicas,
            "router": self._router.stats(),
            "shm": self._shm.stats() if self._shm else {},
            "boot": dict(self.boot_stats),
            "merged": merge_snapshots(snapshots),
            "per_replica": per_replica,
            "health": self.health(),
        }

    def dump_incident(self) -> str:
        """Operator capture (``POST /admin/dump``): drain every live
        replica's ring into the parent's, then freeze config + the
        merged ring + a replayable canary request into one bundle.
        Returns the bundle path."""
        if not self._started:
            raise ServerClosed("fleet not started")
        if not self._incidents.enabled:
            raise ReproError(
                "no incident directory configured; set "
                "ServeConfig.incident_dir to enable /admin/dump"
            )
        self.stats()  # pulls replica rings into the parent's
        get_tracer().record("fleet.dump")
        bucket = self.config.buckets[0]
        rng = np.random.default_rng(self.config.seed)
        x = rng.standard_normal(
            (bucket, *self.config.input_shape)
        ).astype(np.float32)
        path = self._incidents.capture(
            "manual",
            replay={"mode": "serve", "bucket": int(bucket)},
            config=_config_doc(self.config),
            config_fingerprint=self.config.fingerprint(),
            fault_plan=self.fault_plan,
            tensors={"x": x},
            extra={"trigger": "dump", "health": self.health()},
        )
        if path is None:
            raise ReproError("incident capture failed (see metrics)")
        return path

    # -- shutdown ------------------------------------------------------
    def stop(self) -> None:
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
            self._supervisor = None
        for handle in self._handles:
            proc = handle.proc
            if proc is None:
                continue
            try:
                with handle.send_lock:
                    handle.conn.send({"op": "stop"})
            except (BrokenPipeError, OSError):
                pass
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover -- stubborn child
                proc.terminate()
                proc.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
            if handle.reader is not None:
                handle.reader.join(timeout=5.0)
            with handle.lock:
                orphans = list(handle.outstanding.values())
                handle.outstanding.clear()
                handle.state = "down"
            for disp in orphans:
                if disp.lease is not None:
                    self._shm.reclaim(disp.lease)
                if not disp.req.done:
                    disp.req._fail(ServerClosed("fleet stopped"))
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        if self._warm_store is not None:
            self._warm_store.close()
            self._warm_store = None
        self._warm = None
        self._started = False
        self._draining = False

    def __enter__(self) -> "InferenceFleet":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
