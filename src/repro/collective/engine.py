"""The chain-ring all-reduce engine and its per-epoch receive side.

Threading model inside one worker process:

* the **main thread** runs backprop; every bucket the
  :class:`~repro.collective.bucketing.GradBucketer` cuts is ``feed()``'d
  to the engine while later layers are still computing -- this is the
  comm/compute overlap;
* a :class:`PeerReceiver` owns one **rx thread per peer connection for
  the whole ring epoch** (not per step: a fast neighbour may already be
  sending step *k+1* while this rank is still committing step *k*, and
  a per-step receiver would swallow those early buckets).  Each rx
  thread drains its connection unconditionally into a step-keyed inbox
  (so a peer's send never blocks on our compute -- no socket-buffer
  deadlock) and performs the per-hop validation: framing + CRC
  (:class:`CorruptBucket`), the epoch header (stragglers of an aborted
  epoch are dropped and counted; *future* epochs raise
  :class:`StaleBucket` -- they can only mean a protocol bug, since every
  epoch gets fresh connections), EOF (:class:`PeerGone`);
* the per-step **engine thread** runs the chain-ring protocol
  (:mod:`repro.collective.ring`), pulling local buckets from the feed
  queue and peer buckets from the epoch inbox, each wait bounded by
  ``hop_timeout`` (:class:`HopTimeout`).

The first failure anywhere freezes the step's engine (``failed``), and
the worker's main loop -- woken by :meth:`RingEngine.wait` the moment
the engine finishes or fails -- escalates it to the root as a ``cerr``
for ring repair.  ``abandon()`` detaches an aborted step's engine
thread; the receiver itself is torn down only when its epoch is
rewired.

Fault site ``collective.hop`` fires just before a rank forwards a given
bucket (filters: ``rank``, ``bucket``, ``step``), honouring ``crash``,
``hang``, ``slow`` and ``corrupt_message`` kinds.
"""

from __future__ import annotations

import os
import queue
import threading
import time

from repro.collective.channels import decode_bucket, send_bucket
from repro.collective.errors import (
    CollectiveError,
    CorruptBucket,
    HopTimeout,
    PeerGone,
    StaleBucket,
)
from repro.obs.tracer import get_tracer

__all__ = ["PeerReceiver", "RingEngine"]


class _Inbox:
    """Keyed mailbox: rx threads put, engine threads take."""

    def __init__(self):
        self._cv = threading.Condition()
        self._msgs: dict = {}

    def put(self, key, value) -> None:
        with self._cv:
            self._msgs[key] = value
            self._cv.notify_all()

    def kick(self) -> None:
        with self._cv:
            self._cv.notify_all()

    def purge_below(self, step: int) -> None:
        """Drop leftovers of steps older than ``step`` (aborted or
        already-completed collectives this epoch)."""
        with self._cv:
            for key in [k for k in self._msgs if k[0] < step]:
                del self._msgs[key]

    def try_take(self, key):
        with self._cv:
            return self._msgs.pop(key, None)

    def take(self, key, timeout: float, stop: threading.Event,
             error_of, culprit: int | None):
        deadline = time.monotonic() + timeout
        with self._cv:
            while True:
                if key in self._msgs:
                    return self._msgs.pop(key)
                if stop.is_set():
                    raise CollectiveError("collective aborted", kind="abort")
                err = error_of()
                if err is not None:
                    raise err
                left = deadline - time.monotonic()
                if left <= 0:
                    raise HopTimeout(
                        f"bucket {key} not received within {timeout:.1f}s",
                        culprit=culprit,
                    )
                self._cv.wait(min(left, 0.05))


class PeerReceiver:
    """One ring epoch's always-draining receive side: a daemon thread
    per peer connection, delivering validated buckets into a step-keyed
    inbox that successive step engines consume."""

    def __init__(self, conns: dict, epoch: int):
        self.epoch = epoch
        self.inbox = _Inbox()
        self.stale_dropped = 0
        self._stop = threading.Event()
        self._error: CollectiveError | None = None
        self._threads = []
        for prank, conn in conns.items():
            t = threading.Thread(
                target=self._rx, args=(prank, conn), daemon=True,
                name=f"coll-rx-e{epoch}-p{prank}",
            )
            t.start()
            self._threads.append(t)

    @property
    def error(self) -> CollectiveError | None:
        return self._error

    def stop(self) -> None:
        """Wind the epoch down (called before its connections close)."""
        self._stop.set()
        self.inbox.kick()
        for t in self._threads:
            t.join(timeout=2)

    def _fail(self, err: CollectiveError) -> None:
        if self._error is None:
            self._error = err
        self.inbox.kick()

    def _rx(self, prank: int, conn) -> None:
        while not self._stop.is_set():
            try:
                if not conn.poll(0.05):
                    continue
                msg = conn.recv()
            except (EOFError, OSError) as err:
                if not self._stop.is_set():
                    self._fail(PeerGone(
                        f"peer {prank} connection lost ({err!r})",
                        culprit=prank,
                    ))
                return
            try:
                kind, step, epoch, bucket_id, sender, arrays = decode_bucket(
                    msg, culprit=prank
                )
                if epoch != self.epoch:
                    if epoch < self.epoch:
                        # straggler of an aborted epoch
                        self.stale_dropped += 1
                        continue
                    raise StaleBucket(
                        f"bucket from a future epoch: peer {prank} sent "
                        f"epoch {epoch}, this mesh is epoch {self.epoch}",
                        culprit=prank,
                    )
                # future *steps* are fine: a fast neighbour is already
                # past its commit -- the bucket waits in the inbox
                self.inbox.put((step, kind, bucket_id, sender), arrays)
            except CollectiveError as err:
                self._fail(err)
                return


class RingEngine:
    """One step's bucketed chain-ring all-reduce at one rank (hop and
    fold order: :mod:`repro.collective.ring`).  Buckets are pipelined:
    while a rank waits for bucket *k*'s average to come back around, it
    keeps reducing buckets *k+1, k+2, ...* as its own backprop lands
    them.

    ``peers`` maps the two ring neighbours' ranks -> duplex Connection
    (used for sends; receives flow through the epoch's
    :class:`PeerReceiver`); ``param_shapes`` is the flat parameter-shape
    list used to validate every consumed bucket."""

    def __init__(self, *, rank: int, nodes: int, step: int, epoch: int,
                 peers: dict, receiver: PeerReceiver, param_shapes: list,
                 hop_timeout: float, injector=None,
                 corrupt_first: bool = False):
        self.rank = rank
        self.nodes = nodes
        self.step = step
        self.epoch = epoch
        self.peers = peers
        self.receiver = receiver
        self.param_shapes = param_shapes
        self.hop_timeout = hop_timeout
        self.injector = injector
        self._corrupt_next_send = corrupt_first
        self._queue: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        #: set when the engine thread ends, finished or failed
        self._settled = threading.Event()
        self._error: CollectiveError | None = None
        #: flat param index -> averaged gradient array
        self.result: dict = {}
        self.stats = {
            "buckets": 0, "bytes": 0, "hops": 0,
            "overlap_ms": 0.0, "exposed_ms": 0.0,
        }
        self._t_finish: float | None = None
        self._t_first_send: float | None = None
        self._nxt = (rank + 1) % nodes
        self._prv = (rank - 1) % nodes

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        self.receiver.inbox.purge_below(self.step)
        t = threading.Thread(
            target=self._engine, daemon=True,
            name=f"coll-engine-{self.rank}-s{self.step}",
        )
        t.start()

    def feed(self, spec, arrays) -> None:
        """Hand a locally-cut bucket to the engine (main thread)."""
        self._queue.put((spec, list(arrays)))

    def finish(self) -> None:
        """All local buckets are in: compute is done, the remaining
        engine time is *exposed* (non-overlapped) communication."""
        self._t_finish = time.monotonic()
        self._queue.put(None)

    def abandon(self) -> None:
        """Detach from an aborted step; the engine thread winds down on
        its own (the epoch's receiver keeps running until rewire)."""
        self._stop.set()
        self.receiver.inbox.kick()

    def wait(self, timeout: float) -> bool:
        """Block until the engine thread has finished or failed, at most
        ``timeout`` seconds; True once it has."""
        return self._settled.wait(timeout)

    @property
    def done(self) -> bool:
        return self._settled.is_set() and self._error is None

    @property
    def failed(self) -> CollectiveError | None:
        return self._error if self._error is not None else self.receiver.error

    # -- threads --------------------------------------------------------
    def _fail(self, err: CollectiveError) -> None:
        if self._error is None:
            self._error = err
        self._stop.set()

    def _engine(self) -> None:
        try:
            self._run()
        except CollectiveError as err:
            self._fail(err)
        except Exception as err:  # pragma: no cover - defensive
            self._fail(CollectiveError(
                f"engine internal failure: {err!r}", kind="internal"
            ))
        else:
            now = time.monotonic()
            if self._t_finish is not None:
                self.stats["exposed_ms"] = max(
                    0.0, (now - self._t_finish) * 1e3
                )
                if self._t_first_send is not None:
                    self.stats["overlap_ms"] = max(
                        0.0, (self._t_finish - self._t_first_send) * 1e3
                    )
        finally:
            self._settled.set()

    def _run(self) -> None:
        last = self.nodes - 1
        pending = []  # buckets whose broadcast copy is still in flight
        while True:
            item = self._next_local()
            if item is None:
                break
            spec, own = item
            self._fire_fault(spec)
            if self.rank == 0:
                self._send(self._nxt, "red", spec, own)
                pending.append(spec)
            else:
                part = self._take("red", spec, self._prv)
                self._validate(spec, part, self._prv)
                for a, g in zip(part, own):
                    a += g
                if self.rank < last:
                    self._send(self._nxt, "red", spec, part)
                    pending.append(spec)
                else:
                    for a in part:
                        a /= self.nodes
                    self._store(spec, part)
                    self._send(self._nxt, "avg", spec, part)
            self._drain_pending(pending, block=False)
        self._drain_pending(pending, block=True)

    def _drain_pending(self, pending: list, block: bool) -> None:
        # the broadcast dies out at rank N-2 (its successor is N-1, the
        # averaging rank, which already holds every average)
        forward = self.rank < self.nodes - 2
        for spec in list(pending):
            if block:
                arrays = self._take("avg", spec, self._prv)
            else:
                arrays = self._try_take("avg", spec, self._prv)
                if arrays is None:
                    continue
            self._validate(spec, arrays, self._prv)
            self._store(spec, arrays)
            if forward:
                self._send(self._nxt, "avg", spec, arrays)
            pending.remove(spec)

    # -- engine-thread helpers -----------------------------------------
    def _error_now(self) -> CollectiveError | None:
        return self._error if self._error is not None else self.receiver.error

    def _next_local(self):
        """Next locally-fed bucket (None = compute finished)."""
        while True:
            if self._stop.is_set():
                raise CollectiveError("collective aborted", kind="abort")
            err = self._error_now()
            if err is not None:
                raise err
            try:
                return self._queue.get(timeout=0.05)
            except queue.Empty:
                continue

    def _take(self, kind: str, spec, sender: int):
        # broadcast-phase waits get double the budget: when a rank dies,
        # the rank waiting on its *reduce* hop times out first, so the
        # first cerr the root sees always blames the true culprit
        timeout = self.hop_timeout * (2.0 if kind == "avg" else 1.0)
        return self.receiver.inbox.take(
            (self.step, kind, spec.bucket_id, sender), timeout,
            self._stop, self._error_now, sender,
        )

    def _try_take(self, kind: str, spec, sender: int):
        return self.receiver.inbox.try_take(
            (self.step, kind, spec.bucket_id, sender)
        )

    def _validate(self, spec, arrays, sender: int) -> None:
        if len(arrays) != len(spec.indices) or any(
            a.shape != self.param_shapes[idx]
            for idx, a in zip(spec.indices, arrays)
        ):
            raise CorruptBucket(
                f"bucket {spec.bucket_id} from peer {sender} has wrong "
                f"arity/shapes", culprit=sender,
            )

    def _send(self, prank: int, kind: str, spec, arrays) -> None:
        corrupt = self._corrupt_next_send
        self._corrupt_next_send = False
        try:
            n = send_bucket(
                self.peers[prank], kind, self.step, self.epoch,
                spec.bucket_id, self.rank, arrays, corrupt=corrupt,
            )
        except (OSError, ValueError) as err:
            raise PeerGone(
                f"send to peer {prank} failed ({err!r})", culprit=prank
            ) from err
        if self._t_first_send is None:
            self._t_first_send = time.monotonic()
        self.stats["bytes"] += n
        self.stats["hops"] += 1
        tracer = get_tracer()
        if tracer.recording:
            tracer.record(
                "collective.hop", step=self.step, epoch=self.epoch,
                bucket=spec.bucket_id, kind=kind, rank=self.rank,
                peer=prank, bytes=n,
            )

    def _store(self, spec, arrays) -> None:
        for idx, a in zip(spec.indices, arrays):
            self.result[idx] = a
        self.stats["buckets"] += 1

    def _fire_fault(self, spec) -> None:
        inj = self.injector
        if inj is None:
            return
        fault = inj.fire(
            "collective.hop", step=self.step, rank=self.rank,
            bucket=spec.bucket_id,
        )
        if fault is None:
            return
        if fault.kind == "crash":
            os._exit(23)  # simulated SIGKILL mid-collective
        elif fault.kind == "hang":
            time.sleep(3600)  # peers' hop timeouts detect us
        elif fault.kind == "slow":
            time.sleep(fault.delay_s)
        elif fault.kind == "corrupt_message":
            self._corrupt_next_send = True

    def result_list(self) -> list:
        """The averaged gradients as a flat list (completes only after
        ``done``); raises if any parameter index is missing."""
        return [self.result[i] for i in range(len(self.param_shapes))]
