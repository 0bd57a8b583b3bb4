"""Process-parallel data-parallel training.

:class:`ProcessParallelTrainer` runs one *real* OS process per simulated
node -- the closest a pure-Python, no-MPI environment gets to the paper's
multi-node setup.  It is a :class:`~repro.gxm.trainer.Trainer` whose
shards run in workers; the fit loop, checkpoints, SGD and watchdog are
the base class's.  Like MLSL's data parallelism (section II-L), every
worker keeps a weight replica and only gradients move:

1. the root sends each replica the weights and optimizer velocity once
   (``sync``: at start, after a respawn and after :meth:`resume`);
2. each step, workers run FWD/BWD/UPD on their minibatch shard;
3. ``allreduce="ring"`` (default): as every layer's dW lands, a
   deterministic gradient bucket is cut and pushed into a peer-to-peer
   chain-ring all-reduce (:mod:`repro.collective`) that runs *while the
   rest of backprop continues*; when every worker reports its finished
   average, the root commits -- an all-or-nothing barrier where workers
   and the root replica take the *same* SGD step on the *same* averaged
   gradients;
4. ``allreduce="root"``, and the ring's fallback whenever the mesh
   cannot be built (a rank is down and out of respawn budget): workers
   reply with their shard gradients at once, the root folds them in rank
   order and broadcasts the average (``fold``), which every replica
   applies.  The ring's fold order is exactly this rank order, so both
   modes -- and the in-process ``Trainer(nodes=n)`` -- are bitwise
   identical.

Fault tolerance.  Every pipe *and* peer-channel operation is
timeout-guarded; peer hops carry (step, epoch, bucket) headers plus a
CRC, and are rejected with typed :class:`~repro.collective.errors
.CollectiveError`\\ s.  A worker lost mid-collective (crash, SIGKILL,
hang, corruption) triggers **ring repair**: the first rank to notice
reports a ``cerr`` to the root, the root bumps the epoch (straggling
buckets of the old epoch become stale everywhere), kills the attributed
culprit, collects the survivors' local shard gradients over the root
pipes and finishes the step like a root-fold step.  That one completion
serves every path: lost shards are re-run on the root replica and all N
shards folded in rank order, so recovered weights are **bit-identical**
to a healthy run; the surviving replicas apply the broadcast average;
failed ranks are respawned (bounded by ``max_respawns``) and re-synced
at the next step.  No step is ever half-applied: weights only move
inside the commit.  The :class:`~repro.resilience.NumericsWatchdog`
screens gradients with per-rank attribution even in ring mode (a worker
that detects local NaN withholds its buckets and reports ``cerr
numerics``; the root re-checks every collected shard).  Faults are
injectable deterministically via a :class:`~repro.resilience.FaultPlan`
(sites ``"mp.worker.step"``, ``"mp.worker.reply"`` and
``"collective.hop"``).

Observability.  Every worker runs its tracer (:mod:`repro.obs.tracer`)
in the root's state at spawn time and ships its ring back with each
reply -- plus its metrics when spans are on -- so the root's ring, and
every incident bundle it freezes, holds the workers' records under
their pids, even for a worker that dies right after replying.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import os
import shutil
import tempfile
import time
from typing import Optional

import numpy as np

from repro.collective.repair import Membership
from repro.collective.ring import ring_peers
from repro.forensics.bundle import IncidentWriter
from repro.forensics.replay import digest_tensor_list
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.topology import TopologySpec
from repro.gxm.trainer import SGD, Trainer, shard_mean
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience.faults import FaultInjector, FaultPlan, WorkerFailure
from repro.types import ReproError

__all__ = ["ProcessParallelTrainer", "WorkerFailure"]

#: longest a wait on worker pipes blocks before re-checking deadlines
#: and liveness (a reply or a worker's death wakes it at once)
_POLL_S = 0.05

#: root-pipe reply tags a stale (older step/epoch) copy of which may be
#: safely discarded while waiting for something else; any other payload
#: is a corrupt message
_KNOWN_REPLIES = ("done", "cerr", "grads", "ringok", "ringfail")


def _drain_obs():
    """What a worker ships back with each reply: its ring, plus its
    metrics when spans are on (``None`` with the tracer off)."""
    tracer = get_tracer()
    if not tracer.recording:
        return None
    return {
        "pid": os.getpid(),
        "events": tracer.export_events(clear=True),
        "metrics": (
            get_metrics().snapshot(clear=True) if tracer.enabled else {}
        ),
    }


def _local_grads(etg, poison_param):
    """A copy of this shard's gradients; the ``nan_grad`` fault poisons
    one element."""
    grads = [g.copy() for g in etg.grads()]
    if poison_param is not None:
        grads[poison_param % len(grads)].flat[0] = np.nan
    return grads


def _worker_main(
    conn,
    topo_text: str,
    input_shape,
    seed: int,
    sgd: tuple,
    level: str = "off",
    rank: int = 0,
    fault_plan: FaultPlan | None = None,
    collective: dict | None = None,
    incarnation: int = 0,
) -> None:
    """Worker loop.  The worker keeps a weight and velocity replica and
    applies every committed average to it.  Root-pipe protocol (all
    messages are tagged tuples; ``None`` = shutdown):

    =====================================  ============================
    root -> worker                         worker -> root
    =====================================  ============================
    ``("sync", weights, velocity)``        --
    ``("ring", epoch, addresses)``         ``("ringok", epoch)`` or
                                           ``("ringfail", epoch, why)``
    ``("step", step, None, x, y)``         ``("grads", step, grads,
                                           loss, acc, payload)``
    ``("step", step, epoch, x, y)``        ``("done", step, loss, acc,
                                           payload, stats, avg|None)``
                                           or ``("cerr", step, epoch,
                                           kind, culprit, detail)``
    ``("commit", step)``                   -- (applies its ring average)
    ``("abort", step)``                    ``("grads", step, grads,
                                           loss, acc, payload)``
    ``("fold", step, avg)``                -- (applies the root's fold)
    =====================================  ============================

    A ``step`` without an epoch runs with no mesh: the shard gradients
    go straight back to the root, which folds them.
    """
    from repro import obs
    from repro.collective.channels import PeerHub
    from repro.collective.engine import PeerReceiver
    from repro.collective.worker import CollectiveStepRunner
    from repro.collective.bucketing import layer_param_indices

    # this process's own fault stream: a respawned rank draws afresh
    injector = FaultInjector(fault_plan, spawn_key=(rank, incarnation))
    # follow the root's state; this worker's records (and, with spans
    # on, its counters) are drained after every step into the root's
    tracer = obs.enable(level)
    tracer.clear()
    if tracer.enabled:
        get_metrics().clear()
    hub = None
    layer_idx = None
    if collective is not None:
        # listen before the (slow) ETG build so peers can start dialing
        hub = PeerHub(collective["address"], collective["authkey"])
    etg = ExecutionTaskGraph(
        parse_topology_text(topo_text), input_shape, engine="fast", seed=seed
    )
    params = etg.params()
    opt = SGD(params, *sgd)
    if collective is not None:
        layer_idx = layer_param_indices(etg)
    conns: dict = {}
    receiver = None
    epoch = -1

    def reply_fault(step):
        f = injector.fire("mp.worker.reply", step=step, rank=rank)
        if f is not None and f.kind == "crash":
            os._exit(19)  # died right after the reply hit the pipe

    try:
        while True:
            msg = conn.recv()
            if msg is None:
                return
            tag = msg[0]
            if tag == "sync":
                _, weights, velocity = msg
                for p, w in zip(params, weights):
                    p[...] = w
                for v, w in zip(opt._velocity, velocity):
                    v[...] = w
            elif tag == "ring":
                _, new_epoch, addresses = msg
                try:
                    if receiver is not None:
                        receiver.stop()  # before rewire closes its conns
                        receiver = None
                    peers = ring_peers(rank, collective["nodes"])
                    conns = hub.rewire(
                        rank, peers, addresses, new_epoch,
                        timeout=collective["ring_timeout"],
                    )
                    receiver = PeerReceiver(conns, new_epoch)
                    epoch = new_epoch
                    tracer.record(
                        "collective.rewire", epoch=new_epoch, rank=rank,
                    )
                    conn.send(("ringok", new_epoch))
                except Exception as err:
                    conn.send(("ringfail", new_epoch, repr(err)))
            elif tag == "step":
                _, step, sepoch, x, labels = msg
                if tracer.recording:
                    tracer.record("mp.step", step=step, rank=rank,
                                  epoch=sepoch, n=len(labels))
                fault = injector.fire("mp.worker.step", step=step, rank=rank)
                kind = fault.kind if fault is not None else None
                if kind == "crash":
                    os._exit(17)  # simulated SIGKILL: no cleanup
                if kind == "hang":
                    time.sleep(3600)  # the root's timeout reaps us
                if kind == "slow":
                    time.sleep(fault.delay_s)  # latency, not death
                poison = fault.param if kind == "nan_grad" else None
                corrupt = kind == "corrupt_message"
                if sepoch is None:
                    # no mesh: the shard gradients go straight back
                    loss = etg.train_step(x, labels)
                    acc = etg.accuracy()
                    reply = ("grads", step, _local_grads(etg, poison),
                             float(loss), float(acc), _drain_obs())
                    conn.send(("corrupt", step) if corrupt else reply)
                    reply_fault(step)
                    continue
                runner = None
                if poison is None:
                    runner = CollectiveStepRunner(
                        rank=rank, nodes=collective["nodes"],
                        step=step, epoch=sepoch, conns=conns,
                        receiver=receiver, etg=etg,
                        layer_indices=layer_idx,
                        bucket_bytes=collective["bucket_bytes"],
                        hop_timeout=collective["hop_timeout"],
                        injector=injector, corrupt_first=corrupt,
                    )
                    runner.attach()
                if tracer.enabled:
                    with tracer.span("collective.step", step=step,
                                     rank=rank):
                        loss = etg.train_step(x, labels)
                else:
                    loss = etg.train_step(x, labels)
                acc = etg.accuracy()
                if runner is not None:
                    runner.detach_and_finish()
                _finish_collective_step(
                    conn, runner, tracer, rank, step,
                    epoch, opt, etg, float(loss), float(acc),
                    poison_param=poison, reply_fault=reply_fault,
                )
            elif tag == "fold":
                # the root folded this step's shard gradients: apply
                # the average so the replica stays in lockstep
                opt.step(msg[2])
            # stale "commit"/"abort" and unknown tags are ignored
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # root went away; nothing to report to
    finally:
        if receiver is not None:
            receiver.stop()
        if hub is not None:
            hub.close()
        try:
            conn.close()
        except OSError:
            pass


def _finish_collective_step(conn, runner, tracer, rank,
                            step, epoch, opt, etg, loss, acc, *,
                            poison_param, reply_fault) -> None:
    """Post-compute worker state machine: wait for the all-reduce while
    obeying the root (commit / abort), and escalate engine failures."""
    if poison_param is not None:
        # never feed poisoned gradients to peers: withhold buckets and
        # self-report so the root keeps per-rank NaN attribution
        conn.send(("cerr", step, epoch, "numerics", rank,
                   "nan detected in local gradients"))
    done_sent = False
    cerr_sent = poison_param is not None
    avg = None
    span = None
    if tracer.enabled and runner is not None:
        span = tracer.span("collective.exposed", step=step, rank=rank)
        span.__enter__()
    engine = runner.engine if runner is not None else None
    try:
        while True:
            # wait on the engine while it runs (it wakes us the moment it
            # finishes or fails), then on the root pipe
            running = engine is not None and not engine.wait(0.02)
            if engine is not None and engine.done and not done_sent:
                if span is not None:
                    span.__exit__(None, None, None)
                    span = None
                avg = engine.result_list()
                conn.send(("done", step, loss, acc, _drain_obs(),
                           runner.step_stats(),
                           avg if rank == 0 else None))
                done_sent = True
                reply_fault(step)
            elif (engine is not None and engine.failed is not None
                    and not done_sent and not cerr_sent):
                err = engine.failed
                conn.send(("cerr", step, epoch, err.kind, err.culprit,
                           str(err)))
                cerr_sent = True
            if conn.poll(0 if running else 0.02):
                msg = conn.recv()
                if msg is None:
                    raise EOFError  # shutdown mid-step
                tag = msg[0]
                if tag == "commit" and done_sent and msg[1] == step:
                    opt.step(avg)
                    return
                if tag == "abort" and msg[1] == step:
                    if runner is not None:
                        runner.abandon()
                    conn.send(("grads", step,
                               _local_grads(etg, poison_param), loss,
                               acc, _drain_obs()))
                    return
                # stale control traffic for an older step: ignore
    finally:
        if span is not None:
            span.__exit__(None, None, None)


def parse_topology_text(text: str):
    from repro.gxm.parser import parse_topology

    return parse_topology(text)


class ProcessParallelTrainer(Trainer):
    """Data-parallel SGD over ``nodes`` worker processes: a
    :class:`~repro.gxm.trainer.Trainer` whose shards run in workers
    (``etg`` is the root's replica).

    Use as a context manager (or call :meth:`close`) so the workers exit.

    Parameters (beyond :class:`~repro.gxm.trainer.Trainer`'s)
    ---------------------------------------------------------
    allreduce:
        ``"ring"`` (default) -- overlapped bucketed chain-ring all-reduce
        between the workers; ``"root"`` -- workers send their shard
        gradients to the root, which folds them in rank order and
        broadcasts the average (ring steps match it bitwise).  With
        ``nodes=1`` there is nothing to reduce and ``"root"`` is used.
    bucket_bytes:
        Gradient-bucket threshold for the ring all-reduce; smaller
        buckets start communicating earlier (more overlap) at more
        per-hop overhead.
    step_timeout:
        Seconds the root waits for any single worker reply before
        declaring it hung (:class:`WorkerFailure`); never blocks
        forever.  Also the per-hop timeout inside the collective.
    max_respawns:
        Total worker respawns allowed across the run; a rank whose
        budget is exhausted stays down (every later step degrades
        through the root fold, its shard re-run on the root's replica
        so training numerics stay bit-identical to a healthy run).
    fault_plan:
        Deterministic :class:`~repro.resilience.FaultPlan` handed to
        every worker (fault-matrix testing; sites ``mp.worker.step``,
        ``mp.worker.reply``, ``collective.hop``; ``checkpoint.save``
        fires at the root).
    incident_dir:
        When set, arms the forensics layer: the tracer is raised to at
        least its ``"events"`` state in the root *and* every worker
        (rings drain back with each reply), and every degraded step
        writes one :mod:`repro.forensics` incident bundle there -- the
        failing shard, the step-start weights and the digests of the
        gradients the root recomputed bit-identically, replayable via
        ``python -m repro incident replay``.
    """

    def __init__(
        self,
        topo: TopologySpec,
        input_shape: tuple[int, int, int, int],
        nodes: int = 2,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        seed: int = 0,
        step_timeout: float = 30.0,
        max_respawns: int = 2,
        nan_policy: str = "raise",
        fault_plan: FaultPlan | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        shuffle_seed: int = 1,
        allreduce: str = "ring",
        bucket_bytes: int = 1 << 20,
        incident_dir: str | None = None,
    ):
        if nodes < 1:
            raise ReproError("need at least one worker node")
        if allreduce not in ("ring", "root"):
            raise ReproError(
                f"unknown allreduce {allreduce!r}; expected 'ring' or "
                f"'root'"
            )
        if nodes == 1:
            allreduce = "root"  # degenerate: nothing to reduce
        self._topo_text = topo.to_text()
        self._input_shape = input_shape
        self._seed = seed
        # the root keeps a replica to own the parameter arrays and to
        # re-run a failed worker's shard.  It is built from the same
        # topology *text* the workers parse, so a recomputed shard is
        # bit-identical to the lost one.
        super().__init__(
            ExecutionTaskGraph(
                parse_topology_text(self._topo_text), input_shape,
                engine="fast", seed=seed,
            ),
            lr=lr, momentum=momentum, weight_decay=weight_decay,
            nodes=nodes, nan_policy=nan_policy,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every, shuffle_seed=shuffle_seed,
            fault_plan=fault_plan,
        )
        self.allreduce = allreduce
        self.bucket_bytes = bucket_bytes
        self.step_timeout = step_timeout
        self.fault_plan = fault_plan
        self.incidents = IncidentWriter(incident_dir)
        if incident_dir is not None:
            get_tracer().enable("events")
        self._respawn_budget = max_respawns
        #: every :class:`WorkerFailure` survived so far (step order)
        self.failures: list[WorkerFailure] = []
        self._conns: list = [None] * nodes
        self._procs: list = [None] * nodes
        self._mesh = Membership(nodes)
        self._mesh.reset_all()
        self._sockdir = None
        self._authkey = os.urandom(16)
        #: processes spawned so far; numbers each worker incarnation
        self._spawn_gen = 0
        #: a mesh (re)build may legitimately wait for a fresh worker's
        #: ETG construction -- give it more room than one step
        self.ring_build_timeout = max(step_timeout, 20.0)
        if self.allreduce == "ring":
            self._sockdir = tempfile.mkdtemp(prefix="repro-ring-")
        for rank in range(nodes):
            self._spawn(rank)

    # -- worker lifecycle ----------------------------------------------
    def _spawn(self, rank: int) -> None:
        ctx = mp.get_context("fork")
        parent, child = ctx.Pipe()
        incarnation = self._spawn_gen
        self._spawn_gen += 1
        collective = None
        if self.allreduce == "ring":
            # fresh socket path per incarnation: a crashed predecessor's
            # bound path must never collide with the replacement's
            address = os.path.join(self._sockdir, f"w{rank}.g{incarnation}")
            self._mesh.addresses[rank] = address
            collective = {
                "nodes": self.nodes,
                "address": address,
                "authkey": self._authkey,
                "bucket_bytes": self.bucket_bytes,
                "hop_timeout": self.step_timeout,
                "ring_timeout": self.ring_build_timeout,
            }
        opt = self.opt
        proc = ctx.Process(
            target=_worker_main,
            args=(child, self._topo_text, self._input_shape, self._seed,
                  (opt.lr, opt.momentum, opt.weight_decay),
                  get_tracer().level, rank, self.fault_plan, collective,
                  incarnation),
            daemon=True,
        )
        proc.start()
        child.close()
        self._conns[rank] = parent
        self._procs[rank] = proc

    def _kill(self, rank: int) -> None:
        """Reap one worker unconditionally (broken pipe, hung, dead)."""
        conn, proc = self._conns[rank], self._procs[rank]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if proc is not None:
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
                proc.join(timeout=5)
        self._conns[rank] = None
        self._procs[rank] = None

    def _respawn(self, rank: int) -> bool:
        """Bounded replacement of a failed worker; the fresh replica is
        synced at the next step."""
        self._kill(rank)
        self._mesh.stale = True
        if self._respawn_budget <= 0:
            return False
        self._respawn_budget -= 1
        self._spawn(rank)
        self._mesh.needs_sync.add(rank)
        get_metrics().inc("resilience.respawns")
        return True

    @property
    def live_workers(self) -> int:
        return sum(
            1 for p in self._procs if p is not None and p.is_alive()
        )

    def _live_ranks(self) -> list[int]:
        return [
            r for r in range(self.nodes)
            if self._procs[r] is not None and self._procs[r].is_alive()
            and self._conns[r] is not None
        ]

    # -- timeout-guarded pipe I/O --------------------------------------
    def _send(self, rank: int, msg) -> None:
        conn = self._conns[rank]
        if conn is None or self._procs[rank] is None:
            raise WorkerFailure(rank, "worker is down")
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError) as err:
            raise WorkerFailure(rank, f"send failed ({err})") from err

    @staticmethod
    def _reply_matches(msg, want) -> bool:
        if want is None:
            return True
        tags, key = want
        return (
            isinstance(msg, tuple)
            and len(msg) >= 2
            and msg[0] in tags
            and msg[1] == key
        )

    def _classify(self, rank: int, msg, want):
        """Return the message if it matches ``want``; silently discard a
        stale-but-recognized reply (``None``); raise on garbage."""
        if self._reply_matches(msg, want):
            return msg
        if isinstance(msg, tuple) and msg and msg[0] in _KNOWN_REPLIES:
            return None  # a stale reply that raced an abort/rewire
        raise WorkerFailure(rank, f"corrupt message ({msg!r:.120})")

    def _recv(self, rank: int, want=None, timeout: float | None = None):
        """Receive the reply matching ``want`` (``(tags, step-or-epoch)``;
        ``None`` = first message), never blocking past the timeout.  A
        reply or the worker's death wakes the wait at once."""
        budget = self.step_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while True:
            got = self._poll_worker(rank)
            if got is not None:
                if got[0] == "dead":
                    raise got[1]
                msg = self._classify(rank, got[1], want)
                if msg is not None:
                    return msg
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerFailure(
                    rank, f"no reply within {budget}s (hung worker)"
                )
            mp.connection.wait(
                [self._conns[rank], self._procs[rank].sentinel],
                timeout=remaining,
            )

    def _poll_worker(self, rank: int):
        """One non-blocking look at a worker: ``("msg", m)``,
        ``("dead", WorkerFailure)`` or ``None`` (nothing yet).  A worker
        that replied and *then* exited is not dead until every message
        it queued has been taken."""
        conn, proc = self._conns[rank], self._procs[rank]
        if conn is None or proc is None:
            return ("dead", WorkerFailure(rank, "worker is down"))
        try:
            if conn.poll(0):
                return ("msg", conn.recv())
        except (EOFError, OSError) as err:
            return ("dead", WorkerFailure(rank, f"pipe broke ({err})"))
        if not proc.is_alive():
            # it may have queued a reply between the poll and the death
            try:
                if conn.poll(0):
                    return ("msg", conn.recv())
            except (EOFError, OSError):
                pass
            return (
                "dead",
                WorkerFailure(
                    rank, f"process died (exit code {proc.exitcode})"
                ),
            )
        return None

    def _validate_grads_reply(self, rank: int, reply):
        """Typed rejection of corrupt messages (never a downstream
        TypeError/ValueError deep in the all-reduce)."""
        try:
            tag, step, grads, loss, acc, payload = reply
            if tag != "grads":
                raise ValueError(f"unexpected tag {tag!r}")
            params = self.opt.params
            if len(grads) != len(params):
                raise ValueError(
                    f"{len(grads)} gradient tensors, expected "
                    f"{len(params)}"
                )
            for g, p in zip(grads, params):
                if not isinstance(g, np.ndarray) or g.shape != p.shape:
                    raise ValueError("gradient tensor shape mismatch")
            return grads, float(loss), float(acc), payload
        except (TypeError, ValueError) as err:
            raise WorkerFailure(
                rank, f"corrupt message ({err})"
            ) from err

    def _ingest_payload(self, payload) -> None:
        if payload is not None:
            get_tracer().ingest(payload["events"], pid=payload["pid"])
            get_metrics().merge(payload["metrics"])

    # ------------------------------------------------------------------
    def _recompute_shard(self, x: np.ndarray, labels: np.ndarray):
        """Re-run a lost shard on the root replica.  The root's params
        still hold exactly the step's starting weights (the SGD step
        happens after every shard is in), so the result is bit-identical
        to what the failed worker computed."""
        loss = self.etg.train_step(x, labels)
        acc = self.etg.accuracy()
        return [g.copy() for g in self.etg.grads()], float(loss), float(acc)

    def _gradients(self, step, x, labels):
        """One data-parallel step's shards.  Ring mode: dispatch ->
        overlapped all-reduce -> commit barrier; ring repair on any
        failure.  Root mode (and the ring's fallback when the mesh cannot
        cover every rank): shard gradients -> root fold.

        Survives worker failures mid-step: the step completes degraded
        (lost shards recomputed at the root), failed ranks are respawned
        afterwards, and ``resilience.degraded_steps`` counts the event.
        """
        shards = np.array_split(np.arange(len(labels)), self.nodes)
        failed = self._sync()
        if self.allreduce == "ring":
            # a rank is down (respawn budget exhausted, or it died since
            # last step) or the mesh cannot be built: fall back to the
            # root fold -- the same rank-order fold, so the run stays
            # bit-identical
            if (not failed and len(self._live_ranks()) == self.nodes
                    and self._ensure_mesh(failed)):
                return self._ring_step(step, x, labels, shards)
            get_metrics().inc("collective.rootsteps")
        return self._root_step(step, x, labels, shards, failed)

    # -- replicas / mesh ------------------------------------------------
    def _sync(self) -> dict:
        """Send the weights and velocity to every replica marked for a
        sync; returns the ranks that could not take it."""
        failed: dict[int, WorkerFailure] = {}
        for rank in sorted(self._mesh.needs_sync):
            try:
                self._send(rank, ("sync", self.opt.params,
                                  self.opt._velocity))
                get_metrics().inc("collective.syncs")
            except WorkerFailure as f:
                failed[rank] = f
                self._kill(rank)
            self._mesh.needs_sync.discard(rank)
        return failed

    def _ensure_mesh(self, failed: dict) -> bool:
        """Bring every worker's peer mesh up to date.  On any failure
        the offending ranks land in ``failed`` and the caller falls back
        to a root-fold step."""
        mesh = self._mesh
        if not mesh.stale:
            return True
        epoch = mesh.epoch + 1
        try:
            for rank in range(self.nodes):
                self._send(rank, ("ring", epoch, mesh.addresses))
            for rank in range(self.nodes):
                ack = self._recv(
                    rank, want=(("ringok", "ringfail"), epoch),
                    timeout=self.ring_build_timeout,
                )
                if ack[0] != "ringok":
                    raise WorkerFailure(
                        rank, f"mesh build failed: {ack[2]}"
                    )
        except WorkerFailure as f:
            failed[f.rank] = f
            self._kill(f.rank)
            mesh.epoch += 1  # invalidate anything the half-built mesh sent
            return False
        mesh.epoch = epoch
        mesh.stale = False
        get_metrics().inc("collective.rebuilds")
        return True

    # -- ring step ------------------------------------------------------
    def _ring_step(self, step, x, labels, shards):
        mesh = self._mesh
        culprits: dict[int, WorkerFailure] = {}
        pending = set(range(self.nodes))
        dones: dict[int, tuple] = {}
        cerrs: list[dict] = []
        grace = None
        avg = None
        for rank in range(self.nodes):
            try:
                self._send(rank, ("step", step, mesh.epoch,
                                  x[shards[rank]], labels[shards[rank]]))
            except WorkerFailure as f:
                culprits[rank] = f
                pending.discard(rank)
        # wait: every rank reports done, or anyone reports/becomes a
        # failure -- compute plus the slowest hop-timeout cascade (a
        # broadcast-phase wait is 2x the hop timeout), with margin
        deadline = time.monotonic() + self.step_timeout * 3 + 2
        while pending and not culprits:
            if cerrs:
                # definitive evidence (EOF, CRC, stale epoch, NaN) names
                # the culprit outright; a hop *timeout* only implicates a
                # neighbour, and a hung rank stalls its whole downstream
                # cascade -- so the first timeout report opens a grace
                # window long enough for every healthy rank's own wait
                # (up to 2x the hop timeout on broadcast legs) to expire
                # and report, after which the silent accused stand out
                if any(c["kind"] != "timeout" for c in cerrs):
                    break
                if time.monotonic() > grace:
                    break
            progressed = False
            for rank in sorted(pending):
                got = self._poll_worker(rank)
                if got is None:
                    continue
                progressed = True
                if got[0] == "dead":
                    culprits[rank] = got[1]
                    pending.discard(rank)
                    break
                msg = got[1]
                try:
                    msg = self._classify(
                        rank, msg, (("done", "cerr"), step)
                    )
                except WorkerFailure as f:
                    culprits[rank] = f
                    pending.discard(rank)
                    break
                if msg is None:
                    continue  # stale reply from before a repair
                if msg[0] == "done":
                    _, _, loss_r, acc_r, payload, stats, rank_avg = msg
                    self._ingest_payload(payload)
                    dones[rank] = (loss_r, acc_r, stats)
                    if rank_avg is not None:
                        avg = rank_avg
                    pending.discard(rank)
                else:  # cerr
                    cerrs.append({"rank": rank, "kind": msg[3],
                                  "culprit": msg[4], "detail": msg[5]})
                    pending.discard(rank)
                    if grace is None:
                        grace = (time.monotonic()
                                 + self.step_timeout * 2 + 0.5)
            if not progressed:
                if time.monotonic() > max(deadline, grace or 0):
                    for rank in sorted(pending):
                        culprits[rank] = WorkerFailure(
                            rank, "no collective result within budget"
                        )
                    pending.clear()
                    break
                # sleep until a pending worker replies or dies, at most
                # _POLL_S so the deadlines above are still checked
                mp.connection.wait(
                    [obj for rank in pending for obj in
                     (self._conns[rank], self._procs[rank].sentinel)],
                    timeout=_POLL_S,
                )
        if avg is None and not culprits and not cerrs:  # pragma: no cover
            culprits[0] = WorkerFailure(0, "no average reported")
        if culprits or cerrs:
            return self._repair_and_complete(
                step, x, labels, shards, culprits, cerrs, dones
            )
        # -- healthy commit barrier -------------------------------------
        loss = shard_mean(shards, [dones[r][0] for r in range(self.nodes)])
        acc = shard_mean(shards, [dones[r][1] for r in range(self.nodes)])
        if not self.watchdog.check(avg, node="collective", step=step):
            # never half-apply: abort instead of committing, discard the
            # survivors' grads replies, and skip the step everywhere
            mesh.stale = True
            mesh.epoch += 1
            _, afails = self._abort_collect(step, set(), collect=False)
            for rank in sorted(afails):
                self._respawn(rank)
            return None, loss, acc
        postfail: dict[int, WorkerFailure] = {}
        for rank in range(self.nodes):
            try:
                self._send(rank, ("commit", step))
            except WorkerFailure as f:
                postfail[rank] = f
        m = get_metrics()
        for _, _, stats in dones.values():
            m.inc("collective.buckets", stats.get("buckets", 0))
            m.inc("collective.hops", stats.get("hops", 0))
            m.inc("collective.bytes", stats.get("bytes", 0))
            m.inc("collective.stale_dropped", stats.get("stale_dropped", 0))
            m.observe("collective.exposed_ms", stats.get("exposed_ms", 0.0))
            m.observe("collective.overlap_ms", stats.get("overlap_ms", 0.0))
        m.inc("collective.steps")
        if postfail:
            # a worker died between its done and the commit: its replica
            # missed the update, so it must be resynced from scratch
            self.failures.extend(postfail[r] for r in sorted(postfail))
            for rank in sorted(postfail):
                self._respawn(rank)
        return avg, loss, acc

    def _abort_collect(self, step, exclude: set, collect: bool = True):
        """Broadcast ``abort`` and (optionally) gather every surviving
        worker's local shard gradients; returns ``{rank: (grads, loss,
        acc)}`` plus the ranks that failed while collecting."""
        collected: dict[int, tuple] = {}
        failures: dict[int, WorkerFailure] = {}
        live = [r for r in self._live_ranks() if r not in exclude]
        for rank in live:
            try:
                self._send(rank, ("abort", step))
            except WorkerFailure as f:
                failures[rank] = f
        for rank in live:
            if rank in failures:
                continue
            try:
                reply = self._recv(
                    rank, want=(("grads",), step),
                    timeout=self.step_timeout * 1.5 + 1,
                )
                grads, loss_r, acc_r, payload = self._validate_grads_reply(
                    rank, reply
                )
            except WorkerFailure as f:
                failures[rank] = f
                continue
            if collect:
                self._ingest_payload(payload)
                collected[rank] = (grads, loss_r, acc_r)
        return collected, failures

    def _repair_and_complete(self, step, x, labels, shards, culprits,
                             cerrs, dones):
        """Ring repair: epoch bump, culprit kill, survivor grad
        collection over the root pipes, then the root-fold
        completion."""
        mesh = self._mesh
        m = get_metrics()
        m.inc("collective.aborts")
        mesh.epoch += 1  # in-flight buckets of the old epoch are stale
        mesh.stale = True
        numerics = any(c["kind"] == "numerics" for c in cerrs)
        for c in cerrs:
            m.inc(f"collective.errors.{c['kind']}")
        if cerrs and not numerics:
            # a rank that reported (or finished) was demonstrably making
            # progress: the real culprit is whoever was accused yet stayed
            # silent through the grace window.  A pile-up of timeout
            # reports otherwise blames the first accused's own victim.
            reporters = {c["rank"] for c in cerrs}
            accused = [c for c in cerrs if c["culprit"] is not None]
            guilty = [c for c in accused
                      if c["culprit"] not in reporters
                      and c["culprit"] not in dones] or accused[:1]
            for c in guilty:
                blamed = c["culprit"]
                culprits.setdefault(blamed, WorkerFailure(
                    blamed,
                    f"collective {c['kind']}: {c['detail']}",
                ))
        # the culprit's collective state is untrusted: reap it (numerics
        # reporters stay -- their process is healthy and their gradients
        # are needed for per-rank watchdog attribution)
        for rank in sorted(culprits):
            self._kill(rank)
        collected, fails = self._abort_collect(step, set(culprits))
        culprits.update(fails)
        for rank in sorted(fails):
            self._kill(rank)
        results: list[Optional[tuple]] = [None] * self.nodes
        for rank, res in collected.items():
            results[rank] = res
        return self._complete_degraded(
            step, x, labels, shards, results, culprits
        )

    # -- root-fold step -------------------------------------------------
    def _root_step(self, step, x, labels, shards, failed: dict):
        """Every replica computes its shard with no mesh and replies with
        its gradients at once; the root folds them."""
        for rank in range(self.nodes):
            if rank in failed:
                continue
            try:
                self._send(rank, ("step", step, None, x[shards[rank]],
                                  labels[shards[rank]]))
            except WorkerFailure as f:
                failed[rank] = f
        results: list[Optional[tuple]] = [None] * self.nodes
        for rank in range(self.nodes):
            if rank in failed:
                continue
            try:
                reply = self._recv(rank, want=(("grads",), step))
                grads, loss_r, acc_r, payload = self._validate_grads_reply(
                    rank, reply
                )
            except WorkerFailure as f:
                failed[rank] = f
                self._kill(rank)
                continue
            self._ingest_payload(payload)
            results[rank] = (grads, loss_r, acc_r)
        return self._complete_degraded(
            step, x, labels, shards, results, failed
        )

    # -- the root-fold completion ----------------------------------------
    def _complete_degraded(self, step, x, labels, shards, results, failed):
        """Finish a step from per-rank shard gradients: lost shards
        recomputed at the root, numerics watchdog (per-rank
        attribution), the rank-order fold, the broadcast of the average
        to every replica that computed its shard, respawns."""
        # a rank can die *unblamed*: the wait loop stops at the first
        # detected culprit, so a simultaneous casualty elsewhere in the
        # ring shows up only as a missing result here.  It must still be
        # failed, so its shard is recomputed (bit-identity) and the
        # failure counted and respawned
        for rank, res in enumerate(results):
            if res is None and rank not in failed:
                failed[rank] = WorkerFailure(
                    rank, f"no shard gradients for step {step} "
                    "(died unblamed mid-collective)"
                )
        if failed:
            get_metrics().inc("resilience.degraded_steps")
            self.failures.extend(failed[rank] for rank in sorted(failed))
        for rank in sorted(failed):
            results[rank] = self._recompute_shard(
                x[shards[rank]], labels[shards[rank]]
            )
        if failed and self.incidents.enabled:
            # the root's params still hold the step-start weights (the
            # optimizer commit comes after), so the bundle freezes
            # exactly the state a replay must rebuild
            self._capture_train_incident(
                step, x, labels, shards, results, failed
            )
        avg, loss, acc = self._fold(step, shards, results, node="worker")
        if avg is not None:
            # the replicas apply the same average as the root.  One that
            # cannot take it is re-synced before its next step; a dead
            # one is found then, not respawned here
            for rank in range(self.nodes):
                if rank in failed or self._procs[rank] is None:
                    continue  # this shard was recomputed at the root
                try:
                    self._send(rank, ("fold", step, avg))
                except WorkerFailure:
                    self._mesh.needs_sync.add(rank)
        for rank in sorted(failed):
            self._respawn(rank)
        return avg, loss, acc

    def _capture_train_incident(self, step, x, labels, shards, results,
                                failed) -> None:
        """One incident bundle for a degraded step: the first failed
        rank's shard, the step-start weights, and the digests of the
        bit-identically recomputed gradients the replay must
        reproduce."""
        rank = sorted(failed)[0]
        err = failed[rank]
        tensors = {
            "x": np.ascontiguousarray(x[shards[rank]]),
            "labels": np.ascontiguousarray(labels[shards[rank]]),
        }
        for i, p in enumerate(self.opt.params):
            tensors[f"weights__{i}"] = p.copy()
        grads, loss_r, _acc = results[rank]
        machine = getattr(self.etg, "machine", None)
        self.incidents.capture(
            "train",
            error=err,
            replay={
                "mode": "train",
                "topo_text": self._topo_text,
                "input_shape": list(self._input_shape),
                "seed": self._seed,
                "engine": "fast",
                "step": step,
            },
            machine_fingerprint=(
                machine.fingerprint()
                if machine is not None and hasattr(machine, "fingerprint")
                else None
            ),
            fault_plan=self.fault_plan,
            rng_state={
                "shuffle_seed": self.shuffle_seed,
                "batches_consumed": step,
            },
            tensors=tensors,
            expect={
                "grads": digest_tensor_list(grads),
                "loss": float(loss_r),
            },
            extra={
                "failed_rank": rank,
                "failures": {
                    r: str(f) for r, f in sorted(failed.items())
                },
                "allreduce": self.allreduce,
                "nodes": self.nodes,
            },
        )

    def resume(self, path_or_file) -> int:
        """:meth:`Trainer.resume`, then every worker replica re-syncs
        at the next step."""
        step = super().resume(path_or_file)
        self._mesh.reset_all()
        return step

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut workers down; reaps zombies even with broken pipes."""
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
                proc.join(timeout=5)
        self._conns = []
        self._procs = []
        if self._sockdir is not None:
            shutil.rmtree(self._sockdir, ignore_errors=True)
            self._sockdir = None

    def __enter__(self) -> "ProcessParallelTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
