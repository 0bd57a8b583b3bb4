"""repro.collective: the fault-tolerant overlapped ring all-reduce.

Two layers of coverage:

* fast unit tests of the deterministic pieces -- the fold order (the
  chain ring's rank-order fold must equal the sequential root fold
  *bitwise*), ring edges, bucket cutting, the framed/CRC'd hop format,
  the bucket-filtered fault site;
* process-level integration: healthy ring training is bitwise identical
  to root-mode training and to the in-process data-parallel trainer, and
  its steps wake on replies instead of a poll period; a worker killed or
  hung mid-collective (every ring position, early and late buckets)
  completes the step degraded and finishes with weights bitwise
  identical to an undisturbed run.  Plus regressions for the
  every-worker-failed respawn path, the dead-worker reply drain and the
  receive that wakes on a death.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.collective import (
    CorruptBucket,
    GradBucketer,
    Membership,
    decode_bucket,
    fold_ring,
    layer_param_indices,
    ring_peers,
    send_bucket,
)
from repro.gxm import multiproc
from repro.gxm.data import SyntheticImageDataset
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.multiproc import ProcessParallelTrainer
from repro.gxm.parser import parse_topology
from repro.gxm.trainer import Trainer
from repro.models.resnet50 import resnet_mini_topology
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience import FaultPlan, FaultSpec
from repro.types import ReproError

pytestmark = pytest.mark.timeout(120)

SHAPE = (3, 8, 8)
CLASSES = 4
#: small enough that the tiny topology cuts several buckets per step
TINY_BUCKET = 1024


def tiny_topology():
    return resnet_mini_topology(num_classes=CLASSES, width=8)


def tiny_dataset(n=18, seed=3):
    return SyntheticImageDataset(
        n=n, num_classes=CLASSES, shape=SHAPE, seed=seed
    )


def tiny_etg():
    return ExecutionTaskGraph(
        parse_topology(tiny_topology().to_text()), (2, *SHAPE),
        engine="fast", seed=0,
    )


def weights_of(etg):
    return [p.copy() for p in etg.params()]


@pytest.fixture
def clean_metrics():
    get_metrics().clear()
    yield get_metrics()
    get_metrics().clear()


def run_trainer(ds, **kw):
    """One full training run; returns (trainer, weights, losses)."""
    kw.setdefault("step_timeout", 15.0)
    t = ProcessParallelTrainer(
        tiny_topology(), (2, *SHAPE), nodes=kw.pop("nodes", 3), seed=0,
        **kw,
    )
    try:
        t.fit(ds, batch_size=2, epochs=1)
        return t, weights_of(t.etg), list(t.metrics.losses)
    finally:
        t.close()


# ---------------------------------------------------------------------------
class TestFolds:
    def test_fold_ring_is_bitwise_rank_order(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8):
            shards = [
                [rng.standard_normal((3, 4)).astype(np.float32),
                 rng.standard_normal(7).astype(np.float32)]
                for _ in range(n)
            ]
            got = fold_ring(shards, n)
            for i in range(2):
                acc = shards[0][i].copy()
                for s in shards[1:]:
                    acc += s[i]
                acc /= n
                assert np.array_equal(got[i], acc)
            # inputs must not be mutated (the root reuses them)
            assert not np.array_equal(got[0], shards[0][0])


class TestTopologies:
    def test_ring_peers_are_the_two_neighbours(self):
        assert ring_peers(0, 2) == {1}
        assert ring_peers(1, 4) == {0, 2}
        assert ring_peers(0, 4) == {1, 3}

    def test_membership_reset(self):
        m = Membership(3)
        m.stale = False
        m.reset_all()
        assert m.stale and m.needs_sync == {0, 1, 2}


# ---------------------------------------------------------------------------
class TestBucketing:
    def test_layer_indices_cover_params_in_order(self):
        etg = tiny_etg()
        idx = layer_param_indices(etg)
        flat = [i for t in idx.values() for i in t]
        assert flat == list(range(len(etg.params())))

    def test_tiny_topology_cuts_multiple_buckets(self):
        # the integration fault matrix targets bucket 0 *and* bucket 1;
        # this guards the premise that both exist at TINY_BUCKET bytes
        etg = tiny_etg()
        idx = layer_param_indices(etg)
        sizes = [p.nbytes for p in etg.params()]
        b = GradBucketer(idx, sizes, TINY_BUCKET)
        grads = etg.params()  # stand-ins: only shapes/sizes matter
        cut = []
        for layer, indices in idx.items():
            cut += b.land(layer, [grads[i] for i in indices])
        cut += b.finish(grads)
        assert len(cut) >= 2

    def test_cut_at_cap_and_exactly_once_coverage(self):
        idx = {"a": (0, 1), "b": (2,), "c": (3,)}
        sizes = [40, 40, 100, 8]
        b = GradBucketer(idx, sizes, 64)
        arrs = [np.zeros(s // 8) for s in sizes]
        first = b.land("a", arrs[:2])  # 80 bytes >= 64: cut now
        assert len(first) == 1
        spec, payload = first[0]
        assert spec.bucket_id == 0 and spec.indices == (0, 1)
        assert len(payload) == 2
        assert b.land("b", [arrs[2]]) != []  # 100 >= 64: its own bucket
        rest = b.finish(arrs)
        assert [s.indices for s, _ in rest] == [(3,)]
        assert b.buckets_cut == 3

    def test_finish_sweeps_layers_that_never_landed(self):
        idx = {"a": (0,), "b": (1,)}
        b = GradBucketer(idx, [8, 8], 1 << 20)
        cut = b.finish([np.zeros(1), np.ones(1)])
        assert len(cut) == 1
        spec, payload = cut[0]
        assert spec.indices == (0, 1)
        assert np.array_equal(payload[1], np.ones(1))

    def test_relanding_a_layer_is_idempotent(self):
        idx = {"a": (0,)}
        b = GradBucketer(idx, [8], 1 << 20)
        b.land("a", [np.zeros(1)])
        b.land("a", [np.zeros(1)])
        cut = b.finish([np.zeros(1)])
        assert cut[0][0].indices == (0,)


# ---------------------------------------------------------------------------
class TestChannels:
    def test_bucket_roundtrip_over_a_real_pipe(self):
        a, b = mp.Pipe()
        arrays = [np.arange(6, dtype=np.float32).reshape(2, 3)]
        n = send_bucket(a, "red", step=3, epoch=1, bucket_id=2, sender=0,
                        arrays=arrays)
        assert n > 0
        kind, step, epoch, bucket_id, sender, got = decode_bucket(
            b.recv(), culprit=0
        )
        assert (kind, step, epoch, bucket_id, sender) == ("red", 3, 1, 2, 0)
        assert np.array_equal(got[0], arrays[0])

    def test_corrupted_payload_fails_the_checksum(self):
        a, b = mp.Pipe()
        send_bucket(a, "red", 0, 0, 0, 1, [np.zeros(8)], corrupt=True)
        with pytest.raises(CorruptBucket, match="checksum") as ei:
            decode_bucket(b.recv(), culprit=1)
        assert ei.value.culprit == 1

    @pytest.mark.parametrize(
        "frame",
        [
            "not a tuple",
            ("bkt", "red", 0),  # too short
            ("wrong", "red", 0, 0, 0, 1, 0, b""),  # bad tag
            ("bkt", "red", "x", 0, 0, 1, 0, b""),  # non-int header
        ],
    )
    def test_malformed_frames_are_typed_errors(self, frame):
        with pytest.raises(CorruptBucket, match="malformed"):
            decode_bucket(frame, culprit=2)


class TestFaultSiteFilters:
    def test_bucket_filter_gates_collective_hop(self, clean_metrics):
        from repro.resilience.faults import FaultInjector

        plan = FaultPlan(specs=(FaultSpec(
            site="collective.hop", kind="corrupt_message", step=1,
            rank=2, bucket=3,
        ),))
        inj = FaultInjector(plan)
        assert inj.fire("collective.hop", step=1, rank=2, bucket=0) is None
        assert inj.fire("collective.hop", step=1, rank=0, bucket=3) is None
        hit = inj.fire("collective.hop", step=1, rank=2, bucket=3)
        assert hit is not None and hit.kind == "corrupt_message"


# ---------------------------------------------------------------------------
class TestHealthyCollective:
    def test_ring_matches_root_mode_bitwise(self, clean_metrics):
        ds = tiny_dataset()
        _, w_root, l_root = run_trainer(ds, allreduce="root", nodes=2)
        # root-mode workers keep replicas too: each is synced once, at
        # start, and never sent weights again
        assert clean_metrics.value("collective.syncs") == 2
        # one fold, three ways: the in-process data-parallel trainer
        ref = Trainer(tiny_etg(), lr=0.05, nodes=2)
        ref.fit(ds, batch_size=2, epochs=1)
        assert ref.metrics.losses == l_root
        assert all(np.array_equal(a, b)
                   for a, b in zip(weights_of(ref.etg), w_root))
        get_metrics().clear()
        t, w_ring, l_ring = run_trainer(
            ds, allreduce="ring", nodes=2, bucket_bytes=TINY_BUCKET
        )
        assert l_ring == l_root
        assert all(np.array_equal(a, b) for a, b in zip(w_ring, w_root))
        steps = len(l_ring)
        m = clean_metrics
        assert m.value("collective.steps") == steps
        assert m.value("collective.buckets") >= 2 * steps  # tiny buckets
        assert m.value("collective.bytes") > 0
        assert m.value("collective.hops") > 0
        assert m.value("collective.rebuilds") == 1
        assert m.value("collective.syncs") == 2  # initial broadcast only
        assert m.value("collective.aborts") == 0
        assert t.failures == []

    def test_overlap_spans_reach_the_root_tracer(self, clean_metrics):
        # workers follow the root's tracer state
        tracer = get_tracer().enable("spans")
        tracer.clear()
        ds = tiny_dataset(n=12)
        run_trainer(ds, allreduce="ring", nodes=2,
                    bucket_bytes=TINY_BUCKET)
        names = tracer.span_names()
        assert "collective.step" in names
        assert "collective.exposed" in names
        tracer.clear()

    def test_steps_wake_on_replies_not_the_poll_period(
        self, clean_metrics, monkeypatch
    ):
        # with the poll period stretched to 2 s, a step that sleeps it
        # out even once takes over 2 s; waiting on the pipes and the
        # engine, two healthy ring steps still finish well inside it
        monkeypatch.setattr(multiproc, "_POLL_S", 2.0)
        batches = list(tiny_dataset(n=12).batches(4, 1, seed=1))
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=2, seed=0,
            step_timeout=15.0, bucket_bytes=TINY_BUCKET,
        )
        try:
            t.train_step(*batches[0])  # warm-up: ETG builds, mesh, sync
            t0 = time.monotonic()
            for x, y in batches[1:3]:
                t.train_step(x, y)
            elapsed = time.monotonic() - t0
        finally:
            t.close()
        assert clean_metrics.value("collective.steps") == 3
        assert elapsed < 2.0, f"two ring steps took {elapsed:.2f}s"

    def test_invalid_allreduce_is_rejected(self):
        for mode in ("mesh", "tree"):
            with pytest.raises(ReproError, match="unknown allreduce"):
                ProcessParallelTrainer(
                    tiny_topology(), (2, *SHAPE), nodes=2, allreduce=mode
                )

    def test_single_node_degenerates_to_root(self):
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=1, allreduce="ring"
        )
        try:
            assert t.allreduce == "root"
        finally:
            t.close()


# ---------------------------------------------------------------------------
class TestMidCollectiveFaults:
    """SIGKILL and hang at every ring position, early and late buckets:
    the step completes degraded and recovers bit-identically."""

    @pytest.fixture(scope="class")
    def ring_reference(self):
        ds = tiny_dataset()
        get_metrics().clear()
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=3, seed=0,
            step_timeout=15.0, bucket_bytes=TINY_BUCKET,
        )
        try:
            t.fit(ds, batch_size=2, epochs=1)
            return ds, weights_of(t.etg), list(t.metrics.losses)
        finally:
            t.close()
            get_metrics().clear()

    @pytest.mark.parametrize(
        "kind,rank,bucket",
        [
            ("crash", 0, 0),   # first ring position, early bucket
            ("crash", 1, 1),   # middle position, late bucket
            ("crash", 2, 0),   # last position (the averaging rank)
            ("hang", 0, 1),
            ("hang", 1, 0),
            ("hang", 2, 1),
        ],
    )
    def test_fault_recovers_bit_identical(self, clean_metrics,
                                          ring_reference, kind, rank,
                                          bucket):
        ds, ref_w, ref_losses = ring_reference
        plan = FaultPlan(specs=(FaultSpec(
            site="collective.hop", kind=kind, step=1, rank=rank,
            bucket=bucket,
        ),))
        timeout = 2.0 if kind == "hang" else 15.0
        t, w, losses = run_trainer(
            ds, fault_plan=plan, bucket_bytes=TINY_BUCKET,
            step_timeout=timeout,
        )
        m = clean_metrics
        assert m.value("resilience.degraded_steps") == 1
        assert m.value("resilience.respawns") == 1
        assert m.value("collective.aborts") == 1
        assert [f.rank for f in t.failures] == [rank]
        assert losses == ref_losses
        assert all(np.array_equal(a, b) for a, b in zip(ref_w, w))

    def test_corrupt_hop_blames_the_sender(self, clean_metrics,
                                           ring_reference):
        ds, ref_w, ref_losses = ring_reference
        plan = FaultPlan(specs=(FaultSpec(
            site="collective.hop", kind="corrupt_message", step=2,
            rank=1, bucket=0,
        ),))
        t, w, losses = run_trainer(
            ds, fault_plan=plan, bucket_bytes=TINY_BUCKET
        )
        assert [f.rank for f in t.failures] == [1]
        assert clean_metrics.value("collective.errors.corrupt") == 1
        assert losses == ref_losses
        assert all(np.array_equal(a, b) for a, b in zip(ref_w, w))

    def test_simultaneous_crash_every_rank(self, clean_metrics,
                                           ring_reference):
        # all three ranks die at the same hop: the wait loop blames only
        # the first casualty it sees, so the others reach completion as
        # unblamed missing results -- they must still be recomputed,
        # never silently dropped from the fold divisor / loss weighting
        ds, ref_w, ref_losses = ring_reference
        plan = FaultPlan(specs=(FaultSpec(
            site="collective.hop", kind="crash", step=1, bucket=0,
        ),))
        t, w, losses = run_trainer(
            ds, fault_plan=plan, bucket_bytes=TINY_BUCKET,
            max_respawns=3,
        )
        m = clean_metrics
        assert m.value("resilience.degraded_steps") == 1
        assert m.value("resilience.respawns") == 3
        assert sorted(f.rank for f in t.failures) == [0, 1, 2]
        assert losses == ref_losses
        assert all(np.array_equal(a, b) for a, b in zip(ref_w, w))


# ---------------------------------------------------------------------------
class TestSatelliteRegressions:
    def test_every_worker_failed_respawns_before_raising(
        self, clean_metrics
    ):
        # regression: losing every worker once left the fleet
        # permanently dead.  Both lost shards are recomputed at the
        # root, both ranks respawn, and the next step trains on them
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=2, seed=0,
            step_timeout=15.0, max_respawns=4,
        )
        try:
            batches = list(tiny_dataset(n=12).batches(4, 1,
                                                      seed=t.shuffle_seed))
            t.train_step(*batches[0])
            for proc in list(t._procs):
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10)
            assert np.isfinite(t.train_step(*batches[1]))
            assert t.live_workers == 2
            assert clean_metrics.value("resilience.respawns") == 2
            assert sorted(f.rank for f in t.failures) == [0, 1]
            t.train_step(*batches[2])
            assert len(t.metrics.losses) == 3
            assert clean_metrics.value("resilience.degraded_steps") == 1
        finally:
            t.close()

    def test_recv_drains_every_queued_reply_of_a_dead_worker(self):
        # regression: _recv used to drain at most ONE queued message
        # after noticing the process died -- a worker that sent a stale
        # ack plus its real reply and then exited was misreported dead
        def chatty(conn):
            conn.send(("ringok", 7))
            conn.send(("grads", 3, "payload", 0.5, 0.5, None))
            conn.close()

        parent, child = mp.Pipe()
        proc = mp.get_context("fork").Process(target=chatty, args=(child,))
        proc.start()
        child.close()
        proc.join(timeout=10)
        time.sleep(0.1)  # ensure the death is observable before _recv
        t = object.__new__(ProcessParallelTrainer)
        t.step_timeout = 5.0
        t._conns = [parent]
        t._procs = [proc]
        reply = t._recv(0, want=(("grads",), 3))
        assert reply[0] == "grads" and reply[2] == "payload"

    def test_recv_wakes_on_worker_death_not_the_poll_period(
        self, monkeypatch
    ):
        # the pipe's far end stays open here, so no EOF announces the
        # death: only the process sentinel can wake the receive before
        # a 2 s poll period runs out
        monkeypatch.setattr(multiproc, "_POLL_S", 2.0)
        parent, child = mp.Pipe()
        proc = mp.get_context("fork").Process(target=time.sleep,
                                              args=(0.2,))
        proc.start()
        t = object.__new__(ProcessParallelTrainer)
        t.step_timeout = 10.0
        t._conns = [parent]
        t._procs = [proc]
        t0 = time.monotonic()
        try:
            with pytest.raises(multiproc.WorkerFailure,
                               match="process died"):
                t._recv(0)
        finally:
            proc.join(timeout=10)
            child.close()
        assert time.monotonic() - t0 < 1.5

    def test_worker_reply_crash_still_counts_the_step(
        self, clean_metrics
    ):
        # the mp.worker.reply site kills the worker right after its
        # reply is queued: the step must complete healthy off the
        # drained pipe, with the death only surfacing next step
        ds = tiny_dataset(n=12)
        _, ref_w, ref_losses = run_trainer(ds, allreduce="root")
        get_metrics().clear()
        plan = FaultPlan(specs=(FaultSpec(
            site="mp.worker.reply", kind="crash", step=0, rank=1,
        ),))
        t, w, losses = run_trainer(
            ds, allreduce="root", fault_plan=plan
        )
        m = get_metrics()
        assert losses[0] == ref_losses[0]  # step 0 completed healthy
        assert m.value("resilience.degraded_steps") == 1  # step 1 only
        assert m.value("resilience.respawns") == 1
        assert losses == ref_losses  # recompute keeps bit-identity
        assert all(np.array_equal(a, b) for a, b in zip(ref_w, w))
