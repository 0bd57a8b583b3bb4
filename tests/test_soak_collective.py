"""Collective chaos soak: sustained data-parallel training through a
drumbeat of mid-ring faults.

Gated behind ``REPRO_SOAK=1`` (CI's ``allreduce-smoke`` job runs it; a
plain ``pytest`` does not).  For ~30 seconds (``REPRO_SOAK_S``) per
all-reduce mode, one trainer fits epoch after epoch while a
probabilistic fault plan keeps killing, hanging and corrupting workers
(mid-collective in ring mode; the ``collective.hop`` faults never fire
in root mode, where no hop runs), and an external chaos thread SIGKILLs
a random worker between steps.  Both modes keep a weight replica in
every worker, so both must hold the same invariants.

The soak's invariants are the PR's acceptance criteria, held under
sustained chaos rather than in one-shot tests:

* every step terminates -- degraded or healthy, never wedged (the fit
  loop keeps advancing until time is up);
* the final weights are *bitwise identical* to an undisturbed run over
  the same batches (a lost shard is always recomputed at the root) --
  no injected fault may perturb training numerics;
* every loss stays finite and every fault is accounted for in the
  ``collective.*`` / ``resilience.*`` counters;
* every degraded step froze exactly one digest-verified
  :mod:`repro.forensics` incident bundle, and a sampled
  ``incident replay`` of the survivors is bitwise-exact;
* the metrics JSON written at the end, one per mode (``REPRO_SOAK_OUT``
  with the mode before its extension), is the CI artifact for
  post-mortems.
"""

import json
import os
import random
import signal
import threading
import time

import numpy as np
import pytest

from repro.gxm.data import SyntheticImageDataset
from repro.gxm.multiproc import ProcessParallelTrainer
from repro.models.resnet50 import resnet_mini_topology
from repro.obs.metrics import get_metrics
from repro.resilience import FaultPlan, FaultSpec

pytestmark = [
    pytest.mark.skipif(
        os.environ.get("REPRO_SOAK") != "1",
        reason="chaos soak runs only with REPRO_SOAK=1 (see CI "
               "allreduce-smoke)",
    ),
    pytest.mark.timeout(300),
]

SOAK_S = float(os.environ.get("REPRO_SOAK_S", "30"))
OUT = os.environ.get("REPRO_SOAK_OUT", "soak_collective_metrics.json")

SHAPE = (3, 8, 8)
NODES = 3


def _trainer(allreduce, **kw):
    return ProcessParallelTrainer(
        resnet_mini_topology(num_classes=4, width=8), (2, *SHAPE),
        nodes=NODES, seed=0, step_timeout=kw.pop("step_timeout", 3.0),
        bucket_bytes=1024, max_respawns=10**6, allreduce=allreduce, **kw,
    )


@pytest.mark.parametrize("allreduce", ["ring", "root"])
def test_collective_chaos_soak(tmp_path, allreduce):
    inc_dir = str(tmp_path / "incidents")
    ds = SyntheticImageDataset(n=24, num_classes=4, shape=SHAPE, seed=3)

    plan = FaultPlan(specs=(
        FaultSpec(site="collective.hop", kind="crash",
                  probability=0.02, count=10**6),
        FaultSpec(site="collective.hop", kind="hang",
                  probability=0.01, count=10**6),
        FaultSpec(site="collective.hop", kind="corrupt_message",
                  probability=0.02, count=10**6),
        FaultSpec(site="mp.worker.step", kind="crash",
                  probability=0.02, count=10**6),
    ), seed=7)
    get_metrics().clear()
    t = _trainer(allreduce, fault_plan=plan, incident_dir=inc_dir)
    stop = threading.Event()
    chaos_kills = [0]

    def chaos():
        # an *external* killer on top of the injected faults: SIGKILL a
        # random worker every few seconds, mimicking the OOM reaper
        rng = random.Random(11)
        while not stop.wait(max(2.0, SOAK_S / 6)):
            procs = [p for p in t._procs if p is not None and p.is_alive()]
            if procs:
                os.kill(rng.choice(procs).pid, signal.SIGKILL)
                chaos_kills[0] += 1

    killer = threading.Thread(target=chaos, daemon=True)
    deadline = time.monotonic() + SOAK_S
    epochs_done = 0
    losses: list[float] = []
    try:
        killer.start()
        # keep fitting one epoch at a time (weights carry over between
        # epochs) until the wall clock runs out, accumulating the full
        # loss trajectory; at least one epoch always completes
        while epochs_done == 0 or time.monotonic() < deadline:
            t.metrics.losses.clear()
            t.metrics.accuracies.clear()
            t.fit(ds, batch_size=2, epochs=1)
            losses.extend(t.metrics.losses)
            epochs_done += 1
        stop.set()
        killer.join(timeout=30.0)
        assert not killer.is_alive(), "chaos thread hung past the soak"
        weights = [p.copy() for p in t.etg.params()]
        failures = len(t.failures)
    finally:
        stop.set()
        t.close()

    snap = get_metrics().snapshot()
    counters = snap.get("counters", snap)
    doc = {
        "allreduce": allreduce,
        "soak_s": SOAK_S,
        "epochs_done": epochs_done,
        "chaos_kills": chaos_kills[0],
        "failures": failures,
        "losses": losses,
        "counters": {k: v for k, v in sorted(counters.items())
                     if isinstance(v, (int, float))},
    }
    base, ext = os.path.splitext(OUT)
    with open(f"{base}_{allreduce}{ext}", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)

    # --- the invariants -------------------------------------------------
    assert epochs_done >= 1, "the soak never completed an epoch"
    assert all(np.isfinite(loss) for loss in losses)
    # chaos actually happened and was absorbed, not dodged
    if chaos_kills[0] or failures:
        assert get_metrics().value("resilience.respawns") > 0
    # healthy ring steps commit between the repairs: each worker process
    # draws its own fault stream, so a respawned worker does not replay
    # the draws that brought its predecessor down
    if allreduce == "ring":
        assert counters.get("collective.steps", 0) > 0, (
            "no ring step committed during the soak"
        )
    # the trainer came out of the soak alive, not wedged
    assert t.live_workers == 0  # closed cleanly

    # bitwise: replay the same number of epochs undisturbed -- with
    # every lost shard recomputed no injected fault may perturb training
    # numerics, so the chaos run's full loss trajectory and final
    # weights must match the healthy run exactly
    ref_losses: list[float] = []
    ref = _trainer(allreduce)
    try:
        for _ in range(epochs_done):
            ref.metrics.losses.clear()
            ref.metrics.accuracies.clear()
            ref.fit(ds, batch_size=2, epochs=1)
            ref_losses.extend(ref.metrics.losses)
        ref_weights = [p.copy() for p in ref.etg.params()]
    finally:
        ref.close()
    assert losses == ref_losses, (
        f"trajectory diverged over {epochs_done} epochs"
    )
    assert all(np.array_equal(a, b) for a, b in zip(weights, ref_weights))

    # forensics: every degraded step froze exactly one digest-verified
    # bundle (no capture ever failed), and a sampled replay of the
    # survivors reproduces the recomputed gradients bitwise
    from repro.forensics import list_incidents, replay_incident

    degraded = int(counters.get("resilience.degraded_steps", 0))
    assert counters.get("forensics.bundle_errors", 0) == 0
    rows = list_incidents(inc_dir)
    bad = [r for r in rows if not r["valid"]]
    assert not bad, f"invalid bundles after the soak: {bad[:3]}"
    assert len(rows) == degraded, (
        f"{len(rows)} bundles for {degraded} degraded steps"
    )
    replays = 0
    for row in rows[:3]:
        rep = replay_incident(row["path"])
        assert rep["ok"] and rep["mode"] == "train"
        replays += 1
    if degraded:
        assert replays >= 1, "chaos degraded steps but nothing replayed"
