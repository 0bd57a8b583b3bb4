"""Lifecycle chaos soak: sustained load through drains, reloads,
rollbacks, a slow worker and tight deadlines.

Gated behind ``REPRO_SOAK=1`` (CI's ``lifecycle-smoke`` job runs it; a
plain ``pytest`` does not).  For ~30 seconds (``REPRO_SOAK_S``), client
threads hammer one server through :class:`ServeClient` while an
operator thread cycles drain -> resume -> reload; a fault plan keeps
the worker intermittently slow and fails the first few reload canaries.

The soak's invariants are the PR's acceptance criteria, held under
sustained chaos rather than in one-shot tests:

* every request terminates in bounded time with a vocabulary outcome
  (probs / shed / deadline / timeout / closed) -- never a hang, never a
  foreign exception;
* every successful answer is bitwise one of the two legitimate weight
  sets (old or new) -- a half-swapped replica would show up here;
* canary-failed reloads roll back (old weights keep serving), the
  successful one swaps;
* every canary rollback froze exactly one digest-verified
  :mod:`repro.forensics` incident bundle, and a sampled
  ``incident replay`` of the survivors is bitwise-exact;
* the metrics JSON written at the end (``REPRO_SOAK_OUT``) is the CI
  artifact for post-mortems.
"""

import json
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.gxm.checkpoint import save_checkpoint
from repro.gxm.inference import InferenceSession
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.serve import (
    CanaryError,
    ClientConfig,
    DeadlineExceeded,
    InferenceServer,
    RequestShed,
    ServeClient,
    ServeConfig,
    ServerClosed,
)

pytestmark = [
    pytest.mark.skipif(
        os.environ.get("REPRO_SOAK") != "1",
        reason="chaos soak runs only with REPRO_SOAK=1 (see CI "
               "lifecycle-smoke)",
    ),
    pytest.mark.timeout(300),
]

SOAK_S = float(os.environ.get("REPRO_SOAK_S", "30"))
OUT = os.environ.get("REPRO_SOAK_OUT", "soak_lifecycle_metrics.json")
#: canary-failing reload attempts before reloads start succeeding
ROLLBACKS = 2


def _reference(cfg, checkpoint, x):
    from repro.gxm.checkpoint import load_checkpoint

    etg = cfg.build_etg(1)
    load_checkpoint(etg, checkpoint)
    with InferenceSession(etg) as sess:
        return sess.predict(x[None])[0].copy()


def test_lifecycle_chaos_soak(tmp_path):
    inc_dir = str(tmp_path / "incidents")
    cfg = ServeConfig(buckets=(1, 2, 4), batch_window_ms=1.0,
                      queue_capacity=64, max_queue_wait_ms=250.0)
    ck_a = str(tmp_path / "a.npz")
    ck_b = str(tmp_path / "b.npz")
    save_checkpoint(replace(cfg, seed=11).build_etg(1), ck_a)
    save_checkpoint(replace(cfg, seed=22).build_etg(1), ck_b)
    x = np.random.default_rng(3).standard_normal(
        cfg.input_shape
    ).astype(np.float32)
    ref_a = _reference(cfg, ck_a, x)
    ref_b = _reference(cfg, ck_b, x)
    assert not np.array_equal(ref_a, ref_b)

    plan = FaultPlan((
        # an intermittently slow worker for the whole soak: ages batches
        # toward their deadlines and exercises the EWMA backpressure
        FaultSpec(site="serve.worker.slow", kind="slow", delay_s=0.02,
                  probability=0.25, count=10**6),
        # the first ROLLBACKS reload canaries fail deterministically
        FaultSpec(site="serve.reload.canary_fail", kind="canary_fail",
                  count=ROLLBACKS),
    ))
    server = InferenceServer(
        replace(cfg, checkpoint=ck_a, incident_dir=inc_dir),
        fault_injector=FaultInjector(plan),
    )
    server.start()

    outcomes = {"ok": 0, "shed": 0, "deadline": 0, "timeout": 0,
                "closed": 0}
    foreign_errors: list = []
    bad_outputs = 0
    lock = threading.Lock()
    stop = threading.Event()
    client = ServeClient(server, config=ClientConfig(
        timeout_s=5.0, max_retries=2, backoff_base_s=0.005,
        backoff_max_s=0.05,
    ))

    def hammer(idx):
        # half the clients run with a tight-ish deadline, half without
        deadline_ms = 150.0 if idx % 2 == 0 else None
        nonlocal bad_outputs
        while not stop.is_set():
            try:
                out = client.predict(x, deadline_ms=deadline_ms)
                good = (np.array_equal(out, ref_a)
                        or np.array_equal(out, ref_b))
                with lock:
                    outcomes["ok"] += 1
                    if not good:
                        bad_outputs += 1
            except RequestShed:
                with lock:
                    outcomes["shed"] += 1
            except DeadlineExceeded:
                with lock:
                    outcomes["deadline"] += 1
            except TimeoutError:
                with lock:
                    outcomes["timeout"] += 1
            except ServerClosed:
                with lock:
                    outcomes["closed"] += 1
            except Exception as err:  # noqa: BLE001 -- the invariant
                with lock:
                    foreign_errors.append(repr(err))

    ops_log: list[dict] = []

    def operator():
        """drain -> resume -> reload, round-robin, until time is up."""
        targets = [ck_b, ck_a]
        i = 0
        while not stop.wait(max(1.0, SOAK_S / 8)):
            try:
                report = server.drain(timeout_s=5.0)
                ops_log.append({"op": "drain", **report})
                server.resume()
                target = targets[i % 2]
                i += 1
                try:
                    r = server.reload_checkpoint(target)
                    ops_log.append({"op": "reload", "ok": True,
                                    "checkpoint": target,
                                    "duration_s": r["duration_s"]})
                except CanaryError as err:
                    ops_log.append({"op": "reload", "ok": False,
                                    "checkpoint": target,
                                    "error": str(err)})
            except Exception as err:  # noqa: BLE001 -- must be visible
                ops_log.append({"op": "operator_error",
                                "error": repr(err)})

    clients = [threading.Thread(target=hammer, args=(i,), daemon=True)
               for i in range(6)]
    ops = threading.Thread(target=operator, daemon=True)
    for t in clients:
        t.start()
    ops.start()
    time.sleep(SOAK_S)
    stop.set()
    for t in clients:
        t.join(timeout=30.0)
        assert not t.is_alive(), "client thread hung past the soak"
    ops.join(timeout=30.0)
    assert not ops.is_alive(), "operator thread hung past the soak"
    stats = server.stats()
    health = server.health()
    server.stop()

    doc = {
        "soak_s": SOAK_S,
        "outcomes": outcomes,
        "bad_outputs": bad_outputs,
        "foreign_errors": foreign_errors,
        "ops": ops_log,
        "client": client.stats(),
        "server_counters": stats["counters"],
        "server_gauges": stats["gauges"],
        "health": health,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)

    # --- the invariants -------------------------------------------------
    assert not foreign_errors, foreign_errors[:5]
    assert bad_outputs == 0, (
        f"{bad_outputs} responses matched neither weight set bitwise"
    )
    assert outcomes["ok"] > 0, "the soak served nothing"
    counters = stats["counters"]
    reload_oks = [op for op in ops_log
                  if op["op"] == "reload" and op.get("ok")]
    reload_fails = [op for op in ops_log
                    if op["op"] == "reload" and not op.get("ok", True)]
    assert len(reload_fails) == counters.get("serve.reload.rollbacks", 0)
    assert len(reload_oks) == counters.get("serve.reloads", 0)
    # the injected canary failures hit exactly the first ROLLBACKS
    # attempts; everything after swaps cleanly
    attempts = len(reload_oks) + len(reload_fails)
    assert len(reload_fails) == min(ROLLBACKS, attempts)
    assert not [op for op in ops_log if op["op"] == "operator_error"], (
        [op for op in ops_log if op["op"] == "operator_error"][:3]
    )
    # the server came out of the soak serving, not wedged
    assert health["status"] in ("ok", "degraded")
    assert health["live_workers"] >= 1

    # forensics: every canary rollback froze exactly one digest-verified
    # bundle (never a capture failure), and a sampled replay rebuilds
    # the rejected engine bitwise
    from repro.forensics import list_incidents, replay_incident

    assert counters.get("forensics.bundle_errors", 0) == 0
    rows = list_incidents(inc_dir)
    bad = [r for r in rows if not r["valid"]]
    assert not bad, f"invalid bundles after the soak: {bad[:3]}"
    assert len(rows) == counters.get("serve.reload.rollbacks", 0), (
        f"{len(rows)} bundles for "
        f"{counters.get('serve.reload.rollbacks', 0)} rollbacks"
    )
    for row in rows[:2]:
        rep = replay_incident(row["path"])
        assert rep["ok"] and rep["mode"] == "serve"
