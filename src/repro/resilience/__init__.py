"""repro.resilience -- deterministic fault injection + fault survival.

The paper's value proposition is *sustained* throughput on long-running
workloads: multi-node data-parallel training (section II-L) and dumped
weights "used for inference tasks afterwards".  This package makes the
faults such runs meet first-class and testable:

* :class:`FaultPlan` / :class:`FaultInjector` (:mod:`.faults`) --
  seeded, deterministic injection of worker crashes, hangs, corrupt
  messages, NaN gradients and corrupt artifacts at named sites.
* :class:`NumericsWatchdog` (:mod:`.watchdog`) -- pre-step NaN/Inf
  gradient screen with per-node attribution and a skip-step-or-raise
  policy.
* Typed failures -- :class:`WorkerFailure` (a training worker died,
  hung, or replied garbage), :class:`DivergenceError` (numerics) and
  :class:`InjectedFault` (a fault acting itself out).

The systems wired to survive these faults:

* :class:`~repro.gxm.multiproc.ProcessParallelTrainer` -- timeout-guarded
  pipes, dead-worker detection, per-step degradation (lost shards
  recomputed at the root for bit-identical numerics), bounded respawn
  with a weight re-sync of the fresh replica.
* :mod:`repro.collective` -- the overlapped ring all-reduce those
  workers run: CRC'd epoch-stamped hops rejected with typed
  :class:`~repro.collective.CollectiveError`\\ s, hop-level fault
  injection (site ``collective.hop``, targetable per rank *and*
  bucket), and ring repair that completes a step degraded -- still
  bit-identical -- when a worker is lost mid-collective.
* :class:`~repro.gxm.trainer.Trainer` / ``ProcessParallelTrainer`` --
  atomic :func:`~repro.gxm.checkpoint.save_training_checkpoint`
  autosave (weights + SGD velocity + step + metrics) and exact-to-the-
  step ``resume()``.
* :class:`~repro.serve.server.InferenceServer` -- worker supervisor
  (a crashed worker thread restarted with backoff), degrade-to-
  ``interpret`` on compiled-tier failure, and a ``/healthz`` readiness
  payload reporting the worker's liveness and degraded state.

Observability (:mod:`repro.obs` counters): ``resilience.faults_injected``,
``resilience.respawns``, ``resilience.degraded_steps``,
``resilience.skipped_steps``, ``resilience.nan_grads_detected``,
``serve.worker_restarts``, ``serve.tier_degraded``.
"""

from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    WorkerFailure,
    corrupt_file,
)
from repro.resilience.watchdog import DivergenceError, NumericsWatchdog

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "WorkerFailure",
    "DivergenceError",
    "NumericsWatchdog",
    "corrupt_file",
]
