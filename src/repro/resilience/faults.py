"""Deterministic, seeded fault injection.

Long-running modes of the system (process-parallel training, serving)
must treat faults as a first-class, *tested* scenario.  The pieces:

* :class:`FaultSpec` -- one fault: *what* (``kind``), *where* (a named
  ``site``), *when* (``step``/``rank`` filters, an optional seeded
  ``probability``) and *how often* (``count``).
* :class:`FaultPlan` -- a picklable set of specs plus the RNG seed, so
  worker **processes** rebuild their injectors from the plan, each
  drawing from its own stream (keyed by rank and incarnation).
* :class:`FaultInjector` -- the runtime hook.  Call sites ask
  ``injector.fire(site, step=..., rank=...)``; a returned spec means
  "this fault fires here, now".  The injector is cheap when no plan is
  armed (a single ``None`` check at each site) and thread-safe on the
  root side.

Named sites wired into the library (callers may add their own):

======================  ====================================================
site                    kinds honoured there
======================  ====================================================
``mp.worker.step``      ``crash`` (``os._exit``), ``hang`` (sleep until the
                        root's timeout kills the process), ``nan_grad``
                        (poisons one gradient tensor), ``corrupt_message``
                        (malformed reply tuple)
``trainer.grads``       ``nan_grad`` on the in-process :class:`Trainer`
``serve.worker.crash``  ``crash`` -- the serving worker thread dies after
                        completing its current batch (the supervisor
                        restarts it)
``serve.replica.run``   ``tier_fail`` -- the compiled execution tier fails
                        once, forcing degrade-to-``interpret``
``serve.worker.slow``   ``slow`` -- the serving worker stalls ``delay_s``
                        seconds before running its batch (drives request
                        deadlines past expiry deterministically)
``serve.reload.canary_fail``  ``canary_fail`` -- the shadow replica's canary
                        batch is rejected during
                        :meth:`~repro.serve.server.InferenceServer
                        .reload_checkpoint`, forcing a rollback
``mp.worker.step``      additionally ``slow`` -- the training worker sleeps
                        ``delay_s`` before computing its shard (latency,
                        not death: the root's timeout must NOT reap it)
``tune.candidate``      ``corrupt_message`` -- the autotuner's compiled
                        probe output is scribbled before the bit-exact
                        comparison; the validator must reject the
                        candidate (it never enters the tuning database)
                        and the search continues with the next finalist
``collective.hop``      ``crash`` / ``hang`` / ``corrupt_message`` /
                        ``slow`` inside the peer-to-peer all-reduce
                        (:mod:`repro.collective`), filtered by ``rank``
                        **and** ``bucket`` -- the fault fires just
                        before the chosen rank forwards the chosen
                        gradient bucket, so any ring position x
                        early/late-bucket combination is reachable
``mp.worker.reply``     ``crash`` -- the training worker exits
                        immediately *after* its reply is queued on the
                        pipe (the replied-then-died race the root's
                        drain loop must tolerate)
``checkpoint.save``     ``crash`` -- the checkpoint writer dies between
                        the tmp-sibling write and the ``os.replace``
                        (the torn-write window); the last good
                        checkpoint under the final name must survive
                        untouched
======================  ====================================================

Injected faults count into ``resilience.faults_injected`` and every
firing is recorded into the process's tracer ring (``fault.fire``
events, :mod:`repro.obs.tracer`), so an incident bundle shows exactly
which injected faults preceded the failure.
:func:`corrupt_file` deterministically flips bytes of an on-disk
artifact -- the "artifact corruption" fault for checkpoint tests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.types import ReproError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "WorkerFailure",
    "corrupt_file",
]

_KINDS = (
    "crash",
    "hang",
    "nan_grad",
    "corrupt_message",
    "tier_fail",
    "slow",
    "canary_fail",
)


class InjectedFault(ReproError):
    """Raised by a call site to *act out* an injected fault (e.g. a
    serving worker thread terminating itself)."""


class WorkerFailure(ReproError):
    """A training worker process failed (died, hung past the timeout,
    or returned a corrupt message).  Typed so the root can catch it per
    rank and degrade instead of deadlocking."""

    def __init__(self, rank: int, reason: str):
        super().__init__(f"worker {rank}: {reason}")
        self.rank = rank
        self.reason = reason


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``site`` names the hook; ``kind`` what happens there.  ``step`` and
    ``rank`` (``None`` = any) narrow when/where it fires; ``count``
    bounds how many times; ``probability`` < 1 draws from the plan's
    seeded RNG, so stochastic campaigns stay reproducible.  ``param``
    selects which tensor a ``nan_grad`` poisons; ``delay_s`` how long a
    ``slow`` fault stalls its call site; ``bucket`` (``None`` = any)
    narrows collective-site faults to one gradient bucket.
    """

    site: str
    kind: str
    step: int | None = None
    rank: int | None = None
    count: int = 1
    probability: float = 1.0
    param: int = 0
    delay_s: float = 0.05
    bucket: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.count < 1:
            raise ReproError("fault count must be >= 1")
        if not 0.0 < self.probability <= 1.0:
            raise ReproError("fault probability must be in (0, 1]")
        if self.delay_s < 0:
            raise ReproError("fault delay_s must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A picklable fault campaign: specs + the seed every injector built
    from this plan draws from (see :class:`FaultInjector`'s
    ``spawn_key``)."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))


class FaultInjector:
    """Runtime fault hook built from a :class:`FaultPlan`.

    ``fire`` returns the matching :class:`FaultSpec` (decrementing its
    remaining count) or ``None``.  With no plan armed the injector is a
    no-op costing one attribute check per site.

    Probability draws come from ``SeedSequence(plan.seed,
    spawn_key=spawn_key)``.  The default empty key is
    ``default_rng(plan.seed)``; a trainer worker process passes
    ``(rank, incarnation)``, so workers draw independent sequences and a
    respawned worker does not replay its predecessor's draws.
    """

    def __init__(
        self, plan: FaultPlan | None = None, metrics=None,
        spawn_key: tuple[int, ...] = (),
    ):
        self.plan = plan
        self.spawn_key = tuple(spawn_key)
        self._metrics = metrics if metrics is not None else get_metrics()
        self._lock = threading.Lock()
        self._remaining = (
            [spec.count for spec in plan.specs] if plan else []
        )
        self._rng = np.random.default_rng(np.random.SeedSequence(
            plan.seed if plan else 0, spawn_key=self.spawn_key,
        ))

    @property
    def enabled(self) -> bool:
        return self.plan is not None and any(
            n > 0 for n in self._remaining
        )

    def fire(
        self,
        site: str,
        *,
        step: int | None = None,
        rank: int | None = None,
        bucket: int | None = None,
    ) -> FaultSpec | None:
        """The matching armed fault for this (site, step, rank, bucket)."""
        if self.plan is None:
            return None
        with self._lock:
            for i, spec in enumerate(self.plan.specs):
                if self._remaining[i] <= 0 or spec.site != site:
                    continue
                if spec.step is not None and step != spec.step:
                    continue
                if spec.rank is not None and rank != spec.rank:
                    continue
                if spec.bucket is not None and bucket != spec.bucket:
                    continue
                if spec.probability < 1.0 and (
                    self._rng.random() >= spec.probability
                ):
                    continue
                self._remaining[i] -= 1
                self._metrics.inc("resilience.faults_injected")
                tracer = get_tracer()
                if tracer.recording:
                    tracer.record(
                        "fault.fire", site=site, kind=spec.kind,
                        step=step, rank=rank, bucket=bucket,
                    )
                return spec
        return None

    # -- picklability: the lock stays root-side; a worker process
    # rebuilds its own injector from the (picklable) plan ------------
    def __reduce__(self):
        return (FaultInjector, (self.plan, None, self.spawn_key))


def corrupt_file(path: str, n_bytes: int = 64, seed: int = 0) -> int:
    """Deterministically flip up to ``n_bytes`` bytes in the middle of
    ``path`` (the artifact-corruption fault).  Returns how many bytes
    were flipped."""
    rng = np.random.default_rng(seed)
    with open(path, "r+b") as fh:
        fh.seek(0, 2)
        size = fh.tell()
        if size == 0:
            return 0
        n = min(n_bytes, size)
        # flip a contiguous run in the middle: headers often survive,
        # which is exactly the nasty case (parseable but wrong)
        start = max(0, size // 2 - n // 2)
        fh.seek(start)
        blob = bytearray(fh.read(n))
        for i in range(len(blob)):
            blob[i] ^= int(rng.integers(1, 256))
        fh.seek(start)
        fh.write(bytes(blob))
    return n
