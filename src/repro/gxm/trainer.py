"""SGD training loop over an ExecutionTaskGraph.

Supports simulated data-parallel multi-node training: the global minibatch
is split across ``nodes`` replicas, each runs fwd/bwd/upd on its shard, and
the weight gradients are all-reduced (averaged) before the SGD step --
numerically the MLSL exchange of section II-L.  (One process hosts all
replicas; the *timing* of the exchange is modelled in
:mod:`repro.gxm.mlsl`, and
:class:`~repro.gxm.multiproc.ProcessParallelTrainer` runs the same step
with its shards in worker processes.)

Resilience: a :class:`~repro.resilience.watchdog.NumericsWatchdog`
screens gradients before every optimizer step (``nan_policy``), and
periodic :func:`~repro.gxm.checkpoint.save_training_checkpoint` autosave
plus :meth:`Trainer.resume` give crash recovery that is exact to the
step -- weights, SGD velocity and metrics all restored, and the data
order rewound by deterministic replay of the shuffle stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.collective.ring import fold_ring
from repro.gxm.etg import ExecutionTaskGraph
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.watchdog import NumericsWatchdog

__all__ = ["SGD", "Trainer", "TrainMetrics"]


class SGD:
    """SGD with momentum and weight decay, updating arrays in place."""

    def __init__(
        self,
        params: list[np.ndarray],
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        for p, g, v in zip(self.params, grads, self._velocity):
            if self.weight_decay:
                g = g + self.weight_decay * p
            v *= self.momentum
            v += g
            p -= self.lr * v


@dataclass
class TrainMetrics:
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    def smoothed_losses(self, k: int = 5) -> list[float]:
        out = []
        for i in range(len(self.losses)):
            lo = max(0, i - k + 1)
            out.append(sum(self.losses[lo : i + 1]) / (i + 1 - lo))
        return out


def shard_mean(shards, values) -> float:
    """Mean of per-shard values weighted by shard size, summed in rank
    order."""
    return sum(v * len(s) for s, v in zip(shards, values)) / sum(
        len(s) for s in shards
    )


class Trainer:
    """Minibatch SGD driver, optionally data-parallel over ``nodes``.

    ``nan_policy`` arms the numerics watchdog (``"raise"``/``"skip"``/
    ``"off"``); ``checkpoint_path`` + ``checkpoint_every`` autosave a
    training checkpoint every N optimizer steps (atomic write).
    """

    def __init__(
        self,
        etg: ExecutionTaskGraph,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        nodes: int = 1,
        lr_schedule=None,
        nan_policy: str = "raise",
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        shuffle_seed: int = 1,
        fault_plan: FaultPlan | None = None,
    ):
        self.etg = etg
        self.nodes = nodes
        self.opt = SGD(etg.params(), lr, momentum, weight_decay)
        self.lr_schedule = lr_schedule
        self.iteration = 0
        self.metrics = TrainMetrics()
        self.watchdog = NumericsWatchdog(nan_policy)
        self.injector = FaultInjector(fault_plan) if fault_plan else None
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        #: seed of the shuffle stream :meth:`fit` drives the dataset with
        #: -- pinned here so a resumed run replays the identical order
        self.shuffle_seed = shuffle_seed
        #: batches the next :meth:`fit` call fast-forwards past (set by
        #: :meth:`resume`, consumed once)
        self._resume_skip = 0

    def train_step(self, x: np.ndarray, labels: np.ndarray) -> float:
        """One global-minibatch step; with ``nodes > 1`` the batch is
        sharded and the gradients averaged (the MLSL all-reduce)."""
        tracer = get_tracer()
        if tracer.enabled:
            t0 = time.perf_counter()
            with tracer.span(
                "train.step", minibatch=len(labels), nodes=self.nodes,
            ):
                loss = self._train_step(x, labels)
            dt = time.perf_counter() - t0
            if dt > 0:
                get_metrics().set_gauge(
                    "train.imgs_per_s", len(labels) / dt
                )
            return loss
        return self._train_step(x, labels)

    def _train_step(self, x: np.ndarray, labels: np.ndarray) -> float:
        if self.lr_schedule is not None:
            self.opt.lr = self.lr_schedule.lr(self.iteration)
        step = self.iteration
        self.iteration += 1
        avg, loss, acc = self._gradients(step, x, labels)
        if avg is None:
            # skip policy: the step is dropped, the weights untouched
            self.watchdog.skipped()
        else:
            self.opt.step(avg)
        self.metrics.losses.append(float(loss))
        self.metrics.accuracies.append(float(acc))
        self._maybe_autosave()
        return float(loss)

    def _gradients(self, step: int, x: np.ndarray, labels: np.ndarray):
        """The step's gradients (averaged over the shards; ``None`` when
        the watchdog drops the step), loss and accuracy.  This is the
        one seam :class:`~repro.gxm.multiproc.ProcessParallelTrainer`
        overrides to produce the shards in worker processes."""
        if self.nodes == 1:
            loss = self.etg.train_step(x, labels)
            acc = self.etg.accuracy()
            grads = self.etg.grads()
            self._maybe_poison(grads, step)
            ok = self.watchdog.check(grads, node="local", step=step)
            return (grads if ok else None), loss, acc
        shards = np.array_split(np.arange(len(labels)), self.nodes)
        results = []
        for rank, shard in enumerate(shards):
            loss = self.etg.train_step(x[shard], labels[shard])
            acc = self.etg.accuracy()
            g = [gr.copy() for gr in self.etg.grads()]
            self._maybe_poison(g, step, rank=rank)
            results.append((g, loss, acc))
        return self._fold(step, shards, results, node="replica")

    def _fold(self, step: int, shards, results, node: str):
        """Finish a data-parallel step from every shard's ``(grads,
        loss, acc)`` in rank order: the watchdog checks each shard (and
        names its rank), the gradients fold in rank order
        (:func:`~repro.collective.ring.fold_ring`, the MLSL all-reduce)
        and the loss and accuracy are weighted by shard size."""
        ok = True
        for rank, (g, _, _) in enumerate(results):
            ok = self.watchdog.check(g, node=f"{node}{rank}", step=step) and ok
        avg = fold_ring([r[0] for r in results], self.nodes) if ok else None
        return (avg, shard_mean(shards, [r[1] for r in results]),
                shard_mean(shards, [r[2] for r in results]))

    def _maybe_poison(
        self, grads: list[np.ndarray], step: int, rank: int | None = None
    ) -> None:
        """The ``trainer.grads`` fault-injection site (``nan_grad``)."""
        if self.injector is None:
            return
        fault = self.injector.fire("trainer.grads", step=step, rank=rank)
        if fault is not None and fault.kind == "nan_grad":
            grads[fault.param % len(grads)].flat[0] = np.nan

    def _maybe_autosave(self) -> None:
        if (
            self.checkpoint_path
            and self.checkpoint_every
            and self.iteration % self.checkpoint_every == 0
        ):
            self.save(self.checkpoint_path)

    def fit(self, dataset, batch_size: int, epochs: int = 1) -> TrainMetrics:
        # per-node batch x nodes = global minibatch, like the paper's
        # runs.  The first fit after :meth:`resume` fast-forwards the
        # deterministic shuffle stream past the steps already taken, so
        # the post-resume data order -- hence the whole trajectory -- is
        # bit-identical to an uninterrupted run's (call fit with the
        # same batch size and total epochs as the interrupted run).
        skip, self._resume_skip = self._resume_skip, 0
        for i, (x, y) in enumerate(
            dataset.batches(
                batch_size * self.nodes, epochs, seed=self.shuffle_seed
            )
        ):
            if i < skip:
                continue
            self.train_step(x, y)
        return self.metrics

    # -- crash recovery -------------------------------------------------
    def save(self, path_or_file) -> None:
        """Atomically checkpoint weights + SGD velocity + step +
        trajectory (see :func:`~repro.gxm.checkpoint
        .save_training_checkpoint`)."""
        from repro.gxm.checkpoint import save_training_checkpoint

        save_training_checkpoint(
            path_or_file,
            self.etg,
            self.opt,
            step=self.iteration,
            losses=self.metrics.losses,
            accuracies=self.metrics.accuracies,
            rng_state={
                "shuffle_seed": self.shuffle_seed,
                "batches_consumed": self.iteration,
            },
            injector=self.injector,
        )

    def resume(self, path_or_file) -> int:
        """Restore a :meth:`save`d checkpoint; returns the step to
        continue from.  Weights, SGD velocity, step counter and the
        recorded metrics are all exact; a following :meth:`fit` replays
        the shuffle stream up to the restored step, so the continued
        trajectory is bit-identical to a run that never stopped."""
        from repro.gxm.checkpoint import load_training_checkpoint

        ck = load_training_checkpoint(path_or_file, self.etg, self.opt)
        self.iteration = ck.step
        self._resume_skip = ck.step
        self.metrics.losses = list(ck.losses)
        self.metrics.accuracies = list(ck.accuracies)
        if ck.rng_state and "shuffle_seed" in ck.rng_state:
            self.shuffle_seed = ck.rng_state["shuffle_seed"]
        return ck.step
