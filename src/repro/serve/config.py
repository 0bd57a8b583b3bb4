"""Serving configuration: the frozen description of what a server runs.

Everything shape- or engine-dependent is pinned here so that the
replica, incident replays and load generators all agree on it.  The
``fingerprint`` digests every field that changes the engines a replica
builds; incident bundles carry it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.jit.tiers import as_tier
from repro.types import ReproError

__all__ = ["ServeConfig", "ServeConfigError"]

_MODELS = ("resnet_mini", "inception_mini")
_ENGINES = ("fast", "blocked")
#: sentinel: "use the configured tier" (``None`` means process default)
_UNSET = object()


class ServeConfigError(ReproError, ValueError):
    """An invalid :class:`ServeConfig` field, rejected at construction.

    Doubles as a ``ValueError`` so callers validating user input (CLI,
    HTTP admin) can catch the standard type; before this, a zero queue
    capacity or negative batch window surfaced as a confusing runtime
    hang instead of an error at the obvious place.
    """


@dataclass(frozen=True)
class ServeConfig:
    """What one :class:`~repro.serve.server.InferenceServer` serves.

    Parameters
    ----------
    model, width, num_classes, input_shape:
        Topology and the per-request image shape ``(C, H, W)``.
    engine:
        ``"fast"`` (BLAS reference semantics; the throughput engine) or
        ``"blocked"`` (the full kernel-stream engine, one dryrun per conv
        layer and bucket at boot).
    execution_tier:
        Kernel-stream tier for ``"blocked"`` -- ``"compiled"`` or
        ``"interpret"`` (an :class:`~repro.jit.ExecutionTier` or its
        string spelling; ``None`` = process default, i.e. ``compiled``).
        Unknown names are rejected at construction with the valid tiers
        listed.
    buckets:
        Ascending micro-batch sizes.  A batch of ``n`` pending requests
        is padded up to the smallest bucket >= n; engines exist only for
        bucket shapes, never for arbitrary ``n``.
    queue_capacity:
        Admission bound; a request arriving at a full queue is shed.
    batch_window_ms:
        The longest the worker holds a batch open for more requests once
        one is pending.  A batch closes sooner when the largest bucket
        fills, or when no request has arrived for a quarter of this
        (:data:`repro.serve.admission.IDLE_FRACTION`), so a lone request
        waits 0.5 ms at the default, not 2 ms.  ``0`` takes what is
        queued without waiting.
    max_queue_wait_ms:
        Adaptive backpressure budget: admission sheds a request whose
        *estimated* queue wait (EWMA of per-request service time x
        queue depth) exceeds this, long before the hard
        ``queue_capacity`` is hit.  ``None`` disables the estimator and
        keeps depth-only shedding.
    tune_db:
        Path to a :mod:`repro.tune` database consulted for every blocked
        conv layer's blocking plan at engine build time (``None`` = paper
        heuristics).  A missing or corrupt artifact degrades to the
        heuristics per layer.  The *content digest* of the database (not
        the path) is folded into :meth:`fingerprint`: different tuned
        plans record different streams.
    incident_dir:
        Directory for :mod:`repro.forensics` incident bundles.  When
        set, the server raises the process-wide tracer to at least its
        ``"events"`` state (:mod:`repro.obs.tracer`), and a canary
        rollback or ``POST /admin/dump`` freezes an atomic,
        digest-verified bundle here.  ``None`` (default) disables
        capture entirely.  It does
        not affect recorded streams, so it stays out of the fingerprint.
    """

    model: str = "resnet_mini"
    width: int = 32
    num_classes: int = 8
    input_shape: tuple[int, int, int] = (16, 8, 8)
    engine: str = "fast"
    execution_tier: str | None = None
    machine: str = "SKX"
    threads: int = 1
    buckets: tuple[int, ...] = (1, 2, 4, 8, 16)
    queue_capacity: int = 256
    batch_window_ms: float = 2.0
    max_queue_wait_ms: float | None = None
    seed: int = 7
    checkpoint: str | None = field(default=None, compare=False)
    tune_db: str | None = None
    incident_dir: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ServeConfigError(
                f"unknown serve model {self.model!r}; expected {_MODELS}"
            )
        if self.engine not in _ENGINES:
            raise ServeConfigError(
                f"unknown serve engine {self.engine!r}; expected {_ENGINES}"
            )
        tier = self.execution_tier
        if tier is not None:
            # validate eagerly (UnknownTierError is a ValueError too) and
            # normalize to the canonical string spelling so fingerprints
            # are stable across enum/string call sites
            tier = str(as_tier(tier))
        object.__setattr__(self, "execution_tier", tier)
        buckets = tuple(int(b) for b in self.buckets)
        if not buckets:
            raise ServeConfigError(
                "buckets must not be empty: a server with no micro-batch "
                "bucket can never build an engine (supply e.g. (1, 2, 4))"
            )
        if any(b < 1 for b in buckets):
            raise ServeConfigError(
                f"every bucket must be a size >= 1, got {buckets}"
            )
        if list(buckets) != sorted(set(buckets)):
            raise ServeConfigError(
                f"buckets must be ascending and unique: {buckets}"
            )
        object.__setattr__(self, "buckets", buckets)
        object.__setattr__(
            self, "input_shape", tuple(int(d) for d in self.input_shape)
        )
        if len(self.input_shape) != 3:
            raise ServeConfigError(
                f"input_shape must be (C, H, W), got {self.input_shape}"
            )
        if self.queue_capacity < 1:
            raise ServeConfigError(
                f"queue_capacity (max queue depth) must be >= 1, got "
                f"{self.queue_capacity}; 0 would hang every submit"
            )
        if self.batch_window_ms < 0:
            raise ServeConfigError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.max_queue_wait_ms is not None and self.max_queue_wait_ms <= 0:
            raise ServeConfigError(
                f"max_queue_wait_ms must be positive (or None to disable "
                f"adaptive backpressure), got {self.max_queue_wait_ms}"
            )

    # ------------------------------------------------------------------
    @property
    def max_bucket(self) -> int:
        return self.buckets[-1]

    def fingerprint(self) -> str:
        """Content digest of every field that affects recorded streams."""
        doc = asdict(self)
        # runtime-only knobs do not change the streams an engine records
        for k in ("queue_capacity", "batch_window_ms",
                  "max_queue_wait_ms", "checkpoint", "incident_dir"):
            doc.pop(k)
        # the tuning DB changes blocking plans, hence recorded streams --
        # fold in its *content* digest: two paths to identical databases
        # fingerprint the same, and an unusable database fingerprints
        # like no database (both fall back to the heuristics)
        doc["tune_db"] = self._tune_db_digest()
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def _tune_db_digest(self) -> str | None:
        if self.tune_db is None:
            return None
        from repro.tune.db import TuningDBError, resolve_db

        try:
            db = resolve_db(self.tune_db)
        except (FileNotFoundError, TuningDBError):
            return None
        return db.digest() if db is not None else None

    # ------------------------------------------------------------------
    def build_topology(self):
        if self.model == "resnet_mini":
            from repro.models.resnet50 import resnet_mini_topology

            return resnet_mini_topology(
                num_classes=self.num_classes, width=self.width
            )
        from repro.models.inception_v3 import inception_mini_topology

        return inception_mini_topology(
            num_classes=self.num_classes, width=self.width
        )

    def build_etg(self, bucket: int, execution_tier=_UNSET):
        """One :class:`~repro.gxm.etg.ExecutionTaskGraph` sized for a
        batch bucket (the blocked engine records streams per fixed N).
        ``execution_tier`` overrides the configured tier -- the degrade-
        to-``interpret`` rebuild path."""
        from repro.arch.machine import machine_by_name
        from repro.gxm.etg import ExecutionTaskGraph

        return ExecutionTaskGraph(
            self.build_topology(),
            input_shape=(bucket, *self.input_shape),
            engine=self.engine,
            machine=machine_by_name(self.machine),
            threads=self.threads,
            seed=self.seed,
            execution_tier=(
                self.execution_tier
                if execution_tier is _UNSET
                else execution_tier
            ),
            tuned=self.tune_db if self.tune_db is not None else False,
        )
