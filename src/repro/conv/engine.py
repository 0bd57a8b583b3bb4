"""The unified engine construction API.

The four convolution engines (:class:`DirectConvForward`,
:class:`DirectConvBackward`, :class:`DirectConvUpd`,
:class:`QuantConvForward`) historically grew slightly different
constructor signatures.  This module gives them one face:

* :class:`ConvEngine` -- the structural protocol every engine satisfies
  (``params``/``machine``/``dtype``/``threads`` attributes and a
  ``run_nchw`` entry point);
* :func:`make_engine` -- a single factory keyed by pass, with one keyword
  set covering all four engine kinds.

Example::

    from repro import ConvParams, Pass, make_engine

    p = ConvParams(N=2, C=64, K=64, H=28, W=28, R=3, S=3, stride=1)
    fwd = make_engine(Pass.FWD, p, threads=4)
    bwd = make_engine("bwd", p, threads=4)
    upd = make_engine("upd", p, threads=4)
    q16 = make_engine("quant", p, machine=KNM)

Engines returned by the factory are bitwise-identical to direct
construction with the same keywords -- the factory only routes arguments.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.arch.machine import SKX, MachineConfig
from repro.conv.backward import DirectConvBackward
from repro.conv.forward import DirectConvForward
from repro.conv.params import ConvParams
from repro.conv.upd import DirectConvUpd
from repro.jit.kernel_cache import KernelCache, get_default_cache
from repro.types import DType, Pass, ReproError

__all__ = ["ConvEngine", "make_engine"]


@runtime_checkable
class ConvEngine(Protocol):
    """What every convolution engine exposes, whichever pass it computes.

    ``run_nchw`` takes the pass's two logical operands in NCHW/KCRS form
    -- ``(x, w)`` for forward, ``(dy, w)`` for backward, ``(x, dy)`` for
    the weight update -- and returns the logical result.
    """

    params: ConvParams
    machine: MachineConfig
    dtype: DType
    threads: int

    def run_nchw(self, a: np.ndarray, b: np.ndarray) -> np.ndarray: ...


#: accepted spellings per engine kind (the CLI letters, the Pass values,
#: and the obvious words)
_PASS_NAMES = {
    Pass.FWD: ("f", "fwd", "forward"),
    Pass.BWD: ("b", "bwd", "backward", "data"),
    Pass.UPD: ("u", "upd", "update", "wu", "weights"),
}
_QUANT_NAMES = ("q", "quant", "lp", "int16")


def _normalize_pass(pass_) -> tuple[Pass, bool]:
    """Returns ``(pass, quantized)``."""
    if isinstance(pass_, Pass):
        return pass_, False
    if isinstance(pass_, str):
        low = pass_.lower()
        if low in _QUANT_NAMES:
            return Pass.FWD, True
        for p, names in _PASS_NAMES.items():
            if low in names or low == p.value:
                return p, False
    raise ReproError(
        f"unknown pass {pass_!r}; expected a repro.Pass, one of "
        f"F/B/U, forward/backward/update, or 'quant'"
    )


def _tuned_plan(tuned, params, machine, dtype, kernel_cache):
    """Resolve ``tuned`` to a ``(plan, prefetch)`` pair, or ``(None,
    None)`` when no usable entry exists.

    Every failure mode short of a programming error degrades to the
    heuristics: a missing artifact (``tune.db_missing``), a corrupt or
    stale one (``tune.db_rejected``), or simply no entry for this
    (machine, dtype, shape) key (``tune.db_misses``).
    """
    from repro.obs.metrics import get_metrics
    from repro.tune.db import TuningDBError, resolve_db

    metrics = get_metrics()
    try:
        db = resolve_db(tuned)
    except FileNotFoundError:
        metrics.inc("tune.db_missing")
        return None, None
    except TuningDBError:
        metrics.inc("tune.db_rejected")
        return None, None
    if db is None:
        metrics.inc("tune.db_misses")
        return None, None
    try:
        entry = db.lookup(params, machine, dtype)
    except TuningDBError:
        metrics.inc("tune.db_rejected")
        return None, None
    if entry is None:
        metrics.inc("tune.db_misses")
        return None, None
    metrics.inc("tune.db_hits")
    cache = kernel_cache if kernel_cache is not None else get_default_cache()
    cache.note_tuned_plan()
    return entry.plan(), entry.prefetch


def make_engine(
    pass_,
    params: ConvParams,
    *,
    machine: MachineConfig = SKX,
    dtype: DType = DType.F32,
    threads: int = 1,
    fused_ops: Sequence = (),
    plan=None,
    prefetch: str | None = None,
    kernel_cache: KernelCache | None = None,
    strategy=None,
    execution_tier: str | None = None,
    tuned=False,
) -> ConvEngine:
    """Construct the engine for ``pass_`` with one uniform keyword set.

    Parameters
    ----------
    pass_:
        A :class:`repro.types.Pass` or a string -- ``"fwd"``/``"bwd"``/
        ``"upd"`` (also ``F``/``B``/``U`` and the long spellings), or
        ``"quant"`` for the int16 forward engine.  ``Pass.FWD`` with
        ``dtype=DType.QI16F32`` also selects the int16 engine.
    params, machine, dtype, threads:
        As on every engine constructor.
    fused_ops:
        Section II-G post-operators.  Forward and the duality backward
        scenarios support them; the update pass and the Algorithm-7
        backward fallback raise :class:`UnsupportedError`.
    plan:
        A :class:`BlockingPlan` (fwd/bwd/quant) or
        :class:`UpdBlockingPlan` (upd) overriding the heuristic choice.
    prefetch:
        Software-prefetch levels for the JIT'ed kernels
        (``"none" | "l1" | "l2" | "both"``; ``None`` takes a tuned plan's
        levels, else ``"both"``).
    kernel_cache:
        A :class:`KernelCache` to share between engines (defaults to the
        process-wide cache).
    strategy:
        Update-pass only: a §II-J :class:`UpdStrategy` override.
    execution_tier:
        How recorded kernel streams are executed -- an
        :class:`~repro.jit.ExecutionTier` or its string spelling:
        ``"compiled"`` (default; vectorized numpy closures from
        :mod:`repro.jit.compile` with batched stream replay) or
        ``"interpret"`` (the µop interpreter, one call per record).
        ``None`` resolves to the process-wide default
        (:func:`repro.jit.set_default_execution_tier`).  Unknown names
        raise :class:`~repro.jit.UnknownTierError` listing the valid
        tiers.
    tuned:
        Consult the :mod:`repro.tune` database for a validated blocking
        plan before falling back to the paper heuristics.  ``True`` uses
        the process default (:func:`repro.tune.set_default_db`), a path
        loads that artifact, or pass a
        :class:`~repro.tune.TuningDatabase` directly.  Only the forward
        pass (f32 and int16) is tuned; an explicit ``plan`` wins.  A
        missing, corrupt or entry-less database degrades silently to the
        heuristics (``tune.db_rejected`` / ``tune.db_misses`` metrics) --
        tuning can never make engine construction fail.
    """
    p, quant = _normalize_pass(pass_)
    if dtype is DType.QI16F32:
        quant = True
    if tuned and plan is None and p is Pass.FWD:
        plan, tuned_prefetch = _tuned_plan(
            tuned, params, machine,
            DType.QI16F32 if quant else dtype, kernel_cache,
        )
        if prefetch is None and tuned_prefetch is not None:
            prefetch = tuned_prefetch
    if prefetch is None:
        prefetch = "both"
    if strategy is not None and p is not Pass.UPD:
        raise ReproError("'strategy' applies only to the update pass")

    if quant:
        if p is not Pass.FWD:
            raise ReproError(
                "the int16 engine covers the forward pass only (§II-K)"
            )
        from repro.quant.qconv_engine import QuantConvForward

        return QuantConvForward(
            params, machine, fused_ops=fused_ops, threads=threads,
            plan=plan, prefetch=prefetch, kernel_cache=kernel_cache,
            execution_tier=execution_tier,
        )
    if p is Pass.FWD:
        return DirectConvForward(
            params, machine, dtype=dtype, fused_ops=fused_ops,
            threads=threads, plan=plan, prefetch=prefetch,
            kernel_cache=kernel_cache,
            execution_tier=execution_tier,
        )
    if p is Pass.BWD:
        return DirectConvBackward(
            params, machine, dtype=dtype, fused_ops=fused_ops,
            threads=threads, plan=plan, prefetch=prefetch,
            kernel_cache=kernel_cache,
            execution_tier=execution_tier,
        )
    return DirectConvUpd(
        params, machine, dtype=dtype, fused_ops=fused_ops,
        threads=threads, strategy=strategy, plan=plan, prefetch=prefetch,
        kernel_cache=kernel_cache,
        execution_tier=execution_tier,
    )
