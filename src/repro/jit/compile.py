"""Compiled execution tier: µop programs vectorized into numpy closures.

The replay loop is branch-free on purpose (section II-H) -- the microkernel
is the only hot code.  :mod:`repro.jit.interpreter` walks every µop in Python
per kernel call, which makes the *simulation of the register file* the hot
code instead.  This module is the reproduction's analogue of LIBXSMM's JIT
encoding step (section II-D): each :class:`~repro.arch.isa.KernelProgram` is
translated **once** into a closure that computes the whole ``RB_P x RB_Q``
register block with batched numpy ops, and replay dispatches into that.

Translation is a symbolic execution of the µop stream: the 32-entry register
file holds expression nodes instead of vectors, stores capture the final
expression per output tile, and isomorphic accumulator chains across the
register block collapse into one store group whose members are evaluated
together.  The compiled tier is **bit-identical** to the interpreter by
construction:

* every load is widened to float64 exactly like the interpreter's
  ``astype(np.float64)``;
* each store group's FMA chain is folded term by term into one float64
  accumulator, in place (``acc += w[t] * s[t]``) -- the same strict left
  fold, and so the same rounding sequence, as the interpreter's
  ``acc += w * b`` loop.  A weight vector every member reads at the same
  term is gathered once, not once per member, and over a grid round a
  run of such terms is a small GEMM added to the accumulator -- the
  paper's microkernel (M = k, N = RB_Q, K = c).  An fp32 run folds with
  one BLAS ``dgemm`` per window of at most ``_GEMM_WINDOW`` terms, from
  the OpenBLAS numpy has loaded: the first window of a zero-init chain
  is ``Wᵀ·S``, every other window takes the accumulator in as leading
  identity terms, ``[I | Wᵀ]·[acc; S]``.  An f32 x f32 product and an
  identity term are exact in float64, so a window keeps every element's
  rounding sequence whenever OpenBLAS sums in term order -- which a
  per-process probe proves for each window shape at the current
  OpenBLAS thread count before the shape is used.  A refused window
  falls back to one in-place ``dger`` rank-1 update per term (when the
  accumulator holds at least ``_DGER_MIN`` elements), and then to numpy,
  which forms the products a block at a time in a fixed-size scratch
  (``_PRODUCT_BLOCK``) and adds them one term at a time.  An int16
  chain folds its VNNI run with one exact ``np.matmul``;
* fused post-ops, int16 chain-limit flushes (``VCVT``/``VADD``) and
  store/reload round-trips (un-hoisted variants) stay explicit expression
  nodes, so their evaluation order and intermediate precision are preserved.

A bound kernel evaluates many calls at once, laid out as a ``(G, H)``
grid.  Stream replay hands it one dependency round of a CONV-STREAK at a
time (:meth:`_CompiledBound.run_round`; the rounds are scheduled once per
frozen stream, see :mod:`repro.streams.replay`).  Nearly every round is
the cross product of ``G`` weight-side blocks and ``H`` input rows -- the
reuse-ordered loop nest of the paper's register-blocked microkernel --
and arrives as ``(1, H)`` input, ``(G, 1)`` row and ``(G, H)`` store
offsets; any other round arrives as ``(B, 1)`` columns, the ``H = 1``
case of the same code.  Every plan node evaluates in one
``(G, VLEN, H, m)`` layout (``m`` members of a store group), so a row's
weight vectors are gathered once, an input row's scalars are gathered
once, and a chain's products multiply each weight lane by ``H * m``
contiguous scalars.  Every output element keeps its init, its terms and
their left-fold order, so the grid changes no bit.  A direct ``batch``
caller passes any streak and gets the same rounds, laid out the same
way, computed on the spot: calls that store to the same block run in
streak order, one round each (see :meth:`_CompiledBound.batch`).

The paper's microkernel reads each operand at a base pointer plus fixed
strides, and replay hands it only the base offsets (sections II-D and
II-H); this tier moves its operands the same way.  Every gather and
store of a plan node (an :class:`_Operand`) reads or writes a node part
of offsets, fixed when the plan is built, plus a tensor's base offsets,
fixed per scheduled group and per block of it.  When both parts form a
lattice -- along each axis, a product of ``(length, stride)`` runs
(:func:`_lattice`, checked element by element against the offsets it
replaces) -- the operand is one strided numpy view of the flat buffer: a
gather is one strided float32 -> float64 copy, a store one strided
assignment with the fancy index's cast, so the same values reach the
same addresses.  The node part is factored when the plan is built, the
base part once per group and block, kept in the group's ``memo``
(:meth:`_CompiledBound.run_round`), so stream replay only looks the
views up.  A store takes a view only when its addresses are pairwise
distinct.  Offsets that form no lattice, a buffer that is not flat and
C-contiguous, and direct ``batch``/``__call__`` callers take the fancy
index, counted in ``jit.gather_fallbacks``; the analysis is timed in
``jit.lattice_seconds``.

Prefetch µops are no-ops in this tier.  When a ``MemTrace``/cache-simulator
observer is attached, :meth:`CompiledKernel.bind` silently returns an
interpreter-backed closure instead so traces stay exact.

Programs a symbolic pass cannot prove safe (overlapping stores, register
reads the generators never emit) raise :class:`CompileUnsupported`; callers
fall back to the interpreter.
"""

from __future__ import annotations

import ctypes
import operator
import time
from typing import Callable, Optional, Sequence

import numpy as np

from repro.arch.isa import KernelProgram, Op
from repro.jit.interpreter import execute_kernel
from repro.jit.tiers import (
    EXECUTION_TIERS,
    ExecutionTier,
    UnknownTierError,
    as_tier,
)
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.streams.stream import round_grid, store_rounds
from repro.types import ReproError, ShapeError, UnsupportedError

__all__ = [
    "CompileUnsupported",
    "CompiledKernel",
    "compile_kernel",
    "EXECUTION_TIERS",
    "ExecutionTier",
    "UnknownTierError",
    "resolve_execution_tier",
    "set_default_execution_tier",
    "get_default_execution_tier",
]


class CompileUnsupported(UnsupportedError):
    """The µop program uses a pattern the vectorizing translator rejects."""


# ----------------------------------------------------------------------
# execution-tier selection (the enum lives in repro.jit.tiers; this module
# keeps the process-wide default)
# ----------------------------------------------------------------------
_default_tier = ExecutionTier.COMPILED


def set_default_execution_tier(tier) -> ExecutionTier:
    """Set the process-wide default tier; returns the previous default."""
    global _default_tier
    prev, _default_tier = _default_tier, as_tier(tier)
    return prev


def get_default_execution_tier() -> ExecutionTier:
    return _default_tier


def resolve_execution_tier(tier) -> ExecutionTier:
    """Map an engine's ``execution_tier`` argument (None = process default,
    legacy strings coerced) to a validated :class:`ExecutionTier`."""
    if tier is None:
        return _default_tier
    return as_tier(tier)


# ----------------------------------------------------------------------
# symbolic values (what a register holds during the compile-time walk)
# ----------------------------------------------------------------------
class _SZero:
    __slots__ = ()


_ZERO = _SZero()


class _SLoad:
    __slots__ = ("tensor", "off")

    def __init__(self, tensor: str, off: int) -> None:
        self.tensor = tensor
        self.off = off


class _SBcast:
    """Scalar broadcast ``full(vlen, buf[off])``."""

    __slots__ = ("tensor", "off")

    def __init__(self, tensor: str, off: int) -> None:
        self.tensor = tensor
        self.off = off


class _SPair:
    """int16 pair broadcast (VNNI source form)."""

    __slots__ = ("tensor", "off")

    def __init__(self, tensor: str, off: int) -> None:
        self.tensor = tensor
        self.off = off


class _SCast:
    """Store-forwarded reload: the stored value round-tripped through the
    buffer dtype (f64 -> buf.dtype -> f64)."""

    __slots__ = ("tensor", "sub")

    def __init__(self, tensor: str, sub) -> None:
        self.tensor = tensor
        self.sub = sub


class _SScale:
    """VCVT_I32F32: ``sub * imm`` (imm multiplied by the runtime scale)."""

    __slots__ = ("sub", "imm")

    def __init__(self, sub, imm: float) -> None:
        self.sub = sub
        self.imm = imm


class _SBin:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind: str, a, b) -> None:
        self.kind = kind
        self.a = a
        self.b = b


class _TFma:
    """One chain step: ``acc += w * scalar(tensor[off])``."""

    __slots__ = ("w", "tensor", "off")

    def __init__(self, w, tensor: str, off: int) -> None:
        self.w = w
        self.tensor = tensor
        self.off = off


class _TVnni:
    """One chain step: ``acc += w_even * t[off] + w_odd * t[off+1]``."""

    __slots__ = ("w", "tensor", "off")

    def __init__(self, w, tensor: str, off: int) -> None:
        self.w = w
        self.tensor = tensor
        self.off = off


class _SAcc:
    """A sequential FMA chain: ``init`` followed by ordered terms."""

    __slots__ = ("init", "terms")

    def __init__(self, init, terms: tuple) -> None:
        self.init = init
        self.terms = terms


def _chain(cur, term):
    if isinstance(cur, _SAcc):
        return _SAcc(cur.init, cur.terms + (term,))
    return _SAcc(cur, (term,))


# ----------------------------------------------------------------------
# symbolic execution of the µop stream
# ----------------------------------------------------------------------
def _symbolize(prog: KernelProgram):
    """Walk the program once; return the ordered list of final stores as
    ``(tensor, offset, node)`` plus the set of referenced tensors."""
    vlen = prog.vlen
    regs: list = [None] * 32
    stores: dict[tuple[str, int], object] = {}
    store_order: list[tuple[str, int]] = []
    store_ranges: dict[str, list[tuple[int, int]]] = {}
    tensors: set[str] = set()

    def reg(idx: int):
        v = regs[idx]
        if v is None:
            raise CompileUnsupported(
                f"{prog.name}: read of uninitialized register {idx}"
            )
        return v

    def check_no_store_overlap(tensor: str, lo: int, hi: int) -> None:
        for slo, shi in store_ranges.get(tensor, ()):
            if lo < shi and slo < hi:
                raise CompileUnsupported(
                    f"{prog.name}: load [{lo},{hi}) of {tensor!r} partially "
                    f"overlaps an earlier store [{slo},{shi})"
                )

    for u in prog.uops:
        op = u.op
        if op is Op.VZERO:
            regs[u.dst] = _ZERO
        elif op is Op.VLOAD:
            tensors.add(u.tensor)
            fwd = stores.get((u.tensor, u.offset))
            if fwd is not None:
                regs[u.dst] = _SCast(u.tensor, fwd)
            else:
                check_no_store_overlap(u.tensor, u.offset, u.offset + vlen)
                regs[u.dst] = _SLoad(u.tensor, u.offset)
        elif op is Op.VBCAST:
            tensors.add(u.tensor)
            width = 2 if u.imm == 2.0 else 1
            check_no_store_overlap(u.tensor, u.offset, u.offset + width)
            cls = _SPair if u.imm == 2.0 else _SBcast
            regs[u.dst] = cls(u.tensor, u.offset)
        elif op in (Op.VSTORE, Op.VSTORE_NT):
            tensors.add(u.tensor)
            key = (u.tensor, u.offset)
            if key not in stores:
                store_order.append(key)
                store_ranges.setdefault(u.tensor, []).append(
                    (u.offset, u.offset + vlen)
                )
            stores[key] = reg(u.src1)
        elif op is Op.VFMA:
            w, b = reg(u.src1), reg(u.src2)
            if not isinstance(w, _SLoad) or not isinstance(b, _SBcast):
                raise CompileUnsupported(
                    f"{prog.name}: VFMA operands are not (load, broadcast)"
                )
            regs[u.dst] = _chain(reg(u.dst), _TFma(w, b.tensor, b.off))
        elif op is Op.VFMA_MEM:
            tensors.add(u.tensor)
            w = reg(u.src1)
            if not isinstance(w, _SLoad):
                raise CompileUnsupported(
                    f"{prog.name}: VFMA_MEM weight operand is not a load"
                )
            check_no_store_overlap(u.tensor, u.offset, u.offset + 1)
            regs[u.dst] = _chain(reg(u.dst), _TFma(w, u.tensor, u.offset))
        elif op is Op.V4FMA:
            tensors.add(u.tensor)
            depth = int(u.imm) or 4
            check_no_store_overlap(u.tensor, u.offset, u.offset + depth)
            cur = reg(u.dst)
            for j in range(depth):
                w = reg(u.src1 + j)
                if not isinstance(w, _SLoad):
                    raise CompileUnsupported(
                        f"{prog.name}: V4FMA weight operand is not a load"
                    )
                cur = _chain(cur, _TFma(w, u.tensor, u.offset + j))
            regs[u.dst] = cur
        elif op is Op.VVNNI:
            cur = reg(u.dst)
            if u.tensor is not None:
                tensors.add(u.tensor)
                depth = int(u.imm) or 4
                check_no_store_overlap(
                    u.tensor, u.offset, u.offset + 2 * depth
                )
                for j in range(depth):
                    w = reg(u.src1 + j)
                    if not isinstance(w, _SLoad):
                        raise CompileUnsupported(
                            f"{prog.name}: VVNNI weight operand is not a load"
                        )
                    cur = _chain(cur, _TVnni(w, u.tensor, u.offset + 2 * j))
            else:
                w, a = reg(u.src1), reg(u.src2)
                if not isinstance(w, _SLoad) or not isinstance(a, _SPair):
                    raise CompileUnsupported(
                        f"{prog.name}: VVNNI operands are not "
                        f"(load, pair-broadcast)"
                    )
                cur = _chain(cur, _TVnni(w, a.tensor, a.off))
            regs[u.dst] = cur
        elif op is Op.VADD:
            regs[u.dst] = _SBin("add", reg(u.src1), reg(u.src2))
        elif op is Op.VMUL:
            regs[u.dst] = _SBin("mul", reg(u.src1), reg(u.src2))
        elif op is Op.VMAX:
            regs[u.dst] = _SBin("max", reg(u.src1), reg(u.src2))
        elif op is Op.VCVT_I32F32:
            regs[u.dst] = _SScale(reg(u.src1), u.imm)
        elif op is Op.PREFETCH1 or op is Op.PREFETCH2:
            pass  # no-ops in the compiled tier (see module docstring)
        else:  # pragma: no cover - exhaustive over Op
            raise CompileUnsupported(f"{prog.name}: unhandled op {op}")

    final = [(t, off, stores[(t, off)]) for (t, off) in store_order]
    return final, tensors


# ----------------------------------------------------------------------
# structural signatures (offset-free) -- stores with equal signatures are
# evaluated together as one batched register block
# ----------------------------------------------------------------------
def _term_sig(term, memo) -> tuple:
    tag = "f" if isinstance(term, _TFma) else "v"
    return (tag, _sig(term.w, memo), term.tensor)


def _sig(node, memo: dict) -> tuple:
    got = memo.get(id(node))
    if got is not None:
        return got
    if isinstance(node, _SZero):
        s = ("z",)
    elif isinstance(node, _SLoad):
        s = ("l", node.tensor)
    elif isinstance(node, _SBcast):
        s = ("b", node.tensor)
    elif isinstance(node, _SPair):
        s = ("p", node.tensor)
    elif isinstance(node, _SCast):
        s = ("c", node.tensor, _sig(node.sub, memo))
    elif isinstance(node, _SScale):
        s = ("s", node.imm, _sig(node.sub, memo))
    elif isinstance(node, _SBin):
        s = ("o", node.kind, _sig(node.a, memo), _sig(node.b, memo))
    elif isinstance(node, _SAcc):
        s = (
            "a",
            _sig(node.init, memo),
            tuple(_term_sig(t, memo) for t in node.terms),
        )
    else:  # pragma: no cover
        raise CompileUnsupported(f"unknown symbolic node {type(node)}")
    memo[id(node)] = s
    return s


# ----------------------------------------------------------------------
# evaluation plan: one in-place float64 accumulator per store group
# ----------------------------------------------------------------------
#: float64 elements one batched evaluation may gather and accumulate (~16 MB)
_BATCH_BUDGET = 2_000_000
#: float64 elements of a chain's term-product scratch (256 KB, L2-resident)
_PRODUCT_BLOCK = 1 << 15


def _blas_symbol(name: str, restype, *argtypes):
    """``name`` from the OpenBLAS that numpy has already loaded (the
    ``scipy_*64_`` symbols numpy >= 2 wheels export), or ``None`` when
    this numpy build does not export it."""
    try:
        fn = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), name)
    except (AttributeError, OSError):
        return None
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


_I64, _PTR, _DBL, _INT = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_double,
                          ctypes.c_int)
#: ``dgemm(order, transA, transB, M, N, K, alpha, A, lda, B, ldb, beta, C,
#: ldc)``: ``C = alpha * op(A) op(B) + beta * C``; ``None`` leaves every
#: chain to ``dger`` and numpy
_dgemm = _blas_symbol("scipy_cblas_dgemm64_", None, _INT, _INT, _INT, _I64,
                      _I64, _I64, _DBL, _PTR, _I64, _PTR, _I64, _DBL, _PTR,
                      _I64)
#: ``dger(order, M, N, alpha, x, incx, y, incy, A, lda)``: ``A += alpha *
#: x yᵀ``; ``None`` folds every chain ``dgemm`` does not take with numpy
_dger = _blas_symbol("scipy_cblas_dger64_", None, _INT, _I64, _I64, _DBL,
                     _PTR, _I64, _PTR, _I64, _PTR, _I64)
#: OpenBLAS's thread count, part of every ``dgemm`` verdict's key
_blas_threads = _blas_symbol("scipy_openblas_get_num_threads64_", _INT)
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112  # CBLAS enums
#: smallest accumulator (elements) a ``dger`` call pays for: on a 2-CPU
#: x86 VM one ctypes call costs about 2.5 µs, and numpy's multiply-add
#: 1.2-1.8 ns per element
_DGER_MIN = 2048
#: most terms one ``dgemm`` window sums, its identity prefix included:
#: OpenBLAS adds each partial sum of up to 384 terms to C, so a longer
#: window would not be one left fold
_GEMM_WINDOW = 384
#: element folds a shape's probe covers at least: a smaller product
#: repeats its trial with fresh operands
_PROBE_ELEMENTS = 4096
#: (rows, cols, terms, prefix, OpenBLAS threads) -> whether one ``dgemm``
#: window of that shape gives the left fold's bits (:func:`_gemm_proven`)
_gemm_verdicts: dict[tuple, bool] = {}
#: the bit pattern of -0.0 in a float64
_NEG_ZERO = np.float64(-0.0).view(np.int64)


def _gemm(w: np.ndarray, s: np.ndarray, acc: np.ndarray,
          prefix: bool) -> None:
    """One ``dgemm`` window: ``acc`` (``rows x cols``, C-contiguous)
    becomes ``Σ_t w[t] ⊗ s[t]`` over the ``(k, rows)`` weights and
    ``(k, cols)`` scalars, plus ``acc`` itself when ``prefix`` -- then
    ``acc`` enters as ``rows`` leading identity terms, ``[I | wᵀ] ·
    [acc; s]``.  β is 0 in both forms."""
    rows, cols = acc.shape
    if prefix:
        w = np.concatenate((np.eye(rows), w))
        s = np.concatenate((acc, s))
    _dgemm(_ROW_MAJOR, _TRANS, _NO_TRANS, rows, cols, w.shape[0], 1.0,
           w.ctypes.data, rows, s.ctypes.data, cols, 0.0, acc.ctypes.data,
           cols)


def _probe_operand(rng: np.random.Generator, shape) -> np.ndarray:
    """float32 values with random signs and mantissas, scaled by
    2^[-12, 12], widened: their products are exact in float64, and
    their sums round differently in almost any other order."""
    bits = rng.integers(0, 1 << 32, shape, dtype=np.uint32)
    exponent = (115 + (bits >> 23 & 0xFF) % 25) << 23  # 2^-12 .. 2^12
    return ((bits & 0x807FFFFF) | exponent).view(np.float32).astype(
        np.float64)


def _probe(rows: int, cols: int, k: int, prefix: bool) -> bool:
    """Whether a :func:`_gemm` window of this shape gives the strict
    left fold's bits, tried on order-sensitive operands until at least
    ``_PROBE_ELEMENTS`` element folds agree (a prefix trial starts from
    a float64 init of the same spread).  The left fold is ``dger``'s
    when numpy exports it (one exact product added per element and
    term, in term order: four times cheaper than numpy's).  A window
    without a prefix is also tried with every product -0.0: the left
    fold keeps its +0.0 init there, a kernel that starts each sum from
    its first product would not."""
    rng = np.random.default_rng((rows, cols, k, int(prefix)))
    for _ in range(-(-_PROBE_ELEMENTS // (rows * cols))):
        w = _probe_operand(rng, (k, rows))
        s = _probe_operand(rng, (k, cols))
        want = (np.ldexp(rng.standard_normal((rows, cols)),
                         rng.integers(-12, 13, (rows, cols)))
                if prefix else np.zeros((rows, cols)))
        got = want.copy()
        if _dger is not None:
            _fold_rank1(w, s, want)
        else:
            for t in range(k):
                want += np.multiply.outer(w[t], s[t])
        _gemm(w, s, got, prefix)
        if not np.array_equal(got.view(np.int64), want.view(np.int64)):
            return False
    if not prefix:
        got = np.zeros((rows, cols))
        _gemm(-np.abs(w), np.zeros((k, cols)), got, False)
        return not np.signbit(got).any()
    return True


def _gemm_proven(rows: int, cols: int, k: int, prefix: bool,
                 threads: int) -> bool:
    """The cached verdict of :func:`_probe` for this window shape at
    ``threads`` OpenBLAS threads, probing it on first use (counted in
    ``jit.gemm_probes`` / ``jit.gemm_probe_seconds``)."""
    key = (rows, cols, k, prefix, threads)
    verdict = _gemm_verdicts.get(key)
    if verdict is None:
        t0 = time.perf_counter()
        verdict = _gemm_verdicts[key] = _probe(rows, cols, k, prefix)
        metrics = get_metrics()
        metrics.inc("jit.gemm_probes")
        metrics.inc("jit.gemm_probe_seconds", time.perf_counter() - t0)
    return verdict


def _prefix_safe(acc: np.ndarray) -> bool:
    """Whether ``acc`` may enter a window as identity terms: an inf
    times an identity zero is NaN, and +0.0 + -0.0 is +0.0."""
    return bool(np.isfinite(acc).all()) and not (
        acc.view(np.int64) == _NEG_ZERO
    ).any()


def _fold_gemm(w: np.ndarray, s: np.ndarray, acc: np.ndarray,
               fresh: bool) -> int:
    """Fold the leading terms of an FMA run into ``acc`` (``rows x
    cols``) with one ``dgemm`` per window of at most ``_GEMM_WINDOW``
    terms; return how many terms it folded.

    The first window of a ``fresh`` chain (``acc`` is its +0.0 init) is
    ``wᵀ·s``; every other window carries ``acc`` as an identity prefix
    (:func:`_gemm`).  Each f32 x f32 product and each identity term is
    exact in float64, so a window has the left fold's bits whenever
    OpenBLAS sums each element in term order.  That is proven, not
    assumed: a window runs only on a shape :func:`_gemm_proven` accepts
    at the current thread count, and a prefix window only on a finite
    accumulator with no -0.0.  The first window that fails stops the
    fold; the caller folds the rest."""
    rows, cols = acc.shape
    threads = _blas_threads()
    t = 0
    while t < w.shape[0]:
        prefix = t > 0 or not fresh
        k = min(w.shape[0] - t, _GEMM_WINDOW - rows * prefix)
        if (k < 1 or (prefix and not _prefix_safe(acc))
                or not _gemm_proven(rows, cols, k, prefix, threads)):
            break
        _gemm(w[t : t + k], s[t : t + k], acc, prefix)
        t += k
    return t


def _fold_rank1(w: np.ndarray, s: np.ndarray, acc: np.ndarray) -> None:
    """Fold every term into ``acc`` (``rows x cols``) with one in-place
    ``dger`` rank-1 update each, ``acc += w[t] s[t]ᵀ``: one rounding
    per element and term, in term order."""
    rows, cols = acc.shape
    x, y, a = w.ctypes.data, s.ctypes.data, acc.ctypes.data
    dx, dy = w.strides[0], s.strides[0]
    for t in range(w.shape[0]):
        _dger(_ROW_MAJOR, rows, cols, 1.0, x + t * dx, 1, y + t * dy, 1,
              a, cols)


def _fold_blas(w: np.ndarray, s: np.ndarray, acc: np.ndarray,
               fresh: bool) -> int:
    """Fold the leading terms of an fp32 FMA run into ``acc`` with BLAS
    -- proven ``dgemm`` windows (:func:`_fold_gemm`), then ``dger``
    (:func:`_fold_rank1`) for the rest when ``acc`` holds at least
    ``_DGER_MIN`` elements -- and return how many terms it folded.

    ``acc`` (``(G, n, H, m)``, C-contiguous) is the row-major ``(G*n) x
    (H*m)`` matrix, and term ``t`` adds ``w[t] (G, n) ⊗ s[t] (H, m)``.
    BLAS needs a weight vector shared by every member and scalars that
    do not vary across grid rows, and steps aside when an operand or
    (for ``dger``) an accumulator element is NaN, since OpenBLAS and
    numpy keep different payloads when two NaNs meet.  A ``dgemm``
    window never meets a NaN accumulator: a fresh one is +0.0, and a
    prefix needs a finite one."""
    g, n, h, m = acc.shape
    T = w.shape[0]
    if (
        w.shape[1:] != (g, n, 1, 1)
        or s.shape[1:] != (1, 1, h, m)
        or not (w.flags.c_contiguous and s.flags.c_contiguous
                and acc.flags.c_contiguous)
        or np.isnan(w).any()
        or np.isnan(s).any()
    ):
        return 0
    w, s = w.reshape(T, g * n), s.reshape(T, h * m)
    acc = acc.reshape(g * n, h * m)
    t = 0
    if _dgemm is not None and _blas_threads is not None:
        t = _fold_gemm(w, s, acc, fresh)
    if (t < T and _dger is not None and acc.size >= _DGER_MIN
            and not np.isnan(acc).any()):
        _fold_rank1(w[t:], s[t:], acc)
        t = T
    return t


#: the base of a tensor no offset argument moves
_NO_BASE = np.zeros((1, 1, 1, 1), dtype=np.int64)


def _grid_base(base) -> np.ndarray:
    """A base offset -- a scalar or a 2-D array broadcasting to the
    ``(G, H)`` grid -- shaped ``(G|1, 1, H|1, 1)`` for the layout."""
    base = np.asarray(base)
    g, h = base.shape if base.ndim == 2 else (1, 1)
    return base.reshape(g, 1, h, 1)


def _shaped(bases) -> tuple[dict, tuple[int, int]]:
    """``bases`` shaped for the layout (:func:`_grid_base`), and the
    ``(G, H)`` grid they span."""
    shaped = {t: _grid_base(b) for t, b in bases.items()}
    g, _, h, _ = np.broadcast_shapes(
        _NO_BASE.shape, *(b.shape for b in shaped.values())
    )
    return shaped, (g, h)


# ----------------------------------------------------------------------
# strided views: offsets that form a lattice
# ----------------------------------------------------------------------
def _runs(line: list) -> Optional[list]:
    """A guess at the ``(length, stride)`` runs, innermost first, whose
    mixed-radix lattice from ``line[0]`` lists ``line`` in order, or
    ``None`` when the guess does not tile it.

    Greedy from the inside: a run is as long as the arithmetic
    progression it starts on the lattice points found so far (a run
    whose stride is the span of the runs inside it merges with them).
    Only the points that start each run are read; :func:`_lattice`
    checks every element."""
    n, origin = len(line), line[0]
    runs = []
    size = 1
    while size < n:
        step = line[size] - origin
        length = 2
        while (length * size < n
               and line[length * size] - origin == length * step):
            length += 1
        if n % (length * size):
            return None
        runs.append((length, step))
        size *= length
    return runs


def _steps(runs: list) -> list:
    """The differences between successive points of the mixed-radix
    lattice of ``runs`` (innermost first), each run's pattern built
    from the one inside it."""
    steps, span = [], 0
    for length, step in runs:
        steps = (steps + [step - span]) * (length - 1) + steps
        span += (length - 1) * step
    return steps


#: offsets :func:`_lattice` checks in plain Python; numpy is cheaper on
#: more
_PYTHON_CHECK = 128


def _lattice(idx: np.ndarray) -> Optional[tuple]:
    """Integer offsets of any shape as ``(origin, axes)``, or ``None``
    when they are no lattice: ``axes[d]`` holds the ``(length, stride)``
    runs of axis ``d``, outermost first (``()`` for a unit axis), and
    every element is ``origin`` plus its position's lattice offset along
    each axis.

    Each axis's runs are guessed from its line through the first element
    (:func:`_runs`), and the guess stands only if the lattice it spans
    equals ``idx`` element by element -- which also checks that the
    axes add up -- compared through successive differences in plain
    Python, or rebuilt with numpy when ``idx`` is large."""
    if idx.dtype.kind not in "iu" or idx.size == 0:
        return None
    flat = idx.ravel().tolist() if idx.size <= _PYTHON_CHECK else None
    corner = (0,) * idx.ndim
    axes = []
    stride = idx.size
    for d, n in enumerate(idx.shape):
        stride //= n
        if n == 1:
            axes.append(())
            continue
        runs = _runs(
            flat[: stride * n : stride] if flat is not None
            else idx[corner[:d] + (slice(None),) + corner[d + 1:]].tolist()
        )
        if runs is None:
            return None
        axes.append(tuple(reversed(runs)))
    origin = int(idx[corner])
    runs = [r for a in axes for r in a]
    if flat is not None:
        exact = (list(map(operator.sub, flat[1:], flat[:-1]))
                 == _steps(runs[::-1]))
    else:
        grid = np.int64(origin)
        for length, step in runs:
            grid = np.add.outer(grid, np.arange(length, dtype=np.int64)
                                * step)
        exact = np.array_equal(grid.reshape(idx.shape), idx)
    return (origin, tuple(axes)) if exact else None


def _flat(runs, itemsize: int) -> tuple:
    """A lattice's runs as a view's ``(shape, strides)``, in bytes, and
    the offset (elements) its negative strides reach below its origin."""
    if not runs:
        return (), (), 0
    shape, strides = zip(*runs)
    return (shape, tuple(s * itemsize for s in strides),
            sum((n - 1) * s for n, s in runs if s < 0))


def _distinct(shape, strides) -> bool:
    """Whether a view's addresses are pairwise distinct: taken by stride
    magnitude, each stride exceeds the span of all smaller ones (so a
    stride-0 axis never passes)."""
    span = 0
    for n, s in sorted(zip(shape, map(abs, strides)), key=lambda r: r[1]):
        if s <= span:
            return False
        span += (n - 1) * s
    return True


class _Operand:
    """The elements one plan node gathers from, or stores to, ``tensor``.

    ``idx`` holds their offsets from the tensor's base, shaped so that
    the base -- ``(G|1, 1, H|1, 1)``, aligned with ``idx``'s last four
    axes, which are unit on the grid's rows and columns -- broadcasts
    them into the node's layout: that sum is the fancy index.  The plan
    that owns the operand numbers it (``slot``) and finds its offsets'
    :func:`_lattice` once (:meth:`analyse`); a block of grid calls then
    composes it with the base's own lattice into one strided view of
    the tensor (:meth:`view`)."""

    __slots__ = ("tensor", "idx", "store", "slot", "parts")

    def __init__(self, tensor: str, idx: np.ndarray,
                 store: bool = False) -> None:
        self.tensor = tensor
        self.idx = idx
        self.store = store
        self.slot = None
        #: the lattice split around the grid's row and column axes, in
        #: bytes: ``(origin, reach, layout, (shape, strides) before the
        #: row axis, between the two, after the column axis)``
        self.parts = None

    def analyse(self, itemsize: int) -> None:
        """Find ``parts`` for a buffer of ``itemsize``-byte elements;
        they stay ``None`` when ``idx`` is no lattice."""
        lattice = _lattice(self.idx)
        if lattice is None:
            return
        origin, axes = lattice
        gi = len(axes) - 4  # the layout axes the grid's rows and columns fill
        shape, strides, reach = _flat(
            [r for a, runs in enumerate(axes) for r in runs], itemsize)
        # the runs of the axes before, between and after the two unit ones
        cut = [sum(map(len, axes[:a])) for a in (gi, gi + 2)]
        layout = self.idx.shape
        self.parts = (
            origin, reach,
            (layout[:gi], layout[gi + 1:gi + 2], layout[gi + 3:]),
            (shape[:cut[0]], strides[:cut[0]]),
            (shape[cut[0]:cut[1]], strides[cut[0]:cut[1]]),
            (shape[cut[1]:], strides[cut[1]:]),
        )

    def view(self, base) -> Optional[tuple]:
        """This operand's strided view over one block, as ``(shape,
        strides, offset, layout shape)`` in bytes, given the block's
        :func:`_base_part` for ``tensor``; ``None`` when either part is
        no lattice, when the view would reach below the buffer (where a
        negative fancy index wraps around), or when it would store to an
        address twice."""
        if self.parts is None or base is None:
            return None
        origin, reach, (l0, l1, l2), (s0, t0), (s1, t1), (s2, t2) = self.parts
        b_origin, b_reach, g, h, (gs, gt), (hs, ht), itemsize = base
        start = origin + b_origin
        if start + reach + b_reach < 0:
            return None
        shape = s0 + gs + s1 + hs + s2
        strides = t0 + gt + t1 + ht + t2
        if self.store and not _distinct(shape, strides):
            return None
        return shape, strides, start * itemsize, l0 + (g,) + l1 + (h,) + l2


def _base_part(base: np.ndarray, itemsize: int) -> Optional[tuple]:
    """A block's 2-D base offsets for one tensor as :meth:`_Operand.view`
    composes them: ``(origin, reach, G, H, row (shape, strides), column
    (shape, strides), itemsize)``; ``None`` when they are no lattice."""
    lattice = _lattice(base)
    if lattice is None:
        return None
    origin, (g_runs, h_runs) = lattice
    gs, gt, g_reach = _flat(g_runs, itemsize)
    hs, ht, h_reach = _flat(h_runs, itemsize)
    g, h = base.shape
    return origin, g_reach + h_reach, g, h, (gs, gt), (hs, ht), itemsize


class _Block(dict):
    """One batched evaluation of a grid round: the 2-D base offsets by
    tensor (what :meth:`_Plan.run` takes as ``bases``), with the count of
    calls they span and what is derived from them once -- the bases
    shaped for the layout, the grid, and each operand's strided view
    (``views[slot]``, ``None`` where the fancy index must take it; no
    list at all for a block that was not analysed)."""

    __slots__ = ("batch", "shaped", "grid", "views")

    def __init__(self, bases, batch: int) -> None:
        super().__init__(bases)
        self.batch = batch
        self.shaped, self.grid = _shaped(self)
        self.views = None


class _Ctx:
    """One batched evaluation of a plan over a ``(G, H)`` grid of calls.

    Every node evaluates to the layout ``(G, n, H, m)``: grid rows, the
    ``n`` vector lanes, grid columns, and the ``m`` members of a store
    group, so a chain's products and adds run over ``H * m`` contiguous
    elements.  ``bases`` maps each tensor to its base offset: a scalar,
    or an array that broadcasts to ``(G, H)`` -- ``(G, 1)`` for the
    tensor a grid row selects, ``(1, H)`` for the input (a column),
    ``(G, H)`` for the stored tensor, and ``(B, 1)`` for all three in a
    column group (``H = 1``).  A tensor's operands are gathered over its
    own base's shape only, so a row's weights are gathered once, not
    once per column.

    An operand moves through its strided view of the buffer when the
    ``bases`` are an analysed :class:`_Block` that has one for it, and
    through the fancy index otherwise; ``fallbacks`` counts the
    latter."""

    __slots__ = ("buffers", "bases", "scale", "grid", "views", "fallbacks")

    def __init__(self, buffers, bases, scale) -> None:
        self.buffers = buffers
        self.scale = scale
        self.fallbacks = 0
        if isinstance(bases, _Block):
            self.bases, self.grid, self.views = (bases.shaped, bases.grid,
                                                 bases.views)
        else:
            self.bases, self.grid = _shaped(bases)
            self.views = None

    def base(self, tensor: str) -> np.ndarray:
        """``tensor``'s base offsets shaped ``(G|1, 1, H|1, 1)``; an
        operand's ``idx`` broadcasts against it into the layout."""
        return self.bases.get(tensor, _NO_BASE)

    def _view(self, op: _Operand):
        """``op``'s strided view of its buffer and its layout shape, or
        ``None`` -- counted -- when the fancy index must take it: no
        view for this block, a buffer that is not flat and C-contiguous,
        or one too short for the view."""
        spec = None if self.views is None else self.views[op.slot]
        if spec is not None:
            buf = self.buffers[op.tensor]
            shape, strides, offset, layout = spec
            if buf.ndim == 1:
                try:
                    return (np.ndarray(shape, buf.dtype, buf, offset,
                                       strides), layout)
                except ValueError:
                    pass
        self.fallbacks += 1
        return None

    def gather(self, op: _Operand) -> np.ndarray:
        """``op``'s elements widened to float64 in its node's layout: a
        new C-contiguous array, which the caller may overwrite."""
        got = self._view(op)
        if got is not None:
            view, layout = got
            return view.astype(np.float64, order="C").reshape(layout)
        return _f64(self.buffers[op.tensor][op.idx + self.base(op.tensor)])

    def scatter(self, op: _Operand, val: np.ndarray) -> None:
        """Store ``val`` (the layout, or broadcasting to it) to ``op``'s
        elements, cast to the buffer's dtype."""
        got = self._view(op)
        if got is not None:
            view, layout = got
            if val.shape != layout:
                val = np.broadcast_to(val, layout)
            view[...] = val.reshape(view.shape)
            return
        buf = self.buffers[op.tensor]
        buf[op.idx + self.base(op.tensor)] = val


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64) if a.dtype != np.float64 else a


def _lanes(offs: np.ndarray, n: int, step: int = 1) -> np.ndarray:
    """Element offsets of ``n`` lanes ``step`` apart at ``offs`` (one
    per member), shaped ``(1, n, 1, m)`` and contiguous, so gathers come
    out in the ``(G, n, H, m)`` layout in C order."""
    return np.ascontiguousarray(
        (offs[None, :] + step * np.arange(n)[:, None])[None, :, None]
    )


class _EZero:
    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        self.m = m
        self.n = n

    def eval(self, ctx: _Ctx) -> np.ndarray:
        g, h = ctx.grid
        return np.zeros((g, self.n, h, self.m))


class _EGather:
    """Vector load ``buf[base + off : base + off + n]`` per member; with
    ``step`` 0, the scalar ``buf[base + off]`` broadcast across the
    ``n`` lanes."""

    __slots__ = ("op",)

    def __init__(self, tensor: str, offs: np.ndarray, n: int,
                 step: int = 1) -> None:
        self.op = _Operand(tensor, _lanes(offs, n, step))

    def eval(self, ctx: _Ctx) -> np.ndarray:
        return ctx.gather(self.op)


class _ECast:
    __slots__ = ("tensor", "sub")

    def __init__(self, tensor: str, sub) -> None:
        self.tensor = tensor
        self.sub = sub

    def eval(self, ctx: _Ctx) -> np.ndarray:
        dt = ctx.buffers[self.tensor].dtype
        return self.sub.eval(ctx).astype(dt).astype(np.float64)


class _EScale:
    __slots__ = ("sub", "imm", "check")

    def __init__(self, sub, imm: float, check: bool) -> None:
        self.sub = sub
        self.imm = imm
        self.check = check  # integer VNNI chunk: detect int32 overflow

    def eval(self, ctx: _Ctx) -> np.ndarray:
        v = self.sub.eval(ctx)
        if self.check:
            peak = np.abs(v).max(initial=0.0)
            if peak >= 2.0**31:
                from repro.quant.qkernels import QuantOverflowError

                raise QuantOverflowError(
                    f"int32 overflow in compiled q16 kernel "
                    f"(|acc|={int(peak)})"
                )
        return v * (self.imm * ctx.scale)


class _EBin:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind: str, a, b) -> None:
        self.kind = kind
        self.a = a
        self.b = b

    def eval(self, ctx: _Ctx) -> np.ndarray:
        a = self.a.eval(ctx)
        b = self.b.eval(ctx)
        if self.kind == "add":
            return a + b
        if self.kind == "mul":
            return a * b
        return np.maximum(a, b)


class _Run:
    """A maximal run of chain terms sharing (kind, weight tensor, scalar
    tensor).  Its weight operand ``w`` has offsets ``(T, 1, wn, 1, m)``,
    or ``(T, 1, wn, 1, 1)`` when every member of the store group reads
    the same weight vector at each term -- then the vector is gathered
    once per term, not once per member.  Its scalar operand ``s`` has
    ``(T, 1, pair, 1, m)``.  The unit axes take the grid's rows and
    columns from the tensors' bases, so the weight vectors of a grid row
    are gathered ``(T, G, wn, 1, 1)`` and the scalars of an input column
    ``(T, 1, pair, H, m)``: the run is then a product of a ``(G*n) x T``
    and a ``T x (H*m)`` matrix added to the accumulator, which a
    subclass's ``fast`` may hand to one call per window
    (:func:`_fold_blas`, ``np.matmul``)."""

    __slots__ = ("T", "w", "s")
    pair = 1  # scalar operands per term

    def __init__(self, wtensor, woffs, wn, stensor, soffs) -> None:
        self.T = woffs.shape[0]
        if (woffs == woffs[:, :1]).all():
            woffs = woffs[:, :1]
        self.w = _Operand(wtensor, woffs[:, None, None, None, :]
                          + np.arange(wn)[:, None, None])
        self.s = _Operand(stensor, soffs[:, None, None, None, :]
                          + np.arange(self.pair)[:, None, None])

    @property
    def elements(self) -> int:
        """float64 operands one call gathers for this run."""
        return self.w.idx.size + self.s.idx.size

    def fold(self, acc: np.ndarray, ctx: _Ctx, fresh: bool,
             integer: bool) -> None:
        """Add the run's terms to ``acc`` (``(G, n, H, m)``) in order,
        with the left fold's bits.  ``fresh``: ``acc`` is its chain's
        +0.0 init; ``integer``: the chain is all int16 pair products.

        The subclass's ``fast`` folds as many leading terms as it can
        prove exact in one call per window: an fp32 FMA run through BLAS
        (:func:`_fold_blas`), a VNNI run of an integer chain through one
        ``np.matmul``.  The numpy fold takes the rest: it forms the
        products of as many terms as fit in ``_PRODUCT_BLOCK`` elements
        with one multiply (the per-term multiply of a small batch costs
        more in numpy call overhead than in arithmetic), then adds them
        one term at a time."""
        f32 = (ctx.buffers[self.w.tensor].dtype
               == ctx.buffers[self.s.tensor].dtype == np.float32)
        w = ctx.gather(self.w)
        s = ctx.gather(self.s)
        t = self.fast(w, s, acc, fresh, integer, f32)
        if t == self.T:
            return
        k = max(1, min(self.T - t, _PRODUCT_BLOCK // acc.size))
        prod = np.empty((k,) + acc.shape)
        for t0 in range(t, self.T, k):
            p = prod[: self.T - t0]
            self.products(w[t0 : t0 + k], s[t0 : t0 + k], p)
            for term in p:
                acc += term


class _RunFma(_Run):
    """``acc += w * t[off]``."""

    __slots__ = ()

    @staticmethod
    def fast(w, s, acc, fresh, integer, f32) -> int:
        # an f32 x f32 product is exact in float64: BLAS keeps the bits
        return _fold_blas(w, s, acc, fresh) if f32 else 0

    @staticmethod
    def products(w, s, out) -> None:
        np.multiply(w, s, out=out)


class _RunVnni(_Run):
    """int16 pair dot-products: ``acc += w_even*t[off] + w_odd*t[off+1]``."""

    __slots__ = ()
    pair = 2

    def fast(self, w, s, acc, fresh, integer, f32) -> int:
        """Fold the whole run with one ``np.matmul`` of the ``(G*n) x
        2T`` pair-interleaved weights and the ``2T x (H*m)`` scalars when
        the chain is integer: every product and partial sum is then an
        integer below 2^35, exact in float64 in any order.  The product
        is added to ``acc``, never assigned, so an all-(-0.0) column
        cannot flip a +0.0 init."""
        g, n, h, m = acc.shape
        if (not integer or w.shape[1:] != (g, 2 * n, 1, 1)
                or s.shape[1:] != (1, 2, h, m)):
            return 0
        a = w.reshape(self.T, g * n, 2).transpose(1, 0, 2)
        prod = a.reshape(g * n, 2 * self.T) @ s.reshape(2 * self.T, h * m)
        acc += prod.reshape(acc.shape)
        return self.T

    @staticmethod
    def products(w, s, out) -> None:
        # mul, mul, add in f64: the interpreter's reshape(vlen, 2) pair
        # product exactly (axis 2 holds the lanes and the pair)
        np.multiply(w[:, :, 0::2], s[:, :, :1], out=out)
        out += w[:, :, 1::2] * s[:, :, 1:]


class _EAcc:
    """Sequential accumulator chain folded term by term into one float64
    accumulator -- the interpreter's per-µop ``acc += w*b`` left fold,
    with the same rounding sequence."""

    __slots__ = ("init", "runs", "integer", "m", "n", "elements")

    def __init__(self, init, runs: list, integer: bool, m: int, n: int):
        self.init = init
        self.runs = runs
        self.integer = integer
        self.m = m
        self.n = n
        # the accumulator plus each run's gathered operands
        self.elements = m * n + sum(r.elements for r in runs)

    def eval(self, ctx: _Ctx) -> np.ndarray:
        # every eval returns a new array, so the fold may overwrite it
        acc = self.init.eval(ctx)
        g, h = ctx.grid
        if acc.shape != (g, self.n, h, self.m):
            # an init that is the same for a whole grid row or column
            acc = np.broadcast_to(acc, (g, self.n, h, self.m)).copy()
        fresh = isinstance(self.init, _EZero)
        for run in self.runs:
            run.fold(acc, ctx, fresh, self.integer)
            fresh = False
        return acc


class _EStore:
    """Scatter a store group's ``(G, n, H, m)`` values."""

    __slots__ = ("op", "node")

    def __init__(self, tensor: str, offs: np.ndarray, n: int, node) -> None:
        self.op = _Operand(tensor, _lanes(offs, n), store=True)
        self.node = node

    @property
    def idx(self) -> np.ndarray:
        """The ``(m, n)`` element offsets the members store, one row
        each."""
        return self.op.idx[0, :, 0].T

    def execute(self, ctx: _Ctx) -> None:
        ctx.scatter(self.op, self.node.eval(ctx))


class _Plan:
    """Dtype-resolved evaluation plan: ordered store groups, and every
    operand their nodes gather or store, numbered, with its lattice."""

    __slots__ = ("stores", "store_tensors", "batch_cap", "operands",
                 "itemsize")

    def __init__(self, stores: list, store_tensors: set, est: int,
                 operands: list, itemsize: dict) -> None:
        self.stores = stores
        self.store_tensors = store_tensors
        # calls per batched evaluation: ``est`` is one call's float64
        # working set (stored values plus every chain's accumulator and
        # gathered operands, nested chains included)
        self.batch_cap = max(1, _BATCH_BUDGET // max(1, est))
        self.operands = operands
        self.itemsize = itemsize
        t0 = time.perf_counter()
        for slot, op in enumerate(operands):
            op.slot = slot
            op.analyse(itemsize[op.tensor])
        get_metrics().inc("jit.lattice_seconds", time.perf_counter() - t0)

    def views(self, bases: dict) -> list:
        """Every operand's strided view (:meth:`_Operand.view`) over a
        block of calls whose offset arguments' tensors sit at ``bases``
        (2-D arrays); a tensor no argument moves sits at 0."""
        parts = {
            t: _base_part(bases.get(t, _NO_BASE[0, 0]), itemsize)
            for t, itemsize in self.itemsize.items()
        }
        return [op.view(parts[op.tensor]) for op in self.operands]

    def run(self, buffers, bases, scale, batch) -> None:
        """Evaluate ``batch`` calls at once: a ``(G, H)`` grid, ``G * H ==
        batch``, whose shape the ``bases`` carry (see :class:`_Ctx`)."""
        ctx = _Ctx(buffers, bases, scale)
        for st in self.stores:
            st.execute(ctx)
        if ctx.fallbacks:
            get_metrics().inc("jit.gather_fallbacks", ctx.fallbacks)


def _build_plan(final_stores, vlen: int, dtypes: dict) -> _Plan:
    """Group isomorphic stores and lower each group to eval nodes."""
    est = 0
    operands: list[_Operand] = []
    widths = {t: 2 if dt == np.int16 else 1 for t, dt in dtypes.items()}

    def width(tensor: str) -> int:
        return widths[tensor] * vlen

    def build(rep, members):
        nonlocal est
        m = len(members)
        if isinstance(rep, _SZero):
            return _EZero(m, vlen)
        if isinstance(rep, _SLoad):
            offs = np.array([node.off for node in members], dtype=np.int64)
            node = _EGather(rep.tensor, offs, width(rep.tensor))
            operands.append(node.op)
            return node
        if isinstance(rep, _SBcast):
            offs = np.array([node.off for node in members], dtype=np.int64)
            node = _EGather(rep.tensor, offs, vlen, step=0)
            operands.append(node.op)
            return node
        if isinstance(rep, _SPair):
            raise CompileUnsupported(
                "pair-broadcast register escapes its VNNI consumer"
            )
        if isinstance(rep, _SCast):
            if widths[rep.tensor] != 1:
                raise CompileUnsupported(
                    "store-forwarding through an int16 tensor"
                )
            return _ECast(rep.tensor, build(rep.sub, [n.sub for n in members]))
        if isinstance(rep, _SScale):
            sub = build(rep.sub, [n.sub for n in members])
            return _EScale(sub, rep.imm, getattr(sub, "integer", False))
        if isinstance(rep, _SBin):
            return _EBin(
                rep.kind,
                build(rep.a, [n.a for n in members]),
                build(rep.b, [n.b for n in members]),
            )
        if isinstance(rep, _SAcc):
            init = build(rep.init, [n.init for n in members])
            runs: list = []
            nterms = len(rep.terms)
            t0 = 0
            while t0 < nterms:
                ref = rep.terms[t0]
                kind = type(ref)
                t1 = t0 + 1
                while (
                    t1 < nterms
                    and type(rep.terms[t1]) is kind
                    and rep.terms[t1].w.tensor == ref.w.tensor
                    and rep.terms[t1].tensor == ref.tensor
                ):
                    t1 += 1
                woffs = np.array(
                    [
                        [node.terms[t].w.off for node in members]
                        for t in range(t0, t1)
                    ],
                    dtype=np.int64,
                )
                soffs = np.array(
                    [
                        [node.terms[t].off for node in members]
                        for t in range(t0, t1)
                    ],
                    dtype=np.int64,
                )
                wt, st = ref.w.tensor, ref.tensor
                if kind is _TVnni:
                    if widths[wt] != 2:
                        raise CompileUnsupported(
                            "VNNI weights must come from an int16 tensor"
                        )
                    runs.append(_RunVnni(wt, woffs, width(wt), st, soffs))
                else:
                    if widths[wt] != 1:
                        raise CompileUnsupported(
                            "FMA weight vector width != accumulator width"
                        )
                    runs.append(_RunFma(wt, woffs, width(wt), st, soffs))
                operands.extend((runs[-1].w, runs[-1].s))
                t0 = t1
            integer = isinstance(init, _EZero) and all(
                isinstance(r, _RunVnni) for r in runs
            )
            acc = _EAcc(init, runs, integer, m, vlen)
            est += acc.elements
            return acc
        raise CompileUnsupported(
            f"unknown symbolic node {type(rep)}"
        )  # pragma: no cover

    memo: dict = {}
    groups: dict[tuple, list] = {}
    order: list[tuple] = []
    for tensor, off, node in final_stores:
        key = (tensor, _sig(node, memo))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((off, node))

    stores: list[_EStore] = []
    store_tensors = {t for t, _off, _node in final_stores}
    for tensor, sig in order:
        entries = groups[(tensor, sig)]
        offs = np.array([off for off, _ in entries], dtype=np.int64)
        node = build(entries[0][1], [n for _, n in entries])
        est += len(entries) * vlen
        stores.append(_EStore(tensor, offs, vlen, node))
        operands.append(stores[-1].op)
    itemsize = {t: dt.itemsize for t, dt in dtypes.items()}
    return _Plan(stores, store_tensors, est, operands, itemsize)


def _grid_shape(arrs) -> tuple[int, int]:
    """The ``(G, H)`` grid three 2-D offset arrays broadcast to."""
    shapes = [a.shape for a in arrs]
    if all(len(sh) == 2 for sh in shapes):
        try:
            return np.broadcast_shapes(*shapes)
        except ValueError:
            pass
    raise ShapeError(
        "run_round takes 2-D offset arrays that broadcast to one (G, H) "
        f"grid, got shapes {shapes}"
    )


class _CompiledBound:
    """A compiled kernel bound to concrete buffers; replay-callable."""

    tier = "compiled"

    __slots__ = ("plan", "buffers", "args", "scale", "store_arg")

    def __init__(self, plan, buffers, args, scale) -> None:
        self.plan = plan
        self.buffers = buffers
        self.args = args
        self.scale = scale
        #: index of the offset argument that selects the block a call
        #: stores to; ``None`` when no single argument selects every store
        stores = plan.store_tensors
        self.store_arg = (
            args.index(next(iter(stores)))
            if len(stores) == 1 and stores <= set(args)
            else None
        )

    def __call__(self, i_off, w_off, o_off, pi=0, pw=0, po=0) -> None:
        bases = dict(zip(self.args, (i_off, w_off, o_off)))
        self.plan.run(self.buffers, bases, self.scale, 1)

    def run_round(self, i_arr, w_arr, o_arr, memo=None) -> None:
        """Run one dependency round -- calls that store to pairwise
        distinct blocks -- given as 2-D offset arrays that broadcast to
        one ``(G, H)`` grid of calls.

        :func:`~repro.streams.stream.round_grid` lays a round out as a
        cross product -- ``(1, H)`` inputs, ``(G, 1)`` rows, ``(G, H)``
        stores -- or as ``(B, 1)`` columns; stream replay dispatches the
        groups of :meth:`~repro.streams.stream.FrozenStream.schedule`
        here.  One evaluation takes at most ``batch_cap`` calls: a wider
        grid is cut into blocks of up to ``batch_cap`` columns and as
        many rows as the cap leaves.  Raises :class:`ShapeError` when the
        arrays are not 2-D or do not broadcast together.

        ``memo`` is a dict that belongs to these offsets (a schedule
        group's): the first call keeps there the blocks and every
        operand's strided view of each (:meth:`_Plan.views`), and later
        calls with the same plan only look them up.  Without one, the
        blocks are cut on the spot and every operand takes the fancy
        index.
        """
        plan = self.plan
        key = (plan.batch_cap, self.args)
        got = None if memo is None else memo.get(plan)
        if got is None or got[0] != key:
            got = (key, self._blocks((i_arr, w_arr, o_arr), memo is not None))
            if memo is not None:
                memo[plan] = got
        for block in got[1]:
            plan.run(self.buffers, block, self.scale, block.batch)

    def _blocks(self, arrs, analyse: bool) -> list:
        """The :class:`_Block` s :meth:`run_round` evaluates, with their
        views when ``analyse`` (timed in ``jit.lattice_seconds``)."""
        arrs = [np.asarray(a) for a in arrs]
        rows, cols = _grid_shape(arrs)
        cap = self.plan.batch_cap
        h = max(1, min(cols, cap))
        g = max(1, min(rows, cap // h))
        whole = slice(None)  # a broadcast axis spans every block
        blocks = []
        for r in range(0, rows, g):
            rs = slice(r, r + g)
            for c in range(0, cols, h):
                cs = slice(c, c + h)
                part = [
                    a[rs if a.shape[0] > 1 else whole,
                      cs if a.shape[1] > 1 else whole]
                    for a in arrs
                ]
                blocks.append(_Block(zip(self.args, part),
                                     min(g, rows - r) * min(h, cols - c)))
        if analyse:
            t0 = time.perf_counter()
            for block in blocks:
                block.views = self.plan.views(block)
            get_metrics().inc("jit.lattice_seconds",
                              time.perf_counter() - t0)
        return blocks

    def batch(self, i_arr, w_arr, o_arr) -> None:
        """Run any streak of calls at once, bitwise equal to calling them
        in order.

        Calls that store to the same base offset (the ``c_b``-outer loop
        order revisiting an output block, the update pass re-accumulating
        one ``dW`` block) form a read-modify-write chain.  Round ``r``
        holds every call that is the ``r``-th in the streak to store to
        its offset (:func:`~repro.streams.stream.store_rounds`, the helper
        stream schedules are built with); rounds run in order through
        :meth:`run_round`, each laid out by
        :func:`~repro.streams.stream.round_grid`, so each chain keeps its
        sequential order.  When no single offset argument selects every
        store, each call is its own round.  Raises :class:`ShapeError`
        unless the offsets are three equal-length 1-D arrays.
        """
        arrs = [np.asarray(a, dtype=np.int64) for a in (i_arr, w_arr, o_arr)]
        if any(a.ndim != 1 for a in arrs) or len({a.size for a in arrs}) > 1:
            raise ShapeError(
                "batch takes three equal-length 1-D offset arrays, got "
                f"shapes {[a.shape for a in arrs]}"
            )
        n = arrs[0].size
        if self.store_arg is None:
            rounds = np.arange(n)
        else:
            rounds = store_rounds(arrs[self.store_arg])
        # stable: calls keep their streak order inside a round
        perm = np.argsort(rounds, kind="stable")
        for idx in np.split(perm, np.flatnonzero(np.diff(rounds[perm])) + 1):
            self.run_round(
                *round_grid(*(a[idx] for a in arrs), self.store_arg)
            )


class _InterpretBound:
    """Interpreter-backed stand-in returned when a trace/touch observer is
    attached -- memory traces must reflect the real µop stream."""

    tier = "interpret"

    __slots__ = ("program", "buffers", "args", "scale", "trace", "touch")

    def __init__(self, program, buffers, args, scale, trace, touch) -> None:
        self.program = program
        self.buffers = buffers
        self.args = args
        self.scale = scale
        self.trace = trace
        self.touch = touch

    def __call__(self, i_off, w_off, o_off, pi=0, pw=0, po=0) -> None:
        a0, a1, a2 = self.args
        bases = {
            a0: i_off,
            a1: w_off,
            a2: o_off,
            a0 + "_pf": pi,
            a1 + "_pf": pw,
            a2 + "_pf": po,
        }
        execute_kernel(
            self.program,
            self.buffers,
            bases,
            trace=self.trace,
            touch=self.touch,
            scale=self.scale,
        )


class CompiledKernel:
    """A µop program translated into batched-numpy form.

    The symbolic pass runs once at construction; dtype-dependent evaluation
    plans (int16 loads fill a double-width register, and a strided view
    counts its strides in bytes) are built lazily per buffer-dtype
    signature and cached.
    """

    tier = "compiled"

    def __init__(self, program: KernelProgram) -> None:
        self.program = program
        self._stores, self._tensors = _symbolize(program)
        self._order = sorted(self._tensors)
        self._plans: dict[tuple, _Plan] = {}

    @property
    def tensors(self) -> list[str]:
        """Compute tensors the kernel reads or writes (no prefetch args)."""
        return list(self._order)

    def _plan_for(self, buffers) -> _Plan:
        dtypes = {}
        for t in self._order:
            try:
                dtypes[t] = buffers[t].dtype
            except KeyError:
                raise ReproError(
                    f"kernel references unbound tensor {t!r}"
                ) from None
        key = tuple(dtypes.values())
        plan = self._plans.get(key)
        if plan is None:
            # the first plan stored wins, so every bind of one signature
            # shares one plan (and so its schedule-group memo entries)
            plan = self._plans.setdefault(
                key, _build_plan(self._stores, self.program.vlen, dtypes)
            )
        return plan

    def bind(
        self,
        buffers: dict[str, np.ndarray],
        args: Sequence[str] = ("I", "W", "O"),
        scale: float = 1.0,
        trace=None,
        touch: Optional[Callable] = None,
    ):
        """Specialize to concrete buffers; returns a replay-callable closure
        ``fn(i_off, w_off, o_off, pi, pw, po)`` with a ``.batch`` method.

        ``args`` names the tensors the three offset arguments index (the
        forward pass binds ``("I", "W", "O")``, the update pass
        ``("I", "dW", "dO")``).  If ``trace``/``touch`` observers are given,
        an interpreter-backed closure is returned instead so memory traces
        stay exact (``fn.tier`` reports which tier actually runs).
        """
        args = tuple(args)
        if trace is not None or touch is not None:
            return _InterpretBound(
                self.program, buffers, args, scale, trace, touch
            )
        plan = self._plan_for(buffers)
        return _CompiledBound(plan, buffers, args, scale)

    def __call__(
        self,
        buffers: dict[str, np.ndarray],
        bases: Optional[dict] = None,
        scale: float = 1.0,
    ) -> None:
        """Single invocation against explicit per-tensor base offsets (the
        compiled mirror of :func:`repro.jit.interpreter.execute_kernel`)."""
        plan = self._plan_for(buffers)
        plan.run(buffers, dict(bases or {}), scale, 1)


def compile_kernel(program: KernelProgram) -> CompiledKernel:
    """Translate one program; instrumented with a ``jit.compile`` span and
    ``jit.kernels_compiled`` / ``jit.compile_seconds`` counters."""
    tracer = get_tracer()
    metrics = get_metrics()
    t0 = time.perf_counter()
    if tracer.enabled:
        with tracer.span("jit.compile", kernel=program.name):
            ck = CompiledKernel(program)
    else:
        ck = CompiledKernel(program)
    metrics.inc("jit.kernels_compiled")
    metrics.inc("jit.compile_seconds", time.perf_counter() - t0)
    return ck
