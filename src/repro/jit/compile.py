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
  term is gathered once, not once per member, and over a grid round
  such a term is a rank-1 update of the accumulator.  An fp32 chain
  whose accumulator holds at least ``_DGER_MIN`` elements adds each term
  with one in-place BLAS ``dger`` call, from the OpenBLAS numpy has
  loaded: an f32 x f32 product is exact in float64, so every element
  still gets one rounding per term, in term order.  Any other chain
  forms its products a block at a time in a fixed-size scratch
  (``_PRODUCT_BLOCK``) and adds them one term at a time;
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

Prefetch µops are no-ops in this tier.  When a ``MemTrace``/cache-simulator
observer is attached, :meth:`CompiledKernel.bind` silently returns an
interpreter-backed closure instead so traces stay exact.

Programs a symbolic pass cannot prove safe (overlapping stores, register
reads the generators never emit) raise :class:`CompileUnsupported`; callers
fall back to the interpreter.
"""

from __future__ import annotations

import ctypes
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


def _load_dger():
    """CBLAS ``dger`` with 64-bit integers, from the OpenBLAS that numpy
    has already loaded (the symbol numpy >= 2 wheels export), or ``None``
    when this numpy build does not export it."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        fn = lib.scipy_cblas_dger64_
    except (AttributeError, OSError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = (ctypes.c_int, i64, i64, ctypes.c_double,
                   ptr, i64, ptr, i64, ptr, i64)
    fn.restype = None
    return fn


#: ``dger(order, M, N, alpha, x, incx, y, incy, A, lda)``: ``A += alpha *
#: x yᵀ``; ``None`` folds every chain with numpy
_dger = _load_dger()
_ROW_MAJOR = 101  # CblasRowMajor
#: smallest accumulator (elements) a ``dger`` call pays for: on a 2-CPU
#: x86 VM one ctypes call costs about 2.5 µs, and numpy's multiply-add
#: 1.2-1.8 ns per element
_DGER_MIN = 2048


def _fold_rank1(w: np.ndarray, s: np.ndarray, acc: np.ndarray) -> bool:
    """Fold an FMA run's terms into ``acc`` as ``dger`` rank-1 updates,
    when that is both exact and worth a call; return whether it did.

    ``acc`` (``(G, n, H, m)``, C-contiguous) is the row-major ``(G*n) x
    (H*m)`` matrix, term ``t`` adds ``w[t] (G, n) ⊗ s[t] (H, m)``.  The
    caller passes operands widened from float32, so every product is
    exact in float64 and an FMA or a multiply-then-add rounds each
    element once per term, in term order: the numpy fold's bits.  The
    path needs a weight vector shared by every member and scalars that
    do not vary across grid rows, and steps aside when any operand or
    accumulator element is NaN, since OpenBLAS and numpy keep different
    payloads when two NaNs meet."""
    g, n, h, m = acc.shape
    if (
        _dger is None
        or acc.size < _DGER_MIN
        or w.shape[1:] != (g, n, 1, 1)
        or s.shape[1:] != (1, 1, h, m)
        or not (w.flags.c_contiguous and s.flags.c_contiguous
                and acc.flags.c_contiguous)
        or np.isnan(w).any()
        or np.isnan(s).any()
        or np.isnan(acc).any()
    ):
        return False
    rows, cols = g * n, h * m
    x, y, a = w.ctypes.data, s.ctypes.data, acc.ctypes.data
    dx, dy = w.strides[0], s.strides[0]
    for t in range(w.shape[0]):
        _dger(_ROW_MAJOR, rows, cols, 1.0, x + t * dx, 1, y + t * dy, 1,
              a, cols)
    return True


#: the base of a tensor no offset argument moves
_NO_BASE = np.zeros((1, 1, 1, 1), dtype=np.int64)


def _grid_base(base) -> np.ndarray:
    """A base offset -- a scalar or a 2-D array broadcasting to the
    ``(G, H)`` grid -- shaped ``(G|1, 1, H|1, 1)`` for the layout."""
    base = np.asarray(base)
    g, h = base.shape if base.ndim == 2 else (1, 1)
    return base.reshape(g, 1, h, 1)


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
    once per column."""

    __slots__ = ("buffers", "bases", "scale", "grid")

    def __init__(self, buffers, bases, scale) -> None:
        self.buffers = buffers
        self.bases = {t: _grid_base(b) for t, b in bases.items()}
        g, _, h, _ = np.broadcast_shapes(
            _NO_BASE.shape, *(b.shape for b in self.bases.values())
        )
        self.grid = (g, h)
        self.scale = scale

    def base(self, tensor: str) -> np.ndarray:
        """``tensor``'s base offsets shaped ``(G|1, 1, H|1, 1)``; indices
        of shape ``(n, 1, m)`` or ``(T, 1, n, 1, m)`` broadcast against
        it into the layout."""
        return self.bases.get(tensor, _NO_BASE)


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64) if a.dtype != np.float64 else a


def _lanes(offs: np.ndarray, n: int) -> np.ndarray:
    """Element offsets of ``n``-wide vectors at ``offs`` (one per member),
    shaped ``(n, 1, m)`` and contiguous, so gathers come out in the
    ``(G, n, H, m)`` layout in C order."""
    return np.ascontiguousarray((offs[:, None] + np.arange(n)).T[:, None])


class _EZero:
    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        self.m = m
        self.n = n

    def eval(self, ctx: _Ctx) -> np.ndarray:
        g, h = ctx.grid
        return np.zeros((g, self.n, h, self.m))


class _EGather:
    """Vector load: ``buf[base + off : base + off + n]`` per member."""

    __slots__ = ("tensor", "lanes")

    def __init__(self, tensor: str, offs: np.ndarray, n: int) -> None:
        self.tensor = tensor
        self.lanes = _lanes(offs, n)

    def eval(self, ctx: _Ctx) -> np.ndarray:
        buf = ctx.buffers[self.tensor]
        return _f64(buf[self.lanes + ctx.base(self.tensor)])


class _EBcastS:
    """Scalar broadcast ``buf[base + off]`` materialized across the ``n``
    lanes, per member."""

    __slots__ = ("tensor", "offs", "n")

    def __init__(self, tensor: str, offs: np.ndarray, n: int) -> None:
        self.tensor = tensor
        self.offs = offs  # (m,)
        self.n = n

    def eval(self, ctx: _Ctx) -> np.ndarray:
        buf = ctx.buffers[self.tensor]
        v = _f64(buf[self.offs + ctx.base(self.tensor)])  # (G, 1, H, m)
        return np.repeat(v, self.n, axis=1)


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
    tensor).  ``widx`` is ``(T, 1, wn, 1, m)``, or ``(T, 1, wn, 1, 1)``
    when every member of the store group reads the same weight vector at
    each term -- then the vector is gathered once per term, not once per
    member.  ``sidx`` is ``(T, 1, pair, 1, m)``.  The unit axes take the
    grid's rows and columns from the tensors' bases, so the weight
    vectors of a grid row are gathered ``(T, G, wn, 1, 1)`` and the
    scalars of an input column ``(T, 1, pair, H, m)``: each FMA term is
    then a rank-1 update of the accumulator, which ``rank1`` runs may
    hand to BLAS (:func:`_fold_rank1`)."""

    __slots__ = ("T", "wtensor", "widx", "stensor", "sidx")
    pair = 1  # scalar operands per term
    rank1 = False  # a term may be folded as one ``dger`` rank-1 update

    def __init__(self, wtensor, woffs, wn, stensor, soffs) -> None:
        self.T = woffs.shape[0]
        if (woffs == woffs[:, :1]).all():
            woffs = woffs[:, :1]
        self.wtensor = wtensor
        self.widx = (woffs[:, None, None, None, :]
                     + np.arange(wn)[:, None, None])
        self.stensor = stensor
        self.sidx = (soffs[:, None, None, None, :]
                     + np.arange(self.pair)[:, None, None])

    @property
    def elements(self) -> int:
        """float64 operands one call gathers for this run."""
        return self.widx.size + self.sidx.size

    def fold(self, acc: np.ndarray, ctx: _Ctx) -> None:
        """Add the run's terms to ``acc`` (``(G, n, H, m)``) one at a
        time, in order.  An fp32 FMA run whose accumulator holds at least
        ``_DGER_MIN`` elements adds each term with one in-place BLAS
        rank-1 update (:func:`_fold_rank1`).  Any other run forms the
        products of as many terms as fit in ``_PRODUCT_BLOCK`` elements
        with one multiply (the per-term multiply of a small batch costs
        more in numpy call overhead than in arithmetic), then adds them
        one term at a time.  Both give the same bits."""
        wb = ctx.buffers[self.wtensor]
        sb = ctx.buffers[self.stensor]
        w = _f64(wb[self.widx + ctx.base(self.wtensor)])
        s = _f64(sb[self.sidx + ctx.base(self.stensor)])
        if (self.rank1 and wb.dtype == sb.dtype == np.float32
                and _fold_rank1(w, s, acc)):
            return
        k = max(1, min(self.T, _PRODUCT_BLOCK // acc.size))
        prod = np.empty((k,) + acc.shape)
        for t0 in range(0, self.T, k):
            p = prod[: self.T - t0]
            self.products(w[t0 : t0 + k], s[t0 : t0 + k], p)
            for term in p:
                acc += term


class _RunFma(_Run):
    """``acc += w * t[off]``."""

    __slots__ = ()
    rank1 = True

    @staticmethod
    def products(w, s, out) -> None:
        np.multiply(w, s, out=out)


class _RunVnni(_Run):
    """int16 pair dot-products: ``acc += w_even*t[off] + w_odd*t[off+1]``."""

    __slots__ = ()
    pair = 2

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
        for run in self.runs:
            run.fold(acc, ctx)
        return acc


class _EStore:
    """Scatter a store group's ``(G, n, H, m)`` values."""

    __slots__ = ("tensor", "lanes", "node")

    def __init__(self, tensor: str, offs: np.ndarray, n: int, node) -> None:
        self.tensor = tensor
        self.lanes = _lanes(offs, n)
        self.node = node

    @property
    def idx(self) -> np.ndarray:
        """The ``(m, n)`` element offsets the members store, one row
        each."""
        return self.lanes[:, 0].T

    def execute(self, ctx: _Ctx) -> None:
        val = self.node.eval(ctx)
        buf = ctx.buffers[self.tensor]
        buf[self.lanes + ctx.base(self.tensor)] = val


class _Plan:
    """Dtype-resolved evaluation plan: ordered store groups."""

    __slots__ = ("stores", "store_tensors", "batch_cap")

    def __init__(self, stores: list, store_tensors: set, est: int) -> None:
        self.stores = stores
        self.store_tensors = store_tensors
        # calls per batched evaluation: ``est`` is one call's float64
        # working set (stored values plus every chain's accumulator and
        # gathered operands, nested chains included)
        self.batch_cap = max(1, _BATCH_BUDGET // max(1, est))

    def run(self, buffers, bases, scale, batch) -> None:
        """Evaluate ``batch`` calls at once: a ``(G, H)`` grid, ``G * H ==
        batch``, whose shape the ``bases`` carry (see :class:`_Ctx`)."""
        ctx = _Ctx(buffers, bases, scale)
        for st in self.stores:
            st.execute(ctx)


def _build_plan(final_stores, vlen: int, widths: dict) -> _Plan:
    """Group isomorphic stores and lower each group to eval nodes."""
    est = 0

    def width(tensor: str) -> int:
        return widths[tensor] * vlen

    def build(rep, members):
        nonlocal est
        m = len(members)
        if isinstance(rep, _SZero):
            return _EZero(m, vlen)
        if isinstance(rep, _SLoad):
            offs = np.array([node.off for node in members], dtype=np.int64)
            return _EGather(rep.tensor, offs, width(rep.tensor))
        if isinstance(rep, _SBcast):
            offs = np.array([node.off for node in members], dtype=np.int64)
            return _EBcastS(rep.tensor, offs, vlen)
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
    return _Plan(stores, store_tensors, est)


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

    __slots__ = ("plan", "buffers", "args", "scale", "extra", "store_arg")

    def __init__(self, plan, buffers, args, scale, extra) -> None:
        self.plan = plan
        self.buffers = buffers
        self.args = args
        self.scale = scale
        self.extra = extra
        #: index of the offset argument that selects the block a call
        #: stores to; ``None`` when no single argument selects every store
        stores = plan.store_tensors
        self.store_arg = (
            args.index(next(iter(stores)))
            if len(stores) == 1 and stores <= set(args)
            else None
        )

    def _run(self, i_off, w_off, o_off, batch: int) -> None:
        bases = dict(self.extra) if self.extra else {}
        bases[self.args[0]] = i_off
        bases[self.args[1]] = w_off
        bases[self.args[2]] = o_off
        self.plan.run(self.buffers, bases, self.scale, batch)

    def __call__(self, i_off, w_off, o_off, pi=0, pw=0, po=0) -> None:
        self._run(i_off, w_off, o_off, 1)

    def run_round(self, i_arr, w_arr, o_arr) -> None:
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
        """
        arrs = [np.asarray(a) for a in (i_arr, w_arr, o_arr)]
        rows, cols = _grid_shape(arrs)
        cap = self.plan.batch_cap
        h = max(1, min(cols, cap))
        g = max(1, min(rows, cap // h))
        whole = slice(None)  # a broadcast axis spans every block
        for r in range(0, rows, g):
            rs = slice(r, r + g)
            for c in range(0, cols, h):
                cs = slice(c, c + h)
                part = [
                    a[rs if a.shape[0] > 1 else whole,
                      cs if a.shape[1] > 1 else whole]
                    for a in arrs
                ]
                self._run(*part, min(g, rows - r) * min(h, cols - c))

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

    __slots__ = ("program", "buffers", "args", "scale", "trace", "touch",
                 "extra")

    def __init__(self, program, buffers, args, scale, trace, touch,
                 extra) -> None:
        self.program = program
        self.buffers = buffers
        self.args = args
        self.scale = scale
        self.trace = trace
        self.touch = touch
        self.extra = extra

    def __call__(self, i_off, w_off, o_off, pi=0, pw=0, po=0) -> None:
        a0, a1, a2 = self.args
        bases = dict(self.extra) if self.extra else {}
        bases.update(
            {
                a0: i_off,
                a1: w_off,
                a2: o_off,
                a0 + "_pf": pi,
                a1 + "_pf": pw,
                a2 + "_pf": po,
            }
        )
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
    plans (int16 loads fill a double-width register) are built lazily per
    buffer-dtype signature and cached.
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
        widths = {}
        for t in self._order:
            try:
                buf = buffers[t]
            except KeyError:
                raise ReproError(
                    f"kernel references unbound tensor {t!r}"
                ) from None
            widths[t] = 2 if buf.dtype == np.int16 else 1
        key = tuple(widths[t] for t in self._order)
        plan = self._plans.get(key)
        if plan is None:
            plan = _build_plan(self._stores, self.program.vlen, widths)
            self._plans[key] = plan
        return plan

    def bind(
        self,
        buffers: dict[str, np.ndarray],
        args: Sequence[str] = ("I", "W", "O"),
        scale: float = 1.0,
        trace=None,
        touch: Optional[Callable] = None,
        extra_bases: Optional[dict] = None,
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
                self.program, buffers, args, scale, trace, touch, extra_bases
            )
        plan = self._plan_for(buffers)
        return _CompiledBound(plan, buffers, args, scale, extra_bases)

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
