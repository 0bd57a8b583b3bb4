"""Functional executor for generated µop streams.

This is the correctness half of the substitution described in DESIGN.md: the
µop stream a generator emits is run against real numpy buffers and its result
compared with the reference loops.  The register file is simulated exactly
(32 virtual registers, each holding one vector of whatever element type was
loaded), memory operands resolve as ``base_offset[tensor] + uop.offset``, and
prefetches are side-effect-free (optionally reported to a trace for the cache
simulator).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.arch.isa import KernelProgram, Op, Uop
from repro.obs.metrics import get_metrics
from repro.types import ReproError

__all__ = ["execute_kernel", "MemTrace"]

#: trace record: (tensor_name, element_offset, element_count, kind)
#: kind is "load", "store" or "prefetch1"/"prefetch2"
MemTrace = list


class _Regs:
    """32-entry virtual vector register file."""

    __slots__ = ("slots",)

    def __init__(self) -> None:
        self.slots: list[Optional[np.ndarray]] = [None] * 32

    def get(self, idx: int) -> np.ndarray:
        v = self.slots[idx]
        if v is None:
            raise ReproError(f"read of uninitialized register {idx}")
        return v

    def set(self, idx: int, value: np.ndarray) -> None:
        self.slots[idx] = value


def execute_kernel(
    prog: KernelProgram,
    buffers: dict[str, np.ndarray],
    bases: dict[str, int],
    trace: Optional[MemTrace] = None,
    touch: Optional[Callable[[str, int, int, str], None]] = None,
    scale: float = 1.0,
) -> None:
    """Run one kernel invocation.

    ``buffers`` maps tensor names to flat numpy arrays; ``bases`` maps tensor
    names to the invocation's base element offsets (the kernel-call arguments
    of Fig. 1).  Prefetch tensors (``I_pf`` etc.) resolve against the *same*
    buffers as their compute counterparts but their own base offsets.
    ``trace``/``touch`` observe memory operations for the cache simulator.
    ``scale`` multiplies every ``VCVT_I32F32`` immediate -- the runtime
    dequantization factor of the int16 path (the compiled tier applies the
    identical product, keeping the tiers bit-for-bit comparable).  A flush
    of an int32 accumulator holding ``|acc| >= 2**31`` raises
    :class:`~repro.quant.qkernels.QuantOverflowError`, as on the compiled
    tier.
    """
    regs = _Regs()
    vlen = prog.vlen
    metrics = get_metrics()
    metrics.inc("jit.kernel_executions")
    metrics.inc("jit.uops_executed", len(prog.uops))

    def resolve(u: Uop) -> tuple[np.ndarray, int]:
        name = u.tensor
        buf_name = name[:-3] if name.endswith("_pf") else name
        try:
            buf = buffers[buf_name]
        except KeyError:
            raise ReproError(f"kernel references unbound tensor {buf_name!r}")
        base = bases.get(name, bases.get(buf_name, 0))
        return buf, base + u.offset

    def note(name: str, off: int, count: int, kind: str) -> None:
        if trace is not None:
            trace.append((name, off, count, kind))
        if touch is not None:
            touch(name, off, count, kind)

    idx = -1
    u = None
    try:
        for idx, u in enumerate(prog.uops):
            op = u.op
            if op is Op.VZERO:
                regs.set(u.dst, np.zeros(vlen, dtype=np.float64))
            elif op is Op.VLOAD:
                buf, off = resolve(u)
                n = vlen
                if buf.dtype == np.int16:
                    n = 2 * vlen  # a 512-bit register holds 32 int16
                regs.set(u.dst, buf[off : off + n].astype(np.float64))
                note(u.tensor, off, n, "load")
            elif op is Op.VBCAST:
                buf, off = resolve(u)
                if u.imm == 2.0:  # int16 pair broadcast (VNNI source form)
                    pair = buf[off : off + 2].astype(np.float64)
                    regs.set(u.dst, np.tile(pair, vlen))
                    note(u.tensor, off, 2, "load")
                else:
                    regs.set(u.dst, np.full(vlen, float(buf[off])))
                    note(u.tensor, off, 1, "load")
            elif op in (Op.VSTORE, Op.VSTORE_NT):
                buf, off = resolve(u)
                val = regs.get(u.src1)
                buf[off : off + vlen] = val.astype(buf.dtype)
                note(u.tensor, off, vlen, "store")
            elif op is Op.VFMA:
                regs.get(u.dst)[:] += regs.get(u.src1) * regs.get(u.src2)
            elif op is Op.VFMA_MEM:
                buf, off = resolve(u)
                regs.get(u.dst)[:] += regs.get(u.src1) * float(buf[off])
                note(u.tensor, off, 1, "load")
            elif op is Op.V4FMA:
                # src1 is the first of `imm` *contiguous* weight registers;
                # the memory operand covers `imm` consecutive input elements
                # (KNM's chained-FMA form).
                buf, off = resolve(u)
                depth = int(u.imm) or 4
                dst = regs.get(u.dst)
                for j in range(depth):
                    dst[:] += regs.get(u.src1 + j) * float(buf[off + j])
                note(u.tensor, off, depth, "load")
            elif op is Op.VVNNI:
                if u.tensor is not None:
                    # 4VNNIW quad form: `imm` contiguous weight registers,
                    # one memory operand covering `imm` consecutive i16 pairs
                    buf, off = resolve(u)
                    depth = int(u.imm) or 4
                    dst = regs.get(u.dst)
                    for j in range(depth):
                        w = regs.get(u.src1 + j).reshape(vlen, 2)
                        a0 = float(buf[off + 2 * j])
                        a1 = float(buf[off + 2 * j + 1])
                        dst[:] += w[:, 0] * a0 + w[:, 1] * a1
                    note(u.tensor, off, 2 * depth, "load")
                else:
                    # src1: packed weights [k0p0, k0p1, k1p0, ...] (2v i16)
                    # src2: tiled input pair [a0, a1] * vlen
                    w = regs.get(u.src1).reshape(vlen, 2)
                    a = regs.get(u.src2).reshape(vlen, 2)
                    regs.get(u.dst)[:] += w[:, 0] * a[:, 0] + w[:, 1] * a[:, 1]
            elif op is Op.VADD:
                regs.set(u.dst, regs.get(u.src1) + regs.get(u.src2))
            elif op is Op.VMUL:
                regs.set(u.dst, regs.get(u.src1) * regs.get(u.src2))
            elif op is Op.VMAX:
                regs.set(
                    u.dst, np.maximum(regs.get(u.src1), regs.get(u.src2))
                )
            elif op is Op.VCVT_I32F32:
                acc = regs.get(u.src1)
                peak = np.abs(acc).max(initial=0.0)
                if peak >= 2.0**31:
                    from repro.quant.qkernels import QuantOverflowError

                    raise QuantOverflowError(
                        f"µop {idx} (VCVT_I32F32): int32 overflow in "
                        f"interpreted q16 kernel (|acc|={int(peak)})"
                    )
                regs.set(u.dst, acc * (u.imm * scale))
            elif op is Op.PREFETCH1 or op is Op.PREFETCH2:
                if trace is not None or touch is not None:
                    buf, off = resolve(u)
                    kind = "prefetch1" if op is Op.PREFETCH1 else "prefetch2"
                    note(u.tensor, off, 1, kind)
            else:  # pragma: no cover - exhaustive over Op
                raise ReproError(f"unhandled op {op}")
    except ReproError as e:
        if type(e) is not ReproError:
            raise  # typed faults (QuantOverflowError) keep their type
        # annotate faults with their position in the µop stream
        raise ReproError(f"µop {idx} ({u.op.name}): {e}") from None
