"""Stream buffers recorded by the dryrun phase.

Following Fig. 2, a thread's execution is captured by five parallel streams:
the kernel id per call, three offset streams (input/weight/output), and the
argument stream for APPLY calls.  They are stored as compact numpy arrays --
the Python analogue of the paper's auxiliary *stream buffers* -- so the
replay loop touches only flat memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.types import ReproError

__all__ = [
    "KernelStream", "CONV_CALL", "APPLY_CALL", "ScheduleGroup",
    "store_rounds", "round_grid",
]

#: sentinel kernel ids; real conv variants are numbered 0..N-1
CONV_CALL = 0
APPLY_CALL = -1


@dataclass
class KernelStream:
    """Recorded call stream for one thread.

    ``kinds[i] >= 0`` is a convolution call using variant ``kinds[i]`` with
    offsets ``(i_off[i], w_off[i], o_off[i])``; ``kinds[i] == APPLY_CALL``
    applies fused operator ``apply_op[i]`` to the output sub-tensor at
    ``o_off[i]``.  For APPLY records, ``w_off`` carries the output-feature
    block index ``kb`` (per-channel parameters) and ``i_off`` carries the
    preceding conv call's variant id (the APPLY covers that call's output
    block shape).
    """

    kinds: list[int] = field(default_factory=list)
    i_off: list[int] = field(default_factory=list)
    w_off: list[int] = field(default_factory=list)
    o_off: list[int] = field(default_factory=list)
    apply_op: list[int] = field(default_factory=list)

    def record_conv(self, variant: int, i_off: int, w_off: int, o_off: int) -> None:
        if variant < 0:
            raise ReproError("conv variant ids must be >= 0")
        self.kinds.append(variant)
        self.i_off.append(i_off)
        self.w_off.append(w_off)
        self.o_off.append(o_off)
        self.apply_op.append(-1)

    def record_apply(
        self, op_index: int, o_off: int, kb: int, variant: int = 0
    ) -> None:
        self.kinds.append(APPLY_CALL)
        self.i_off.append(variant)
        self.w_off.append(kb)
        self.o_off.append(o_off)
        self.apply_op.append(op_index)

    def __len__(self) -> int:
        return len(self.kinds)

    def freeze(self) -> "FrozenStream":
        return FrozenStream(
            kinds=np.asarray(self.kinds, dtype=np.int32),
            i_off=np.asarray(self.i_off, dtype=np.int64),
            w_off=np.asarray(self.w_off, dtype=np.int64),
            o_off=np.asarray(self.o_off, dtype=np.int64),
            apply_op=np.asarray(self.apply_op, dtype=np.int32),
        )


def _next_conv_index(kinds: np.ndarray) -> np.ndarray:
    """``next_conv[t]`` = index of the first conv record after ``t`` (APPLY
    records skipped), or ``t`` itself when no conv follows -- the prefetch
    target of Algorithm 5, precomputed once so replay never rescans."""
    n = int(kinds.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    pos = np.where(kinds >= 0, np.arange(n, dtype=np.int64), 2 * n)
    # suffix-min gives, per t, the first conv index at or after t
    first_at = np.minimum.accumulate(pos[::-1])[::-1]
    nxt = np.empty(n, dtype=np.int64)
    nxt[:-1] = first_at[1:]
    nxt[-1] = 2 * n  # nothing after the last record
    own = np.arange(n, dtype=np.int64)
    return np.where(nxt >= n, own, nxt)


def store_rounds(keys: np.ndarray) -> np.ndarray:
    """Dependency round of each call: how many earlier calls store to the
    same block (``keys`` holds each call's store base offset, in call
    order).  The calls of one round store to pairwise distinct blocks."""
    keys = np.asarray(keys)
    n = keys.size
    perm = np.argsort(keys, kind="stable")
    srt = keys[perm]
    first = np.ones(n, dtype=bool)
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    # rank within each run of equal offsets, in call order (stable sort)
    starts = np.flatnonzero(first)
    rank = np.arange(n) - np.repeat(starts, np.diff(starts, append=n))
    rounds = np.empty(n, dtype=np.int64)
    rounds[perm] = rank
    return rounds


#: the offset argument that indexes a grid's rows, by store argument: the
#: weight block when a bind stores through ``o_off`` (forward, backward),
#: the output-gradient block when it stores through ``w_off`` (update)
_ROW_ARG = {2: 1, 1: 2}


def round_grid(i_off, w_off, o_off, store_arg) -> tuple:
    """Lay out one dependency round's calls (equal-length 1-D offset
    arrays) for a batched dispatch.

    Rows are the distinct offsets of the argument other than ``i_off``
    and the store argument ``store_arg``; columns are the distinct
    ``i_off``.  When the calls are exactly the cross product of rows and
    columns, each pair once, they are ordered row-major and returned as
    a ``(1, H)`` input array, a ``(G, 1)`` row array and a ``(G, H)``
    store array, so a kernel gathers each row's and each column's
    operands once.  Otherwise every array is a ``(B, 1)`` column in call
    order.  Reordering is safe because the calls of one round store to
    pairwise distinct blocks."""
    arrs = [i_off, w_off, o_off]
    row_arg = _ROW_ARG.get(store_arg)
    if row_arg is not None:
        rows, r = np.unique(arrs[row_arg], return_inverse=True)
        cols, c = np.unique(i_off, return_inverse=True)
        cell = r * cols.size + c
        if (cell.size == rows.size * cols.size
                and np.unique(cell).size == cell.size):
            grid = [cols[None, :], None, None]
            grid[row_arg] = rows[:, None]
            grid[store_arg] = arrs[store_arg][np.argsort(cell)].reshape(
                rows.size, cols.size
            )
            return tuple(grid)
    return tuple(a[:, None] for a in arrs)


class ScheduleGroup(tuple):
    """One group of a replay schedule, ``(variant, i_off, w_off,
    o_off)``, with ``memo``: a dict in which the kernels that run the
    group keep what they derive once from its fixed offsets (the
    compiled tier: its blocks and their strided operand views, see
    :meth:`repro.jit.compile._CompiledBound.run_round`).  Filling it is
    deterministic and idempotent, so threads replaying one stream may
    share it."""

    def __new__(cls, group: tuple) -> "ScheduleGroup":
        self = super().__new__(cls, group)
        self.memo = {}
        return self


@dataclass(frozen=True)
class FrozenStream:
    """Immutable, array-backed form used by replay.

    Freezing also precomputes everything the replay inner loop would
    otherwise redo per call: the ``next_conv`` prefetch-target index array
    (the former ``while kinds[nt] < 0`` rescan was quadratic in APPLY-heavy
    streams) and plain Python ``int`` mirrors of the offset streams so
    replay dispatch performs no per-call numpy-scalar conversions.
    """

    kinds: np.ndarray
    i_off: np.ndarray
    w_off: np.ndarray
    o_off: np.ndarray
    apply_op: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "next_conv", _next_conv_index(self.kinds))

    @property
    def kinds_list(self) -> list[int]:
        return self._cached_list("kinds")

    @property
    def i_off_list(self) -> list[int]:
        return self._cached_list("i_off")

    @property
    def w_off_list(self) -> list[int]:
        return self._cached_list("w_off")

    @property
    def o_off_list(self) -> list[int]:
        return self._cached_list("o_off")

    @property
    def apply_op_list(self) -> list[int]:
        return self._cached_list("apply_op")

    @property
    def next_conv_list(self) -> list[int]:
        return self._cached_list("next_conv")

    def _cached_list(self, name: str) -> list[int]:
        cache = self.__dict__.get("_lists")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_lists", cache)
        got = cache.get(name)
        if got is None:
            got = cache[name] = getattr(self, name).tolist()
        return got

    def segments(self) -> list:
        """The RLE segment encoding of this stream, computed once and
        cached (segments are a pure function of the immutable arrays, so
        per-replay re-encoding -- the update pass used to pay it every
        call -- is wasted work)."""
        got = self.__dict__.get("_segments")
        if got is None:
            from repro.streams.rle import encode_segments

            got = encode_segments(self)
            object.__setattr__(self, "_segments", got)
        return got

    def schedule(self, store_arg: int) -> dict[int, tuple]:
        """Batched replay schedule of every CONV-STREAK, keyed by the
        streak's first record; built once per ``store_arg`` and cached.

        ``store_arg`` picks the offset stream (0 ``i_off``, 1 ``w_off``,
        2 ``o_off``) that selects the block each call stores to.  A
        call's round is the number of earlier calls in its streak that
        store to the same block (:func:`store_rounds`).  A streak's
        groups are :class:`ScheduleGroup` s ``(variant, i_off, w_off,
        o_off)``, one per (round, variant), rounds in order.  Each group
        is laid out by :func:`round_grid`: a weight-block x input-row
        grid when its calls are that cross product, else ``(B, 1)``
        columns in streak order.  Running the groups in order keeps
        every block's read-modify-write chain in recorded order, and the
        calls of one group store to pairwise distinct blocks.
        """
        cache = self.__dict__.get("_schedules")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_schedules", cache)
        got = cache.get(store_arg)
        if got is None:
            from repro.streams.rle import SegmentKind

            got = cache[store_arg] = {
                seg.start: self._streak_groups(
                    store_arg, seg.start, seg.start + seg.info
                )
                for seg in self.segments()
                if seg.kind is SegmentKind.CONV_STREAK
            }
        return got

    def _streak_groups(self, store_arg: int, lo: int, hi: int) -> tuple:
        offs = (self.i_off, self.w_off, self.o_off)
        kinds = self.kinds[lo:hi]
        rounds = store_rounds(offs[store_arg][lo:hi])
        order = np.lexsort((kinds, rounds))  # stable: call order last
        cut = np.flatnonzero(
            (np.diff(rounds[order]) != 0) | (np.diff(kinds[order]) != 0)
        )
        return tuple(
            ScheduleGroup((int(self.kinds[idx[0]]),)
                          + round_grid(*(a[idx] for a in offs), store_arg))
            for idx in np.split(order + lo, cut + 1)
        )

    def __len__(self) -> int:
        return int(self.kinds.size)

    @property
    def conv_calls(self) -> int:
        return int((self.kinds >= 0).sum())

    @property
    def apply_calls(self) -> int:
        return int((self.kinds == APPLY_CALL).sum())
