"""Fusable post-operators (section II-G).

Modern topologies follow nearly every convolution with bandwidth-bound
element-wise layers (Bias, BatchNorm application, ReLU, residual adds).  The
paper decomposes these so they run on an output sub-tensor right after its
final ``c_b`` accumulation, while the data is hot in cache -- saving a full
read+write pass over the output tensor per fused operator.

Each :class:`FusedOp` provides

* ``kernel_tag`` -- the tag baked into the JIT descriptor (see
  :class:`~repro.jit.codegen.ConvKernelDesc`);
* ``bind(kb, vlen)`` -- the extra buffers/base-offsets the µop kernel needs;
* ``apply_block`` -- the in-place numpy semantics used by the blocked engine
  (and by the streams replay's APPLY calls);
* ``bytes_saved`` -- the memory traffic the fusion avoids, consumed by the
  performance model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.layers.relu import relu
from repro.types import ShapeError

__all__ = ["FusedOp", "Bias", "ReLU", "BatchNormApply", "EltwiseAdd"]


class FusedOp:
    """Base class: an element-wise operator fused after a convolution."""

    #: tag used in ConvKernelDesc.fused
    kernel_tag: str = ""

    def bind(self, kb: int, vlen: int) -> tuple[dict[str, np.ndarray], dict[str, int]]:
        """(buffers, base_offsets) the µop kernel variant consumes."""
        return {}, {}

    def apply_block(self, block: np.ndarray, kb: int) -> None:
        """In-place application to an ``(..., vlen)`` output sub-block of
        output-feature block ``kb``."""
        raise NotImplementedError

    def bytes_saved(self, out_bytes: int) -> int:
        """Output-tensor traffic (bytes) a fused application avoids versus a
        standalone pass: one read + one write of the output by default."""
        return 2 * out_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@dataclass
class Bias(FusedOp):
    """``O[..., k] += bias[k]``."""

    bias: np.ndarray
    kernel_tag: str = "bias"

    def __post_init__(self) -> None:
        self.bias = np.asarray(self.bias, dtype=np.float32).reshape(-1)

    def bind(self, kb: int, vlen: int):
        if (kb + 1) * vlen > self.bias.size:
            raise ShapeError("bias shorter than K")
        return {"B": self.bias}, {"B": kb * vlen}

    def apply_block(self, block: np.ndarray, kb: int) -> None:
        vlen = block.shape[-1]
        block += self.bias[kb * vlen : (kb + 1) * vlen]


class ReLU(FusedOp):
    """``O = max(O, 0)``, with :class:`~repro.layers.ReLULayer`'s bits
    (a NaN or ``-0.0`` becomes ``+0.0``)."""

    kernel_tag = "relu"

    def apply_block(self, block: np.ndarray, kb: int) -> None:
        relu(block, out=block)


@dataclass
class BatchNormApply(FusedOp):
    """Apply pre-computed batch-norm statistics: ``O = O*gamma'[k] + beta'[k]``.

    (The scale/shift form after folding mean/var, which is how inference and
    the fused training forward consume BN.)
    """

    gamma: np.ndarray
    beta: np.ndarray
    kernel_tag: str = "bn"

    def __post_init__(self) -> None:
        self.gamma = np.asarray(self.gamma, dtype=np.float32).reshape(-1)
        self.beta = np.asarray(self.beta, dtype=np.float32).reshape(-1)
        if self.gamma.shape != self.beta.shape:
            raise ShapeError("gamma/beta length mismatch")

    def bind(self, kb: int, vlen: int):
        return (
            {"G": self.gamma, "Bt": self.beta},
            {"G": kb * vlen, "Bt": kb * vlen},
        )

    def apply_block(self, block: np.ndarray, kb: int) -> None:
        vlen = block.shape[-1]
        sl = slice(kb * vlen, (kb + 1) * vlen)
        block *= self.gamma[sl]
        block += self.beta[sl]


@dataclass
class EltwiseAdd(FusedOp):
    """Residual add: ``O += E`` where ``E`` shares O's blocked layout."""

    other_flat: np.ndarray
    kernel_tag: str = "add"

    def bind(self, kb: int, vlen: int):
        # base offset equals O's own offset; the engine passes it per call
        return {"E": self.other_flat}, {}

    def apply_block(self, block: np.ndarray, kb: int, other_block=None) -> None:
        if other_block is None:
            raise ShapeError("EltwiseAdd.apply_block needs the residual block")
        block += other_block

    def bytes_saved(self, out_bytes: int) -> int:
        # avoided: read O + read E + write O of the standalone pass, minus
        # the E read that still happens fused
        return 2 * out_bytes
