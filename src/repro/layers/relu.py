"""ReLU activation (fusable into convolutions, section II-G)."""

from __future__ import annotations

import numpy as np

from repro.layers.base import Layer

__all__ = ["ReLULayer", "relu"]


def relu(v: np.ndarray, mask: np.ndarray | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """``np.where(mask, v, 0.0)`` bit for bit, ``mask`` defaulting to
    ``v > 0``, with no per-element branch.

    Without a mask it is ``fmax(v + 0, 0)``: the ``+ 0`` turns a
    ``-0.0`` into ``+0.0`` and a signalling NaN into a quiet one (numpy
    warns of an invalid value then), and ``fmax`` drops a quiet NaN for
    the zero on every loop (its scalar loop keeps a NaN when the NaN is
    signalling).  With a mask it keeps ``v``'s bits where the mask holds
    and writes ``+0.0`` (all bits clear) elsewhere, so NaN payloads and
    subnormals pass through as ``np.where`` passes them.  ``out`` may be
    ``v`` itself.
    """
    if mask is None:
        out = np.add(v, 0.0, out=out)
        np.fmax(out, 0.0, out=out)
        return out
    bits = np.dtype(f"u{v.itemsize}")
    ones = np.subtract(0, mask, dtype=bits)  # True -> all bits set
    if out is None:
        out = np.empty(np.broadcast_shapes(v.shape, mask.shape), v.dtype)
    np.bitwise_and(v.view(bits), ones, out=out.view(bits))
    return out


class ReLULayer(Layer):
    """``y = max(x, 0)``; backward masks the gradient."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return relu(x)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return relu(dy, self._mask)
