"""Tensor distribution/reduction nodes.

``Split`` is the node type the NL Extender inserts when one tensor feeds
several consumers (Fig. 3): forward fans the tensor out, backward *sums* the
incoming gradients.  ``EltwiseSum`` is the residual join of ResNet blocks --
fusable into the producing convolution (section II-G).
"""

from __future__ import annotations

import numpy as np

from repro.layers.base import Layer

__all__ = ["Split", "EltwiseSum"]


class Split(Layer):
    """Forward: identity to ``fanout`` consumers; backward: gradient sum."""

    def __init__(self, fanout: int):
        self.fanout = fanout
        self._grads: list[np.ndarray] = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._grads = []
        return x

    def accumulate(self, dy: np.ndarray) -> np.ndarray | None:
        """Collect one consumer's gradient; returns the summed gradient once
        all ``fanout`` consumers have reported, else None."""
        self._grads.append(dy)
        if len(self._grads) == self.fanout:
            out = self._grads[0].copy()
            for g in self._grads[1:]:
                out += g
            self._grads = []
            return out
        return None

    def backward(self, dy: np.ndarray) -> np.ndarray:
        out = self.accumulate(dy)
        if out is None:
            raise RuntimeError(
                "Split.backward called before all consumers reported; use "
                "accumulate() from the ETG"
            )
        return out


class EltwiseSum(Layer):
    """``y = sum(inputs)``; backward passes dy to every input."""

    def __init__(self, n_inputs: int = 2):
        self.n_inputs = n_inputs

    def forward(self, *xs: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Adds left to right into ``out`` (a new array by default), which
        may be ``xs[0]`` itself."""
        if out is None:
            out = xs[0].copy()
        elif out is not xs[0]:
            out[...] = xs[0]
        for x in xs[1:]:
            out += x
        return out

    def backward(self, dy: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(dy for _ in range(self.n_inputs))
