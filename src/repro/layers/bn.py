"""Batch normalization (training and eval mode).

GxM nodes of this type exchange gradients in multi-node training
(section II-L lists batch normalization among the communication endpoints).
:func:`batchnorm_eval` is the eval forward as an in-place pass that
repeats :meth:`BatchNorm2D.forward`'s float32 operations element by
element, so it gives the same bits.  The folded scale/shift form
(:meth:`BatchNorm2D.folded_scale_shift`, the fusable
:class:`~repro.conv.fusion.BatchNormApply` post-op) computes the same
function with two operations per element on pre-rounded constants, so
its bits differ.
"""

from __future__ import annotations

import numpy as np

from repro.layers.base import Layer

__all__ = ["BatchNorm2D", "batchnorm_eval"]


def batchnorm_eval(x: np.ndarray, mean, inv, gamma, beta,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``gamma * ((x - mean) * inv) + beta``, one operation at a time in
    :meth:`BatchNorm2D.forward`'s order and operand order; the constants
    broadcast against ``x``.  ``out`` may be ``x`` itself."""
    y = np.subtract(x, mean, out=out)
    y *= inv
    np.multiply(gamma, y, out=y)
    y += beta
    return y


class BatchNorm2D(Layer):
    """Per-channel batch norm over (N, H, W) with running statistics."""

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.9):
        self.gamma = np.ones(channels, dtype=np.float32)
        self.beta = np.zeros(channels, dtype=np.float32)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.eps = eps
        self.momentum = momentum
        self.training = True
        self._cache = None

    def eval_constants(self) -> tuple[np.ndarray, ...]:
        """Per-channel ``(mean, inv, gamma, beta)`` of the eval forward."""
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        return self.running_mean, inv, self.gamma, self.beta

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """``cache=False`` keeps nothing for :meth:`backward`."""
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        # in place, in the out-of-place expression's order: the same bits
        # with one full-size temporary fewer per step
        xhat = x - mean[None, :, None, None]
        xhat *= inv[None, :, None, None]
        if cache:
            self._cache = (xhat, inv)
        y = self.gamma[None, :, None, None] * xhat
        y += self.beta[None, :, None, None]
        return y.astype(np.float32, copy=False)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv = self._cache
        m = dy.shape[0] * dy.shape[2] * dy.shape[3]
        self.dgamma[:] = (dy * xhat).sum(axis=(0, 2, 3))
        self.dbeta[:] = dy.sum(axis=(0, 2, 3))
        g = self.gamma[None, :, None, None]
        term = (
            dy
            - self.dbeta[None, :, None, None] / m
            - xhat * self.dgamma[None, :, None, None] / m
        )
        return (g * inv[None, :, None, None] * term).astype(
            np.float32, copy=False)

    def params(self):
        return [self.gamma, self.beta]

    def grads(self):
        return [self.dgamma, self.dbeta]

    def folded_scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """(gamma', beta') for the fused inference-style application: the
        same function as the eval forward, not the same bits."""
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        return self.gamma * inv, self.beta - self.gamma * inv * self.running_mean
