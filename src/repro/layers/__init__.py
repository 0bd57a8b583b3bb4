"""Non-convolution operators for GxM (section II-G / II-L).

These layers "do not impose any memory layout requirements" (section I), so
their functional implementations operate on logical NCHW numpy arrays; the
performance model prices them as bandwidth-bound element-wise passes (which
is why fusing them into convolutions pays, section II-G).

Every layer implements ``forward(x)`` and ``backward(dy)``; parameterized
layers expose ``params()``/``grads()`` pairs for the SGD trainer.
"""

from repro.layers.base import Layer
from repro.layers.relu import ReLULayer, relu
from repro.layers.pool import MaxPool2D, AvgPool2D, GlobalAvgPool
from repro.layers.bn import BatchNorm2D, batchnorm_eval
from repro.layers.fc import Linear
from repro.layers.softmax import SoftmaxCrossEntropy
from repro.layers.eltwise import EltwiseSum, Split

__all__ = [
    "Layer",
    "ReLULayer",
    "relu",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool",
    "BatchNorm2D",
    "batchnorm_eval",
    "Linear",
    "SoftmaxCrossEntropy",
    "EltwiseSum",
    "Split",
]
