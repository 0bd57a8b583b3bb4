"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.machine import MachineConfig
from repro.conv.params import ConvParams
from repro.obs.tracer import get_tracer


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _quiet_tracer():
    """Incident directories, ``TaskProfiler`` and ``obs.enable`` raise
    the process-wide tracer; turn it off and empty its ring after each
    test so no state or record leaks into the next one."""
    yield
    get_tracer().disable().clear()


#: a VLEN=4 machine so µop-level tests stay small
TINY = MachineConfig(name="TINY", cores=4, freq_hz=1e9, vlen_bits=128)


def rand_conv_tensors(p: ConvParams, rng: np.random.Generator, scale: float = 1.0):
    """(x, w, dy) for a layer, fp32."""
    x = (rng.standard_normal((p.N, p.C, p.H, p.W)) * scale).astype(np.float32)
    w = (rng.standard_normal((p.K, p.C, p.R, p.S)) * scale).astype(np.float32)
    dy = (rng.standard_normal((p.N, p.K, p.P, p.Q)) * scale).astype(np.float32)
    return x, w, dy


def assert_close(a: np.ndarray, b: np.ndarray, rtol: float = 2e-4) -> None:
    """Relative max-norm comparison robust to fp32 accumulation-order noise."""
    scale = max(np.abs(b).max(), 1e-6)
    err = np.abs(np.asarray(a) - np.asarray(b)).max() / scale
    assert err < rtol, f"max relative error {err:.3e} exceeds {rtol}"
