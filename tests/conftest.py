"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest

from repro.arch.machine import MachineConfig
from repro.conv.params import ConvParams
from repro.jit import compile as jit_compile
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


@contextlib.contextmanager
def _forced_fold_path(path: str):
    """Send the compiled tier's fp32 chain folds down ``path`` inside the
    block: ``blas`` drops the accumulator-size threshold to 0, so every
    FMA run the rank-1 path accepts calls ``dger`` even on the VLEN=4
    machine, and fails unless ``dger`` ran; ``numpy`` takes ``dger``
    away, the fallback of a numpy build that exports none."""
    saved = jit_compile._dger, jit_compile._DGER_MIN
    calls = []
    if path == "blas":
        def counting(*args):
            calls.append(1)
            saved[0](*args)

        jit_compile._dger, jit_compile._DGER_MIN = counting, 0
    else:
        jit_compile._dger = None
    try:
        yield
    finally:
        jit_compile._dger, jit_compile._DGER_MIN = saved
    assert path != "blas" or calls, "no chain term was folded by dger"


def on_both_fold_paths(test):
    """Run a test once per fold path of the compiled tier's fp32 chains,
    ``blas`` then ``numpy`` (see :func:`_forced_fold_path`; ``blas`` is
    left out when numpy exports no ``dger``).  The test keeps its id."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for path in ("blas", "numpy"):
            if path == "blas" and jit_compile._dger is None:
                continue
            with _forced_fold_path(path):
                try:
                    test(*args, **kwargs)
                except AssertionError as e:
                    raise AssertionError(f"{path} fold path: {e}") from e

    return run


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
