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


#: the compiled tier's fp32 chain fold paths, in the order they are tried
FOLD_PATHS = ("dgemm", "dger", "numpy")


@contextlib.contextmanager
def forced_fold_path(path: str, must_run: bool = True):
    """Send the compiled tier's fp32 chain folds down ``path`` inside the
    block, and yield a dict counting the folds ``dgemm`` took and the
    ``dger`` calls the folds made (a probe's calls do not count).

    ``dgemm`` keeps every path and drops ``dger``'s accumulator-size
    threshold to 0, so a window the probe or a guard refuses falls back
    to ``dger`` even on the VLEN=4 machine; ``dger`` takes ``dgemm``
    away and drops the threshold; ``numpy`` takes both away, the
    fallback of a numpy build that exports neither.  With ``must_run``,
    the block fails unless the forced BLAS path folded something."""
    saved = jit_compile._dgemm, jit_compile._dger, jit_compile._DGER_MIN
    fold_gemm, probe = jit_compile._fold_gemm, jit_compile._probe
    counts = {"dgemm": 0, "dger": 0}
    probing = []  # a probe's reference fold runs on dger too

    def gemm_counting(*args):
        done = fold_gemm(*args)
        counts["dgemm"] += done > 0
        return done

    def probe_flagged(*shape):
        probing.append(shape)
        try:
            return probe(*shape)
        finally:
            probing.pop()

    def dger_counting(*args):
        counts["dger"] += not probing
        saved[1](*args)

    jit_compile._fold_gemm, jit_compile._probe = gemm_counting, probe_flagged
    if path == "numpy":
        jit_compile._dgemm = jit_compile._dger = None
    else:
        jit_compile._dger, jit_compile._DGER_MIN = dger_counting, 0
        if path == "dger":
            jit_compile._dgemm = None
    try:
        yield counts
    finally:
        jit_compile._fold_gemm, jit_compile._probe = fold_gemm, probe
        jit_compile._dgemm, jit_compile._dger, jit_compile._DGER_MIN = saved
    assert not must_run or path == "numpy" or counts[path], (
        f"no chain was folded by {path}"
    )


def fold_path_available(path: str) -> bool:
    """Whether numpy's BLAS exports what ``path`` calls."""
    if path == "dgemm":
        return (jit_compile._dgemm is not None
                and jit_compile._blas_threads is not None)
    return path == "numpy" or jit_compile._dger is not None


@contextlib.contextmanager
def forced_gather_path(path: str):
    """Move the compiled tier's operands inside the block through their
    strided views (``"strided"``, the default, where a block has one) or
    through the fancy index only (``"fancy"``), and yield a dict counting
    the operands each way.  A forced ``strided`` block fails unless it
    moved something through a view."""
    view = jit_compile._Ctx._view
    counts = {"strided": 0, "fancy": 0}

    def counting(ctx, op):
        if path == "fancy":
            ctx.views = None
        got = view(ctx, op)
        counts["fancy" if got is None else "strided"] += 1
        return got

    jit_compile._Ctx._view = counting
    try:
        yield counts
    finally:
        jit_compile._Ctx._view = view
    assert path == "fancy" or counts["strided"], (
        "no operand moved through a strided view"
    )


def on_every_fold_path(test):
    """Run a test once per fold path of the compiled tier's fp32 chains,
    ``dgemm``, ``dger`` then ``numpy`` (see :func:`forced_fold_path`; a
    BLAS path numpy does not export is left out), then once more with
    every operand on the fancy index (:func:`forced_gather_path`).  The
    test keeps its id."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        paths = [(p, forced_fold_path(p)) for p in FOLD_PATHS
                 if fold_path_available(p)]
        paths.append(("fancy gather", forced_gather_path("fancy")))
        for name, forced in paths:
            with forced:
                try:
                    test(*args, **kwargs)
                except AssertionError as e:
                    raise AssertionError(f"{name} path: {e}") from e

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
