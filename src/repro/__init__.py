"""repro: a reproduction of "Anatomy of High-Performance Deep Learning
Convolutions on SIMD Architectures" (Georganas et al., SC'18).

The public API groups into four levels:

* **Kernels** -- JIT microkernel generation, functional interpretation and
  timing (:mod:`repro.jit`, :mod:`repro.arch`).
* **Layers** -- blocked direct-convolution engines with kernel streams and
  fusion (:mod:`repro.conv`, :mod:`repro.streams`, :mod:`repro.quant`),
  plus the non-conv operators (:mod:`repro.layers`).
* **Framework** -- GxM graph compilation, training, and simulated
  multi-node data parallelism (:mod:`repro.gxm`).
* **Evaluation** -- the performance models and baselines that regenerate
  every table and figure of the paper (:mod:`repro.perf`,
  :mod:`repro.baselines`, :mod:`repro.models`, :mod:`repro.cachesim`).
* **Observability** -- one bounded ring of spans and events plus metrics,
  threaded through all of the above (:mod:`repro.obs`;
  ``python -m repro profile``), frozen into the incident bundles of
  :mod:`repro.forensics` (``python -m repro incident``).

Quick start::

    import numpy as np
    from repro import ConvParams, Pass, SKX, make_engine

    p = ConvParams(N=2, C=64, K=64, H=28, W=28, R=3, S=3, stride=1)
    conv = make_engine(Pass.FWD, p, machine=SKX, threads=4)
    x = np.random.randn(p.N, p.C, p.H, p.W).astype(np.float32)
    w = np.random.randn(p.K, p.C, p.R, p.S).astype(np.float32)
    y = conv.run_nchw(x, w)   # blocked layout + JIT'ed streams inside
"""

from repro import collective, forensics, obs
from repro.arch.machine import KNM, SKX, MachineConfig, machine_by_name
from repro.conv.backward import DirectConvBackward
from repro.conv.engine import ConvEngine, make_engine
from repro.conv.forward import DirectConvForward
from repro.conv.fusion import BatchNormApply, Bias, EltwiseAdd, ReLU
from repro.conv.params import ConvParams
from repro.conv.upd import DirectConvUpd
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.profiler import TaskProfiler
from repro.gxm.topology import TopologySpec
from repro.gxm.trainer import SGD, Trainer
from repro.jit.kernel_cache import KernelCache, get_default_cache
from repro.jit.tiers import EXECUTION_TIERS, ExecutionTier, UnknownTierError
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer
from repro.perf.model import ConvPerfModel
from repro.quant.qconv_engine import QuantConvForward
from repro.tune import TuningDatabase, search_mapspace, tune_layer
from repro.types import DType, Pass, ReproError

__version__ = "1.1.0"

__all__ = [
    # layer shapes + engines (the preferred construction path is
    # `make_engine`; the engine classes stay exported for direct use)
    "ConvParams",
    "make_engine",
    "ConvEngine",
    "DirectConvForward",
    "DirectConvBackward",
    "DirectConvUpd",
    "QuantConvForward",
    # fusable post-ops (§II-G)
    "Bias",
    "ReLU",
    "BatchNormApply",
    "EltwiseAdd",
    # machines
    "MachineConfig",
    "SKX",
    "KNM",
    "machine_by_name",
    # fault-tolerant overlapped all-reduce (repro.collective)
    "collective",
    # observability + forensics
    "obs",
    "forensics",
    "Tracer",
    "MetricsRegistry",
    "get_tracer",
    "get_metrics",
    "TaskProfiler",
    # JIT cache + execution tiers
    "KernelCache",
    "get_default_cache",
    "ExecutionTier",
    "EXECUTION_TIERS",
    "UnknownTierError",
    # autotuning (the full API lives in repro.tune)
    "TuningDatabase",
    "search_mapspace",
    "tune_layer",
    # perf + framework
    "ConvPerfModel",
    "TopologySpec",
    "ExecutionTaskGraph",
    "Trainer",
    "SGD",
    # core types
    "DType",
    "Pass",
    "ReproError",
    "__version__",
]
