"""The JIT: microkernel code generators, interpreter, timing, kernel cache.

This package is the Python analogue of LIBXSMM's runtime code generator
(section II-D): each generator turns a *kernel descriptor* into a
:class:`~repro.arch.isa.KernelProgram` -- an explicit µop stream with the
paper's register blocking, load/store hoisting, pixel blocking, fused
post-ops and two-level prefetching baked in.  The
:mod:`~repro.jit.interpreter` executes streams functionally on numpy buffers
(correctness), :mod:`~repro.jit.timing` prices them on a machine model
(performance), and :mod:`~repro.jit.kernel_cache` memoizes generation the way
the paper's runtime amortizes JIT cost across a topology's layer setups.

Two execution tiers run recorded streams
(:class:`~repro.jit.tiers.ExecutionTier`): ``compiled``
(:mod:`~repro.jit.compile`, the default) and ``interpret``.  String
spellings work everywhere a tier is accepted.
"""

from repro.jit.tiers import (
    EXECUTION_TIERS,
    ExecutionTier,
    UnknownTierError,
    as_tier,
)
from repro.jit.codegen import ConvKernelDesc, generate_conv_kernel
from repro.jit.compile import (
    CompiledKernel,
    CompileUnsupported,
    compile_kernel,
    get_default_execution_tier,
    resolve_execution_tier,
    set_default_execution_tier,
)
from repro.jit.gemm import GemmDesc, generate_gemm_kernel
from repro.jit.upd_codegen import UpdKernelDesc, generate_upd_kernel
from repro.jit.interpreter import execute_kernel
from repro.jit.timing import KernelTiming, time_kernel
from repro.jit.kernel_cache import KernelCache, get_default_cache

__all__ = [
    "ConvKernelDesc",
    "generate_conv_kernel",
    "GemmDesc",
    "generate_gemm_kernel",
    "UpdKernelDesc",
    "generate_upd_kernel",
    "execute_kernel",
    "CompiledKernel",
    "CompileUnsupported",
    "compile_kernel",
    "EXECUTION_TIERS",
    "ExecutionTier",
    "UnknownTierError",
    "as_tier",
    "get_default_execution_tier",
    "resolve_execution_tier",
    "set_default_execution_tier",
    "KernelTiming",
    "time_kernel",
    "KernelCache",
    "get_default_cache",
]
