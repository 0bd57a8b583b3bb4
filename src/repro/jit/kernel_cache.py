"""JIT kernel cache.

Layer fusion multiplies the number of required kernel variants (section I:
the "combinatorial explosion"); the paper's answer is runtime, on-demand
generation.  :class:`KernelCache` memoizes generated programs by their frozen
descriptor so each variant is generated exactly once per process -- the
Python analogue of "our JIT does not incur the overheads of recompilation".

The cache is thread-safe: lookup, generation and the statistics counters all
happen under one re-entrant lock, so engines built concurrently (real thread
pools in :meth:`DirectConvForward.__call__`, or the default cache shared by
every engine in a process) cannot race a half-inserted program or lose a
counter update.  Statistics are mirrored into the process-wide
:class:`repro.obs.MetricsRegistry` as ``jit.cache.hits`` /
``jit.cache.misses`` so they merge across worker processes; the bare
``hits``/``misses`` attributes remain for backward compatibility.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, Optional

from repro.arch.isa import KernelProgram
from repro.obs.metrics import get_metrics

__all__ = ["KernelCache", "get_default_cache"]


class KernelCache:
    """Descriptor-keyed memo table with hit/miss statistics.

    Two tiers are cached per descriptor: the generated µop *program* and its
    *compiled* form (:class:`repro.jit.compile.CompiledKernel`).  Each tier
    keeps its own hit/miss counters (``jit.cache.hits``/``misses`` and
    ``jit.cache.compiled_hits``/``compiled_misses``).  A descriptor whose
    program the translator rejects caches ``None`` so the rejection is paid
    once; callers fall back to another tier.
    """

    def __init__(self) -> None:
        self._programs: dict[Hashable, KernelProgram] = {}
        self._compiled: dict[Hashable, Optional[object]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.compiled_hits = 0
        self.compiled_misses = 0
        self.tuned_plans = 0

    def get(
        self, desc: Hashable, generator: Callable[[Hashable], KernelProgram]
    ) -> KernelProgram:
        metrics = get_metrics()
        with self._lock:
            prog = self._programs.get(desc)
            if prog is not None:
                self.hits += 1
                metrics.inc("jit.cache.hits")
                return prog
            self.misses += 1
            metrics.inc("jit.cache.misses")
            prog = generator(desc)
            self._programs[desc] = prog
            return prog

    def get_compiled(
        self, desc: Hashable, generator: Callable[[Hashable], KernelProgram]
    ):
        """The compiled closure for ``desc``'s program (translating and
        memoizing on first use), or ``None`` if the program is one the
        translator cannot vectorize."""
        from repro.jit.compile import CompileUnsupported, compile_kernel

        metrics = get_metrics()
        with self._lock:
            if desc in self._compiled:
                self.compiled_hits += 1
                metrics.inc("jit.cache.compiled_hits")
                return self._compiled[desc]
            self.compiled_misses += 1
            metrics.inc("jit.cache.compiled_misses")
            prog = self.get(desc, generator)
            try:
                ck = compile_kernel(prog)
            except CompileUnsupported:
                metrics.inc("jit.cache.compile_unsupported")
                ck = None
            self._compiled[desc] = ck
            return ck

    def prewarm(
        self,
        descs,
        generator: Callable[[Hashable], KernelProgram],
        compiled: bool = True,
    ) -> dict[str, int]:
        """Generate (and optionally compile) every descriptor's kernel
        ahead of traffic -- serve boot calls this so the first request
        never pays codegen/translation latency.  Returns how many
        programs/closures the warm-up actually produced (cache hits do
        not count)."""
        before = self.stats()
        for desc in descs:
            if compiled:
                self.get_compiled(desc, generator)
            else:
                self.get(desc, generator)
        after = self.stats()
        return {
            "programs": after["variants"] - before["variants"],
            "compiled": after["compiled_variants"] - before["compiled_variants"],
        }

    def note_tuned_plan(self) -> None:
        """Record that an engine's variants came from a tuning-database
        plan instead of the heuristics (``make_engine(tuned=...)`` hit);
        surfaces in :meth:`stats` so serve boot logs show how much of
        the warm set is database-tuned."""
        with self._lock:
            self.tuned_plans += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def __contains__(self, desc: Hashable) -> bool:
        with self._lock:
            return desc in self._programs

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self._compiled.clear()
            self.hits = self.misses = 0
            self.compiled_hits = self.compiled_misses = 0

    def stats(self) -> dict[str, int]:
        """Per-tier hit/miss/variant snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "variants": len(self._programs),
                "compiled_hits": self.compiled_hits,
                "compiled_misses": self.compiled_misses,
                "compiled_variants": sum(
                    1 for v in self._compiled.values() if v is not None
                ),
                "tuned_plans": self.tuned_plans,
            }

    @property
    def variants(self) -> list[str]:
        with self._lock:
            return [p.name for p in self._programs.values()]


_default = KernelCache()


def get_default_cache() -> KernelCache:
    """The process-wide kernel cache used by the convolution engines."""
    return _default
