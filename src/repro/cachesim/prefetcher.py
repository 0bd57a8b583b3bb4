"""Hardware prefetchers for the cache simulator.

Real Xeons ship L2 stream prefetchers that hide much of what software
prefetch also targets; modeling one lets the prefetch ablation distinguish
"no prefetch at all" from "hardware-only" from "hardware + the paper's
two-level software scheme" (section II-E).

:class:`NextLinePrefetcher` is the classic adjacent-line scheme;
:class:`StridePrefetcher` tracks per-region strides (activations are
accessed with the layout's row stride) and issues ``degree`` fills ahead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.cache import Cache

__all__ = ["NextLinePrefetcher", "StridePrefetcher"]


class NextLinePrefetcher:
    """On each demand miss, fill line+1 (into the given cache)."""

    def __init__(self, cache: Cache):
        self.cache = cache
        self.issued = 0

    def on_access(self, line_addr: int, was_hit: bool) -> None:
        if not was_hit:
            self.cache.access(line_addr + 1, prefetch=True)
            self.issued += 1


@dataclass
class _StreamState:
    last_line: int = -1
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """Per-region stride detector with configurable depth.

    ``region_bits`` buckets addresses into streams (one per tensor region
    in :class:`~repro.cachesim.hierarchy.CacheHierarchy`'s address map);
    after two consistent deltas it prefetches ``degree`` lines ahead on
    every access of the stream.
    """

    def __init__(self, cache: Cache, degree: int = 2, region_bits: int = 24):
        self.cache = cache
        self.degree = degree
        self.region_bits = region_bits
        self.streams: dict[int, _StreamState] = {}
        self.issued = 0

    def on_access(self, line_addr: int, was_hit: bool) -> None:
        region = line_addr >> self.region_bits
        st = self.streams.setdefault(region, _StreamState())
        if st.last_line >= 0:
            delta = line_addr - st.last_line
            if delta != 0:
                if delta == st.stride:
                    st.confidence = min(st.confidence + 1, 4)
                else:
                    st.stride = delta
                    st.confidence = 0
        st.last_line = line_addr
        if st.confidence >= 2 and st.stride != 0:
            for k in range(1, self.degree + 1):
                self.cache.access(line_addr + k * st.stride, prefetch=True)
                self.issued += 1
