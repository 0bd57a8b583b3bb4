"""Per-layer metrics from recorded spans, plus the modeled-vs-host ledger.

Every root span -- one ``EngineReplica.run`` batch on the serve
workloads, one ``Trainer.train_step`` on training -- is split into
additive components: each descendant span's self time under a layer
key, and the root's own self time as ``gxm.unattributed`` (ETG task
dispatch and session/trainer bookkeeping).  The components of a root
sum to its duration.  Serve requests are split the same way: queue wait
(due time until ``AdmissionQueue.take`` hands the request to a worker),
batcher, run, and the unattributed rest of the measured latency.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

PASSES = ("fwd", "bwd", "upd")
NODE_TYPES = ("Convolution", "BatchNorm", "ReLU", "Eltwise", "Split",
              "GlobalPool", "InnerProduct", "SoftmaxWithLoss")
CONV_LAYERS = ("conv1", "res2a_a", "res2a_b", "res2a_c", "res2a_sc",
               "res3a_a", "res3a_b", "res3a_c", "res3a_sc")
BUCKETS = (1, 2, 4, 8, 16)


def per_layer_names() -> list[str]:
    """Every per-layer metric, in report order (``BENCHMARK.json``)."""
    names = [
        "serve.queue_wait_ms.p50", "serve.queue_wait_ms.p99",
        "serve.batcher_ms.p50", "serve.unattributed_ms.p50",
        "serve.batches", "serve.batch_rows.mean", "serve.batch_fill",
        *(f"serve.run_ms.b{b}" for b in BUCKETS),
        "loadgen.lateness_ms.p99",
        *(f"gxm.fwd_ms.{t}" for t in NODE_TYPES),
        *(f"gxm.bwd_ms.{t}" for t in NODE_TYPES),
        "gxm.upd_ms.Convolution",
        "gxm.unattributed_ms", "gxm.sgd_ms", "resilience.watchdog_ms",
    ]
    for layer in CONV_LAYERS:
        for p in PASSES:
            names += [f"conv.{layer}.{p}.host_ms", f"conv.{layer}.{p}.model_us"]
    names += [f"conv.{p}.host_gflops" for p in PASSES]
    names += ["conv.computed_mflop_per_img", "conv.computed_mbyte_per_img"]
    names += [f"tensor.layout_ms.{p}" for p in PASSES]
    names += [f"jit.kernel_calls.{p}" for p in PASSES]
    names += ["jit.variants", "jit.cache_misses", "trace.overhead_pct"]
    return names


def pct(values, q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    vals = sorted(values)
    if not vals:
        return 0.0
    k = max(0, math.ceil(q / 100 * len(vals)) - 1)
    return float(vals[k])


def windowed_pct(samples, start: float, seconds: float, q: float,
                 windows: int) -> float:
    """Median over equal time windows of each window's ``q`` percentile.

    ``samples`` are ``(time, value)`` pairs.  A stall shorter than half
    the run -- another tenant taking the host's CPUs for a few seconds --
    moves only the windows it covers, not the reported value."""
    width = seconds / windows
    groups = defaultdict(list)
    for t, v in samples:
        groups[min(windows - 1, max(0, int((t - start) / width)))].append(v)
    per_window = [pct(vals, q) for vals in groups.values()]
    return statistics.median(per_window) if per_window else 0.0


# -- span tree ----------------------------------------------------------
def _layer_pass(span) -> tuple[str | None, str | None]:
    """(conv layer name, pass) of a conv span: the enclosing node span."""
    s = span.parent
    while s is not None:
        if s.kind.startswith("gxm.") and s.kind[4:] in PASSES:
            return s.obj.name, s.kind[4:]
        s = s.parent
    return None, None


def component(span) -> str:
    """The additive layer key a span's self time is booked under."""
    kind = span.kind
    if kind.startswith("gxm.") and kind[4:] in PASSES:
        return f"gxm.{kind[4:]}.{span.obj.spec.type}"
    if kind == "conv.run":
        return f"tensor.layout.{_layer_pass(span)[1]}"
    if kind == "conv.kernel":
        return f"conv.kernel.{_layer_pass(span)[1]}"
    return kind


def root_components(spans, root_kind: str) -> list[tuple]:
    """``[(root span, {component: seconds})]``; components sum to the
    root's duration."""
    roots: dict[int, dict] = {}
    order = []
    for s in spans:
        if s.kind == root_kind and s.parent is None:
            roots[id(s)] = defaultdict(float)
            order.append(s)
    for s in spans:
        top = s
        while top.parent is not None:
            top = top.parent
        parts = roots.get(id(top))
        if parts is None:
            continue
        key = "gxm.unattributed" if s is top else component(s)
        parts[key] += s.self_time
    return [(r, dict(roots[id(r)])) for r in order]


# -- serve requests -----------------------------------------------------------
def serve_batches(spans) -> list[dict]:
    """One entry per ``AdmissionQueue.take``: the request ids it handed
    the worker, when it returned, the batcher and run seconds spent on
    them, the live rows each ``build`` stacked and the bucket each
    ``EngineReplica.run`` replayed."""
    batches: list[dict] = []
    for s in spans:  # worker-thread order: take, build, run, scatter
        if s.kind == "serve.take":
            batches.append({"ids": s.info, "take_end": s.t1, "batcher": 0.0,
                            "run": 0.0, "rows": [], "buckets": []})
        elif batches and s.kind == "serve.batcher":
            batches[-1]["batcher"] += s.dur
            if s.info is not None:
                batches[-1]["rows"].append(s.info["rows"])
        elif batches and s.kind == "serve.run":
            batches[-1]["run"] += s.dur
            batches[-1]["buckets"].append(s.info)
    return batches


def request_components(spans, outcomes) -> list[dict]:
    """Split each traced request's latency into queue wait, batcher,
    run and the unattributed rest (milliseconds; they sum to latency)."""
    batch_of = {rid: b for b in serve_batches(spans) for rid in b["ids"]}
    out = []
    for o in outcomes:
        batch = batch_of.get(o.req_id)
        if batch is None or o.error is not None:
            continue
        wait = (batch["take_end"] - o.due) * 1e3
        batcher = batch["batcher"] * 1e3
        run = batch["run"] * 1e3
        out.append({
            "latency": o.latency_ms, "queue_wait": wait, "batcher": batcher,
            "run": run, "unattributed": o.latency_ms - wait - batcher - run,
        })
    return out


# -- per-layer metrics -------------------------------------------------------
def layer_metrics(spans, root_kind: str, outcomes=None) -> dict[str, float]:
    """The span-derived per-layer metrics (those the ledger and the
    caller do not fill in are 0 when the workload never runs that layer)."""
    m = {name: 0.0 for name in per_layer_names()}
    if outcomes is not None:
        reqs = request_components(spans, outcomes)
        m["serve.queue_wait_ms.p50"] = pct([r["queue_wait"] for r in reqs], 50)
        m["serve.queue_wait_ms.p99"] = pct([r["queue_wait"] for r in reqs], 99)
        m["serve.batcher_ms.p50"] = pct([r["batcher"] for r in reqs], 50)
        m["serve.unattributed_ms.p50"] = pct(
            [r["unattributed"] for r in reqs], 50)
        m["loadgen.lateness_ms.p99"] = pct(
            [o.lateness_ms for o in outcomes], 99)
        runs = [s for s in spans if s.kind == "serve.run"]
        builds = [s.info for s in spans
                  if s.kind == "serve.batcher" and s.info is not None]
        m["serve.batches"] = float(len(runs))
        if builds:
            rows = sum(b["rows"] for b in builds)
            m["serve.batch_rows.mean"] = rows / len(builds)
            m["serve.batch_fill"] = rows / sum(b["bucket"] for b in builds)
        for b in BUCKETS:
            m[f"serve.run_ms.b{b}"] = pct(
                [s.dur * 1e3 for s in runs if s.info == b], 50)
    roots = root_components(spans, root_kind)
    per_root = defaultdict(list)
    for _, parts in roots:
        for key in {*parts, *(f"gxm.{p}.{t}" for p in PASSES
                              for t in NODE_TYPES)}:
            per_root[key].append(parts.get(key, 0.0) * 1e3)
    for p in PASSES:
        for t in NODE_TYPES:
            name = f"gxm.{p}_ms.{t}"
            if name in m:
                m[name] = pct(per_root[f"gxm.{p}.{t}"], 50)
        m[f"tensor.layout_ms.{p}"] = pct(
            per_root.get(f"tensor.layout.{p}", []), 50)
    m["gxm.unattributed_ms"] = pct(per_root.get("gxm.unattributed", []), 50)
    m["gxm.sgd_ms"] = pct(
        [s.dur * 1e3 for s in spans if s.kind == "gxm.sgd"], 50)
    m["resilience.watchdog_ms"] = pct(
        [s.dur * 1e3 for s in spans if s.kind == "resilience.watchdog"], 50)
    m.update(conv_host_metrics(spans))
    return m


def conv_host_metrics(spans) -> dict[str, float]:
    """Host time per image row for each conv layer and pass, host GFLOP/s
    per pass, and JIT kernel calls per image (a count)."""
    per_row = defaultdict(list)
    flops = defaultdict(float)
    secs = defaultdict(float)
    calls = {}
    for s in spans:
        if s.kind != "conv.run":
            continue
        layer, p = _layer_pass(s)
        n = s.info
        per_row[(layer, p)].append(s.dur * 1e3 / n)
        flops[p] += s.obj.params.flops
        secs[p] += s.dur
        calls[(layer, p)] = max(calls.get((layer, p), 0.0),
                                kernel_calls(s.obj, p) / n)
    m = {}
    for (layer, p), vals in per_row.items():
        m[f"conv.{layer}.{p}.host_ms"] = pct(vals, 50)
    for p in PASSES:
        if secs[p]:
            m[f"conv.{p}.host_gflops"] = flops[p] / secs[p] / 1e9
        m[f"jit.kernel_calls.{p}"] = float(
            sum(v for (_, q), v in calls.items() if q == p))
    return m


def kernel_calls(engine, pass_: str) -> int:
    """JIT microkernel calls one ``run_nchw`` replays."""
    if pass_ == "upd":
        return sum(len(s) for s in engine.streams)
    if pass_ == "bwd":
        return engine.engine.total_conv_calls if engine.engine else 0
    return engine.total_conv_calls


# -- modeled-vs-host ledger ----------------------------------------------------
def conv_params() -> dict:
    """Per-image ``ConvParams`` of every conv layer of the model."""
    from perfbench import spec

    etg = spec.serve_config("fast").build_etg(1)
    return {name: etg.nodes[name].p for name in CONV_LAYERS}


def ledger() -> tuple[dict[str, float], list[dict]]:
    """Modeled time per image (``repro.perf.ConvPerfModel`` on SKX, one
    thread, its own kernel cache so the process cache stays untouched)
    and computed flops and compulsory bytes of every conv layer.

    Returns ``(metrics, rows)``; ``rows`` is the per-layer table."""
    from repro.arch.machine import SKX
    from repro.jit.kernel_cache import KernelCache
    from repro.perf.model import ConvPerfModel

    model = ConvPerfModel(SKX, threads=1)
    model.cache = KernelCache()
    estimate = {"fwd": model.estimate_forward, "bwd": model.estimate_backward,
                "upd": model.estimate_update}
    m: dict[str, float] = {}
    rows = []
    mflop = mbyte = 0.0
    for layer, p in conv_params().items():
        nbytes = p.input_bytes() + p.weight_bytes() + p.output_bytes()
        row = {"layer": layer, "params": p.describe(),
               "computed_flops": p.flops, "computed_bytes": nbytes}
        for ps, fn in estimate.items():
            us = fn(p).time_s * 1e6
            m[f"conv.{layer}.{ps}.model_us"] = us
            row[f"{ps}_model_us"] = us
        rows.append(row)
        mflop += p.flops / 1e6
        mbyte += nbytes / 1e6
    m["conv.computed_mflop_per_img"] = mflop
    m["conv.computed_mbyte_per_img"] = mbyte
    return m, rows


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name.endswith("_us"):
        return "us"
    if "_ms" in name:
        return "ms"
    if name.endswith("host_gflops"):
        return "GFLOP/s"
    if name.endswith("_mflop_per_img"):
        return "MFLOP"
    if name.endswith("_mbyte_per_img"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name == "serve.batch_fill":
        return "ratio"
    if name == "serve.batch_rows.mean":
        return "rows"
    return "count"


def better(name: str) -> str:
    higher = ("host_gflops", "batch_fill", "batch_rows.mean")
    return "higher" if name.endswith(higher) else "lower"
