"""The three workloads: set-up, warm-up, measured pass, traced pass.

Each runner returns a :class:`Report`.  Outputs are checked bitwise
against the stored references in every pass; a mismatch is a failed
operation.  With ``trace`` the runner measures the untraced pass first
(its numbers are the end-to-end metrics), then wraps the program's
layers (:mod:`perfbench.spans`) and repeats the same seeded pass.
"""

from __future__ import annotations

import io
import resource
import time
from dataclasses import dataclass, field

from perfbench import attribution, spec
from perfbench.openloop import run_open_loop
from perfbench.spans import SpanRecorder, install_program_layers


@dataclass
class Report:
    workload: str
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    end_to_end: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    accounting: dict = field(default_factory=dict)
    #: per-operation outputs of each pass, for the identity checks
    outputs: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def count(self, ok: bool, mismatch: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        if mismatch:
            self.mismatches += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def kernel_cache_stats() -> dict:
    from repro.jit.kernel_cache import get_default_cache

    return get_default_cache().stats()


def _cpu_jiffies() -> tuple[int, int]:
    """(steal, total) CPU time of the whole machine from /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:]]
    return vals[7], sum(vals)


class StealMeter:
    """Share of CPU time the host took from this machine while the
    measured pass ran -- printed so a noisy neighbour is visible."""

    def __enter__(self) -> "StealMeter":
        self._start = _cpu_jiffies()
        self.pct = 0.0
        return self

    def __exit__(self, *exc) -> None:
        steal, total = _cpu_jiffies()
        dt = total - self._start[1]
        self.pct = 100.0 * (steal - self._start[0]) / dt if dt else 0.0


def _windows() -> int:
    return spec.load_spec()["stat_windows"]


# -- serve -------------------------------------------------------------------
def serve_setup(workload: str):
    """Cold boot: returns ``(server, seconds)``."""
    from repro.serve import InferenceServer

    wl = spec.load_spec()["workloads"][workload]
    server = InferenceServer(spec.serve_config(wl["engine"]))
    t0 = time.perf_counter()
    server.start()
    return server, time.perf_counter() - t0


def _check_serve(report: Report, outcomes, refs, limit_ms: float) -> list:
    """Bitwise-check every answer; returns the pass's output hex list."""
    hexes = []
    misses = 0
    for o in outcomes:
        got = spec.probs_hex(o.probs) if o.error is None else None
        hexes.append(got)
        mismatch = got is not None and got != refs[o.pool_index]
        if mismatch:
            o.error = f"output mismatch for pool image {o.pool_index}"
        ok = o.error is None
        report.count(ok, mismatch)
        if not ok or o.latency_ms > limit_ms:
            misses += 1
    report.extra["slo_misses"] = report.extra.get("slo_misses", 0) + misses
    return hexes


def _serve_warmup(server, pool, refs) -> int:
    """One burst per bucket size (twice) before timing; returns the
    number of wrong or failed answers."""
    bad = 0
    for _ in range(2):
        for bucket in server.config.buckets:
            idx = list(range(bucket))
            reqs = [server.submit(pool[i]) for i in idx]
            for i, req in zip(idx, reqs):
                if spec.probs_hex(req.result(60.0)) != refs[i]:
                    bad += 1
    return bad


def run_serve(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    cfg = spec.load_spec()
    wl = cfg["workloads"][workload]
    pool = spec.input_pool(wl["pool"])
    ref_doc = spec.load_refs(f"serve_{wl['engine']}")
    if ref_doc["pool_digest"] != spec.digest(pool):
        raise RuntimeError("input pool differs from the one the "
                           "references were computed for")
    refs = ref_doc["probs_hex"]
    report = Report(workload)
    server, setup_s = serve_setup(workload)
    try:
        report.extra["setup_s"] = setup_s
        report.extra["kernel_cache"] = kernel_cache_stats()
        report.extra["warmup_mismatches"] = _serve_warmup(server, pool, refs)
        sched = spec.schedule(workload, seed, seconds)
        report.extra["scheduled_requests"] = sum(len(p) for _, p in sched)
        with StealMeter() as steal:
            res = run_open_loop(server, sched, pool)
        report.extra["host_steal_pct"] = steal.pct
        if len(res.outcomes) != report.extra["scheduled_requests"]:
            raise RuntimeError("the generator stopped before the schedule "
                               "ended")
        report.outputs["untraced"] = _check_serve(
            report, res.outcomes, refs, wl["latency_limit_ms"])
        report.end_to_end = _serve_end_to_end(res, sched[-1][0])
        report.extra["p99_ms"] = attribution.pct(
            [o.latency_ms for o in res.outcomes if o.error is None], 99)
        report.extra["lateness_ms_p99"] = attribution.pct(
            [o.lateness_ms for o in res.outcomes], 99)
        if trace:
            with SpanRecorder() as rec:
                install_program_layers(rec)
                # one request so the worker re-enters the wrapped take()
                server.predict(pool[0], timeout=60.0)
                rec.recording = True
                traced = run_open_loop(server, sched, pool)
                rec.recording = False
            report.outputs["traced"] = _check_serve(
                report, traced.outcomes, refs, wl["latency_limit_ms"])
            report.spans = rec.spans
            report.per_layer = attribution.layer_metrics(
                rec.spans, "serve.run", traced.outcomes)
            report.accounting = _serve_accounting(rec.spans, traced.outcomes)
            report.extra["traced_p50_ms"] = _serve_end_to_end(
                traced, sched[-1][0])["p50_ms"]
    finally:
        server.stop()
    report.end_to_end["peak_rss_mb"] = peak_rss_mb()
    report.extra["failed_frac"] = report.failed / max(1, report.attempted)
    report.extra["slo_miss_frac"] = (
        report.extra["slo_misses"] / max(1, report.attempted))
    report.failed += report.extra["warmup_mismatches"]
    return report


def _serve_end_to_end(res, span_s: float) -> dict:
    """Latency percentiles by due-time window; ``span_s`` is the time
    from the first due request to the last."""
    ok = [o for o in res.outcomes if o.error is None]
    lat = [(o.due, o.latency_ms) for o in ok]
    return {
        "p50_ms": attribution.windowed_pct(
            lat, res.start, span_s, 50, _windows()),
        "p90_ms": attribution.windowed_pct(
            lat, res.start, span_s, 90, _windows()),
        "throughput_per_s": len(ok) / max(1e-9, res.end - res.start),
    }


def _serve_accounting(spans, outcomes) -> dict:
    reqs = attribution.request_components(spans, outcomes)
    total = sum(r["latency"] for r in reqs)
    parts = {k: sum(r[k] for r in reqs)
             for k in ("queue_wait", "batcher", "run", "unattributed")}
    runs = attribution.root_components(spans, "serve.run")
    run_parts: dict[str, float] = {}
    for _, comp in runs:
        for k, v in comp.items():
            run_parts[k] = run_parts.get(k, 0.0) + v * 1e3
    # every batch holding a traced request: one build of exactly the
    # requests taken, one run of a bucket that fits them
    sent = {o.req_id for o in outcomes}
    batches = [b for b in attribution.serve_batches(spans)
               if sent.intersection(b["ids"])]
    return {"requests": len(reqs), "latency_total_ms": total,
            "latency_parts_ms": parts,
            "min_queue_wait_ms": min(
                (r["queue_wait"] for r in reqs), default=0.0),
            "min_unattributed_ms": min(
                (r["unattributed"] for r in reqs), default=0.0),
            "batched_requests": sum(len(b["ids"]) for b in batches),
            "batches_inconsistent": sum(
                not (b["rows"] == [len(b["ids"])] and len(b["buckets"]) == 1
                     and b["buckets"][0] >= len(b["ids"]))
                for b in batches),
            "batch_run_total_ms": sum(b["run"] for b in batches) * 1e3,
            "run_total_ms": sum(r.dur for r, _ in runs) * 1e3,
            "run_parts_ms": run_parts}


# -- train -----------------------------------------------------------------
def train_setup(trajectory: int):
    """Cold set-up: ETG build, Trainer construction and the first step
    (which builds the BWD/UPD engines).  Returns ``(trainer, start
    checkpoint bytes, first loss, seconds)``."""
    from repro.gxm.trainer import Trainer

    x, labels = spec.train_data(trajectory)
    t0 = time.perf_counter()
    trainer = Trainer(spec.train_graph())
    built = time.perf_counter() - t0
    start = io.BytesIO()
    trainer.save(start)  # the trajectory's starting point (not timed)
    t1 = time.perf_counter()
    loss = trainer.train_step(x[0], labels[0])
    return trainer, start.getvalue(), loss, built + time.perf_counter() - t1


def run_train(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    cfg = spec.load_spec()
    wl = cfg["workloads"][workload]
    steps = cfg["train_data"]["steps"]
    refs = spec.load_refs("train")["trajectories"]
    data = [spec.train_data(j) for j in range(len(refs))]
    if any(r["data_digest"] != spec.digest(*d) for r, d in zip(refs, data)):
        raise RuntimeError("training data differs from the data the "
                           "references were computed for")
    first = spec.trajectory_for_seed(seed)
    report = Report(workload)
    trainer, start, loss0, setup_s = train_setup(first)
    report.extra["setup_s"] = setup_s
    report.extra["kernel_cache"] = kernel_cache_stats()
    report.extra["first_trajectory"] = first
    got0 = (float(loss0).hex(), spec.digest(*trainer.etg.params()))
    report.extra["warmup_mismatches"] = int(
        got0 != (refs[first]["loss_hex"][0], refs[first]["weights_digest"][0]))
    after_first = io.BytesIO()
    trainer.save(after_first)  # the traced pass replays from here
    position = 1

    def measure(duration: float) -> tuple[list, list]:
        """Steps until ``duration`` has passed; every step checked.  Each
        cycle restarts from the saved start and replays the next
        trajectory in turn, so every run mixes all of them."""
        nonlocal position
        times, outs = [], []
        begin = time.perf_counter()
        end = begin + duration
        while time.perf_counter() < end:
            cycle, i = divmod(position, steps)
            j = (first + cycle) % len(refs)
            (x, labels), ref = data[j], refs[j]
            position += 1
            if i == 0:
                trainer.resume(io.BytesIO(start))
            t0 = time.perf_counter()
            try:
                loss = trainer.train_step(x[i], labels[i])
            except Exception as err:  # noqa: BLE001 -- a failed step
                report.count(False)
                outs.append((j, i, f"{type(err).__name__}: {err}", None))
                continue
            times.append((t0 - begin, time.perf_counter() - t0))
            got = (float(loss).hex(), spec.digest(*trainer.etg.params()))
            mismatch = got != (ref["loss_hex"][i], ref["weights_digest"][i])
            report.count(not mismatch, mismatch)
            outs.append((j, i, *got))
        return times, outs

    with StealMeter() as steal:
        times, outs = measure(seconds)
    report.extra["host_steal_pct"] = steal.pct
    report.outputs["untraced"] = outs
    ms = [(t, dt * 1e3) for t, dt in times]
    busy = sum(dt for _, dt in times)
    report.end_to_end = {
        "p50_ms": attribution.windowed_pct(ms, 0.0, seconds, 50, _windows()),
        "p90_ms": attribution.windowed_pct(ms, 0.0, seconds, 90, _windows()),
        "throughput_per_s": wl["minibatch"] * len(times) / max(1e-9, busy),
    }
    if trace:
        # replay the untraced pass's steps, so their outputs can be compared
        position = 1
        trainer.resume(io.BytesIO(after_first.getvalue()))
        with SpanRecorder() as rec:
            install_program_layers(rec)
            rec.recording = True
            tsamples, touts = measure(seconds)
        ttimes = [dt for _, dt in tsamples]
        report.outputs["traced"] = touts
        report.spans = rec.spans
        report.per_layer = attribution.layer_metrics(rec.spans, "train.step")
        roots = attribution.root_components(rec.spans, "train.step")
        parts: dict[str, float] = {}
        for _, comp in roots:
            for k, v in comp.items():
                parts[k] = parts.get(k, 0.0) + v * 1e3
        report.accounting = {
            "steps": len(roots),
            "step_total_ms": sum(ttimes) * 1e3,
            "span_total_ms": sum(r.dur for r, _ in roots) * 1e3,
            "step_parts_ms": parts,
        }
        report.extra["traced_p50_ms"] = attribution.windowed_pct(
            [(t, dt * 1e3) for t, dt in tsamples], 0.0, seconds, 50,
            _windows())
    report.end_to_end["peak_rss_mb"] = peak_rss_mb()
    report.extra["failed_frac"] = report.failed / max(1, report.attempted)
    report.failed += report.extra["warmup_mismatches"]
    return report


RUNNERS = {
    "serve_fast_light": run_serve,
    "serve_blocked_burst": run_serve,
    "train_blocked": run_train,
}


def setup_once(workload: str, seed: int) -> float:
    """One cold set-up (run in a forked child by ``run.py``)."""
    if workload == "train_blocked":
        return train_setup(spec.trajectory_for_seed(seed))[3]
    server, setup_s = serve_setup(workload)
    server.stop()
    return setup_s
