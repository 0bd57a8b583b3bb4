"""repro.obs: tracer spans, metrics registry, exporters, instrumentation."""

import json
import threading

import pytest

from repro import obs
from repro.conv.forward import DirectConvForward
from repro.conv.params import ConvParams
from repro.jit.kernel_cache import KernelCache
from repro.obs import (
    CAPACITY,
    NULL_SPAN,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    dump_chrome_trace,
    flat_report,
    get_metrics,
    get_tracer,
)
from tests.conftest import TINY, rand_conv_tensors


@pytest.fixture
def traced():
    """Enable the global tracer for one test, restoring a clean slate."""
    tracer = obs.enable()
    tracer.clear()
    get_metrics().clear()
    yield tracer
    obs.disable()
    tracer.clear()
    get_metrics().clear()


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        t = Tracer()
        assert t.span("x") is NULL_SPAN
        assert t.span("y", a=1) is NULL_SPAN
        with t.span("x"):
            pass
        assert t.events() == []

    def test_enabled_span_records(self):
        t = Tracer("spans")
        with t.span("jit.codegen", kernel="k1"):
            pass
        (r,) = t.events()
        assert r.name == "jit.codegen"
        assert r.dur_us >= 0
        assert r.args == {"kernel": "k1"}

    def test_instant_marker(self):
        t = Tracer("spans")
        t.record("mark", step=3)
        (r,) = t.events()
        assert r.dur_us == 0.0 and r.args == {"step": 3}

    def test_singleton_identity_is_stable(self):
        t = get_tracer()
        assert obs.enable() is t
        assert obs.disable() is t
        assert get_tracer() is t

    def test_ingest_rewrites_pid(self):
        src = Tracer("spans")
        with src.span("etg.task"):
            pass
        dst = Tracer("spans")
        dst.ingest(src.export_events(), pid=4242)
        assert dst.events()[0].pid == 4242

    def test_export_events_clear(self):
        t = Tracer("spans")
        with t.span("a"):
            pass
        out = t.export_events(clear=True)
        assert len(out) == 1 and t.events() == []

    def test_threaded_recording(self):
        t = Tracer("spans")

        def work():
            for _ in range(50):
                with t.span("thread.work"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(t.events("thread.work")) == 200


class TestRing:
    """The one bounded ring: its states, capacity and cross-process
    drain (the checks the flight recorder's ring used to carry)."""

    def test_disabled_is_a_no_op(self):
        rec = Tracer()
        rec.record("serve.admit", req=1)
        assert len(rec) == 0 and rec.events() == []

    def test_bounded_ring_drops_oldest(self):
        rec = Tracer("events")
        for i in range(CAPACITY + 6):
            rec.record("tick", i=i)
        assert len(rec) == CAPACITY
        assert [r.args["i"] for r in rec.events()[-4:]] == [
            CAPACITY + 2, CAPACITY + 3, CAPACITY + 4, CAPACITY + 5,
        ]
        assert rec.events()[0].args["i"] == 6

    def test_payload_may_carry_a_kind_key(self):
        """The event name is positional-only, so a fault's own ``kind``
        rides in the payload without a TypeError (regression: a reaper
        thread once died on exactly this collision)."""
        rec = Tracer("events")
        rec.record("fault.fire", site="collective.hop", kind="crash")
        (r,) = rec.events("fault.fire")
        assert r.name == "fault.fire" and r.args["kind"] == "crash"

    def test_kind_filter_and_clear(self):
        rec = Tracer("events")
        rec.record("a")
        rec.record("b")
        rec.record("a")
        assert len(rec.events("a")) == 2
        rec.clear()
        assert len(rec) == 0

    def test_export_ingest_rewrites_pid(self):
        child = Tracer("events")
        child.record("mp.step", step=3)
        shipped = child.export_events(clear=True)
        assert len(child) == 0
        parent = Tracer("events")
        parent.ingest(shipped, pid=4242)
        (r,) = parent.events()
        assert r.pid == 4242 and r.args["step"] == 3

    def test_singleton_identity_survives_enable_disable(self):
        rec = get_tracer()
        assert obs.enable("events") is rec
        assert rec.recording and not rec.enabled
        assert obs.disable() is rec
        assert not rec.recording

    def test_states_gate_spans_and_events(self):
        t = Tracer("events")
        assert t.span("etg.task") is NULL_SPAN
        t.record("serve.admit", req=1)
        # arming never lowers the state; only disable() does
        assert t.enable("spans").enable("events").level == "spans"
        with t.span("etg.task"):
            pass
        assert [r.name for r in t.events()] == ["serve.admit", "etg.task"]
        with pytest.raises(ValueError, match="level"):
            t.enable("verbose")

    def test_spans_state_keeps_capacity_and_counts_drops(self):
        """A tracer left on in the spans state -- e.g. inside a
        long-lived server -- holds at most its capacity and
        counts the records it dropped."""
        t = Tracer("spans")
        for _ in range(CAPACITY + 100):
            with t.span("etg.task"):
                pass
        assert len(t) == CAPACITY
        assert t.dropped == 100
        worker = Tracer("events")
        worker.record("mp.step")
        t.ingest(worker.export_events(), pid=4242)
        assert len(t) == CAPACITY and t.dropped == 101
        assert t.events()[-1].pid == 4242
        t.clear()
        assert len(t) == 0 and t.dropped == 0

    def test_threads_past_capacity_keep_the_bound(self):
        """Writers racing past capacity (more threads than cores, a
        tiny switch interval): the ring never exceeds its bound, and
        every record is either kept or counted as dropped, give or
        take the few pushed out at the instant the ring filled."""
        import sys

        t = Tracer("spans")
        n_threads, per_thread = 8, CAPACITY // 2

        def work():
            for i in range(per_thread):
                with t.span("thread.work", i=i):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work)
                       for _ in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        total = n_threads * per_thread
        assert len(t) == CAPACITY
        assert total - n_threads <= len(t) + t.dropped <= total

    def test_open_span_is_in_the_ring(self):
        """A record enters the ring when its span opens, so a freeze
        while it runs (a dump mid-batch) still holds it."""
        t = Tracer("events")
        with t.record("serve.batch", reqs=[1, 2]):
            (open_rec,) = t.events("serve.batch")
            assert open_rec.dur_us == 0.0
        assert open_rec.dur_us > 0.0

    def test_records_pickle(self):
        import pickle

        t = Tracer("events")
        t.record("mp.step", step=1)
        (r,) = pickle.loads(pickle.dumps(t.export_events()))
        assert (r.name, r.args, r.pid) == ("mp.step", {"step": 1},
                                           t.events()[0].pid)


class TestMetrics:
    def test_counters_and_gauges(self):
        m = MetricsRegistry()
        m.inc("calls")
        m.inc("calls", 2)
        m.set_gauge("imgs_per_s", 10.5)
        assert m.value("calls") == 3
        assert m.value("imgs_per_s") == 10.5
        assert m.value("absent", default=-1) == -1

    def test_snapshot_and_merge(self):
        worker = MetricsRegistry()
        worker.inc("n", 5)
        worker.set_gauge("g", 1.0)
        snap = worker.snapshot(clear=True)
        assert worker.counters() == {}
        root = MetricsRegistry()
        root.inc("n", 2)
        root.merge(snap)
        root.merge({"counters": {"n": 1}, "gauges": {"g": 9.0}})
        assert root.value("n") == 8  # counters add
        assert root.value("g") == 9.0  # gauges last-write-wins

    def test_concurrent_inc(self):
        m = MetricsRegistry()

        def work():
            for _ in range(500):
                m.inc("x")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert m.value("x") == 2000


class TestExport:
    def _tracer(self):
        t = Tracer("spans")
        with t.span("conv.dryrun", layer="L", obj=object()):
            with t.span("jit.codegen"):
                pass
        with t.span("jit.codegen"):
            pass
        return t

    def test_chrome_trace_shape(self):
        m = MetricsRegistry()
        m.inc("jit.kernels_generated", 2)
        doc = chrome_trace(self._tracer(), m)
        assert {e["ph"] for e in doc["traceEvents"]} == {"X"}
        cats = {e["name"]: e["cat"] for e in doc["traceEvents"]}
        assert cats == {"conv.dryrun": "conv", "jit.codegen": "jit"}
        assert doc["otherData"]["counters"]["jit.kernels_generated"] == 2
        # non-primitive span args are stringified -> always serializable
        json.dumps(doc)

    def test_dump_chrome_trace_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        n = dump_chrome_trace(path, self._tracer(), MetricsRegistry())
        doc = json.loads(path.read_text())
        assert n == len(doc["traceEvents"]) == 3

    def test_flat_report_aggregates(self):
        rep = flat_report(self._tracer(), MetricsRegistry())
        agg = rep["spans"]["jit.codegen"]
        assert agg["count"] == 2
        assert agg["mean_us"] == pytest.approx(agg["total_us"] / 2)
        assert agg["max_us"] <= agg["total_us"]


class TestEngineInstrumentation:
    P = ConvParams(N=1, C=8, K=8, H=6, W=6, R=3, S=3, stride=1)

    def test_spans_and_counters_from_forward(self, traced, rng):
        x, w, _ = rand_conv_tensors(self.P, rng)
        eng = DirectConvForward(self.P, TINY, kernel_cache=KernelCache())
        eng.run_nchw(x, w)
        names = traced.span_names()
        assert {"conv.dryrun", "jit.codegen", "conv.replay",
                "stream.replay"} <= names
        m = get_metrics()
        assert m.value("conv.engines_built") == 1
        assert m.value("conv.fwd_calls") == 1
        assert m.value("jit.kernels_generated") >= 1
        assert m.value("stream.conv_calls") > 0

    def test_disabled_tracer_records_nothing(self, rng):
        tracer = get_tracer()
        assert not tracer.recording
        before = len(tracer)
        x, w, _ = rand_conv_tensors(self.P, rng)
        eng = DirectConvForward(self.P, TINY, kernel_cache=KernelCache())
        eng.run_nchw(x, w)
        assert len(tracer) == before

    def test_codegen_span_carries_kernel_name(self, traced, rng):
        x, w, _ = rand_conv_tensors(self.P, rng)
        eng = DirectConvForward(self.P, TINY, kernel_cache=KernelCache())
        eng.run_nchw(x, w)
        for r in traced.events("jit.codegen"):
            assert r.args.get("kernel")


class TestKernelCacheSafety:
    def test_concurrent_get_generates_once(self):
        cache = KernelCache()
        calls = []

        def generator(desc):
            calls.append(desc)
            from repro.arch.isa import KernelProgram

            return KernelProgram(name="p", vlen=4, uops=[])

        def work():
            for _ in range(20):
                cache.get("desc", generator)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(calls) == 1
        st = cache.stats()
        assert st["variants"] == 1
        assert st["hits"] + st["misses"] == 160 and st["misses"] == 1

    def test_stats_mirrored_into_metrics(self, traced):
        from repro.arch.isa import KernelProgram

        m = get_metrics()
        cache = KernelCache()
        cache.get("d", lambda d: KernelProgram(name="p", vlen=4, uops=[]))
        cache.get("d", lambda d: KernelProgram(name="p", vlen=4, uops=[]))
        assert m.value("jit.cache.misses") == 1
        assert m.value("jit.cache.hits") == 1
