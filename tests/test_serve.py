"""repro.serve: admission, batching, server, loadgen, HTTP.

The load-bearing guarantee is bitwise identity: whatever bucket the
dynamic batcher packs a request into -- and whatever engine/tier runs
the batch -- the probability vector must equal the one an unbatched
``InferenceSession.predict`` produces for the same image.
"""

import json
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.gxm.inference import InferenceSession
from repro.obs.metrics import get_metrics
from repro.serve import (
    AdmissionQueue,
    CircuitBreaker,
    ClientConfig,
    InferenceRequest,
    InferenceServer,
    InvalidImage,
    MicroBatcher,
    RequestShed,
    ServeClient,
    ServeConfig,
    ServerClosed,
    run_closed_loop,
    run_open_loop,
    serve_http,
)
from repro.serve.admission import IDLE_FRACTION
from repro.types import ReproError, ShapeError

SHAPE = (16, 8, 8)


def tiny_config(**kw):
    kw.setdefault("buckets", (1, 2, 4))
    kw.setdefault("batch_window_ms", 1.0)
    return ServeConfig(**kw)


@pytest.fixture
def clean_metrics():
    get_metrics().clear()
    yield get_metrics()
    get_metrics().clear()


def images(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *SHAPE)).astype(np.float32)


def direct_reference(cfg, xs):
    """Unbatched batch-1 predictions -- the ground truth every served
    answer must match bitwise."""
    etg = cfg.build_etg(1)
    with InferenceSession(etg) as sess:
        return [sess.predict(x[None])[0].copy() for x in xs]


# ---------------------------------------------------------------------------
class TestServeConfig:
    def test_defaults_validate(self):
        cfg = ServeConfig()
        assert cfg.max_bucket == 16
        assert cfg.input_shape == (16, 8, 8)

    @pytest.mark.parametrize(
        "kw",
        [
            {"model": "resnet_full"},
            {"engine": "magic"},
            {"buckets": ()},
            {"buckets": (4, 2, 1)},
            {"buckets": (1, 1, 2)},
            {"buckets": (0, 1)},
            {"input_shape": (8, 8)},
            {"batch_window_ms": -1.0},
            {"queue_capacity": 0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ReproError):
            ServeConfig(**kw)

    def test_unknown_tier_rejected_listing_registry(self):
        from repro import EXECUTION_TIERS

        with pytest.raises(ValueError, match="unknown execution tier") as ei:
            ServeConfig(engine="blocked", execution_tier="turbo")
        for name in EXECUTION_TIERS:
            assert name in str(ei.value)

    def test_fingerprint_tracks_stream_relevant_fields(self):
        base = ServeConfig()
        assert base.fingerprint() == ServeConfig().fingerprint()
        assert base.fingerprint() != ServeConfig(width=16).fingerprint()
        assert base.fingerprint() != ServeConfig(
            buckets=(1, 2)).fingerprint()
        # runtime-only knobs do not change the engines a replica builds
        assert base.fingerprint() == ServeConfig(
            queue_capacity=8, batch_window_ms=9.0
        ).fingerprint()


# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def test_sheds_when_full(self, clean_metrics):
        q = AdmissionQueue(capacity=2)
        q.put(InferenceRequest(images(1)[0]))
        q.put(InferenceRequest(images(1)[0]))
        with pytest.raises(RequestShed):
            q.put(InferenceRequest(images(1)[0]))
        assert clean_metrics.value("serve.shed") == 1
        assert q.depth == 2

    def test_closed_rejects_and_unblocks(self):
        q = AdmissionQueue(capacity=4)
        got = []
        t = threading.Thread(target=lambda: got.append(q.take(4, 5.0)))
        t.start()
        q.close()
        t.join(timeout=5.0)
        assert got == [[]]
        with pytest.raises(ServerClosed):
            q.put(InferenceRequest(images(1)[0]))

    def test_take_batches_up_to_max(self):
        q = AdmissionQueue(capacity=8)
        reqs = [InferenceRequest(x) for x in images(5)]
        for r in reqs:
            q.put(r)
        batch = q.take(4, window_s=0.0)
        assert [r.id for r in batch] == [r.id for r in reqs[:4]]
        assert q.depth == 1
        assert [r.id for r in q.drain()] == [reqs[4].id]

    def test_losing_taker_waits_instead_of_returning_empty(self):
        """Two takers race one request: the winner pops it at the end of
        its batch window and the loser, finding the deque empty, must go
        back to waiting -- an empty return means shutdown and used to
        kill the losing worker thread permanently."""
        q = AdmissionQueue(capacity=8)
        q.put(InferenceRequest(images(1)[0]))
        results = []

        def taker():
            results.append(q.take(4, window_s=0.1))

        threads = [threading.Thread(target=taker) for _ in range(2)]
        for t in threads:
            t.start()
        deadline = time.perf_counter() + 5.0
        while not results and time.perf_counter() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)  # well past the loser's batch window
        assert len(results) == 1 and len(results[0]) == 1
        q.close()
        for t in threads:
            t.join(timeout=5.0)
        assert sorted(len(b) for b in results) == [0, 1]

    # The close rule on real-time scales: a 0.4 s window has a 0.1 s idle
    # gap, and puts 0.05 s apart leave half a gap of slack for a loaded
    # host.
    WINDOW_S = 0.4
    GAP_S = 0.05

    @staticmethod
    def _put_every(q, n, period_s, t0=None):
        """Put ``n`` requests ``period_s`` apart on an absolute schedule
        (a late put does not delay the next one); returns the ids."""
        t0 = time.perf_counter() if t0 is None else t0
        reqs = [InferenceRequest(x) for x in images(n)]
        for k, r in enumerate(reqs):
            pause = t0 + k * period_s - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            q.put(r)
        return [r.id for r in reqs]

    @staticmethod
    def _taker(q, max_n, window_s, batches):
        def run():
            while True:
                batch = q.take(max_n, window_s)
                if not batch:
                    return
                batches.append(
                    (time.perf_counter(), [r.id for r in batch]))

        t = threading.Thread(target=run, daemon=True)
        t.start()
        return t

    def test_lone_request_leaves_after_the_idle_gap(self):
        q = AdmissionQueue(capacity=8)
        t0 = time.perf_counter()
        q.put(InferenceRequest(images(1)[0]))
        batch = q.take(4, self.WINDOW_S)
        waited = time.perf_counter() - t0
        assert len(batch) == 1
        assert self.WINDOW_S * IDLE_FRACTION <= waited < 0.3

    def test_burst_spanning_more_than_the_idle_gap_stays_one_batch(self):
        q = AdmissionQueue(capacity=8)
        batches = []
        taker = self._taker(q, 8, self.WINDOW_S, batches)
        ids = self._put_every(q, 4, self.GAP_S)  # spans 0.15 s > 0.1 s
        time.sleep(self.WINDOW_S)
        q.close()
        taker.join(timeout=5.0)
        assert [b for _, b in batches] == [ids]

    def test_steady_trickle_is_cut_at_the_window(self):
        q = AdmissionQueue(capacity=32)
        batches = []
        first = InferenceRequest(images(1)[0])
        q.put(first)
        t0 = time.perf_counter()
        taker = self._taker(q, 32, self.WINDOW_S, batches)
        ids = [first.id] + self._put_every(q, 15, self.GAP_S,
                                           t0 + self.GAP_S)
        time.sleep(self.WINDOW_S)
        q.close()
        taker.join(timeout=5.0)
        t_first, head = batches[0]
        # the trickle never paused for an idle gap, so only the cap cut
        # it: 0.4 s into a 0.75 s trickle, with every request in order
        assert t_first - t0 >= self.WINDOW_S
        assert 2 < len(head) < len(ids)
        assert [i for _, b in batches for i in b] == ids

    def test_pause_longer_than_the_idle_gap_closes_the_batch(self):
        q = AdmissionQueue(capacity=8)
        batches = []
        taker = self._taker(q, 8, self.WINDOW_S, batches)
        ids = self._put_every(q, 2, 0.0)
        time.sleep(0.25)  # past the 0.1 s gap, inside the 0.4 s cap
        late = self._put_every(q, 1, 0.0)
        time.sleep(self.WINDOW_S)
        q.close()
        taker.join(timeout=5.0)
        assert [b for _, b in batches] == [ids, late]

    def test_full_bucket_closes_the_batch_at_once(self):
        q = AdmissionQueue(capacity=8)
        batches = []
        # a 4 s window idles out after 1 s: anything sooner is max_n
        taker = self._taker(q, 4, 4.0, batches)
        ids = self._put_every(q, 4, 0.0)
        t_full = time.perf_counter()
        deadline = t_full + 5.0
        while not batches and time.perf_counter() < deadline:
            time.sleep(0.005)
        q.close()
        taker.join(timeout=5.0)
        t_done, batch = batches[0]
        assert batch == ids
        assert t_done - t_full < 0.5

    def test_requests_queued_while_nobody_took_leave_without_waiting(self):
        q = AdmissionQueue(capacity=8)
        ids = self._put_every(q, 3, 0.0)
        time.sleep(0.6)  # past the 0.5 s idle gap of a 2 s window
        t0 = time.perf_counter()
        batch = q.take(8, 2.0)
        assert time.perf_counter() - t0 < 0.25
        assert [r.id for r in batch] == ids

    def test_concurrent_puts_are_each_taken_once(self):
        """Four producers race one taker on a short switch interval:
        every request leaves in exactly one batch of at most max_n."""
        q = AdmissionQueue(capacity=256)
        batches = []
        taker = self._taker(q, 8, 0.002, batches)
        ids = [[] for _ in range(4)]

        def producer(k):
            for x in images(50, seed=k):
                r = InferenceRequest(x)
                q.put(r)
                ids[k].append(r.id)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            producers = [threading.Thread(target=producer, args=(k,))
                         for k in range(4)]
            for t in producers:
                t.start()
            for t in producers:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in producers)
        finally:
            sys.setswitchinterval(old)
        deadline = time.perf_counter() + 10.0
        while q.depth and time.perf_counter() < deadline:
            time.sleep(0.01)
        q.close()
        taker.join(timeout=10.0)
        assert not taker.is_alive()
        taken = [i for _, b in batches for i in b]
        assert sorted(taken) == sorted(i for k in ids for i in k)
        for mine in ids:  # FIFO per producer
            assert [i for i in taken if i in set(mine)] == mine
        assert all(1 <= len(b) <= 8 for _, b in batches)

    def test_zero_window_takes_what_is_queued(self):
        q = AdmissionQueue(capacity=8)
        ids = self._put_every(q, 2, 0.0)
        t0 = time.perf_counter()
        batch = q.take(8, 0.0)
        assert time.perf_counter() - t0 < 0.25
        assert [r.id for r in batch] == ids


# ---------------------------------------------------------------------------
class TestMicroBatcher:
    def test_bucket_for(self):
        b = MicroBatcher((1, 2, 4, 8))
        assert [b.bucket_for(n) for n in (1, 2, 3, 5, 8)] == [1, 2, 4, 8, 8]
        with pytest.raises(ShapeError):
            b.bucket_for(9)

    def test_build_pads_and_scatter_copies(self, clean_metrics):
        b = MicroBatcher((1, 2, 4))
        reqs = [InferenceRequest(x) for x in images(3)]
        batch, n, bucket = b.build(reqs)
        assert (n, bucket) == (3, 4)
        assert batch.shape == (4, *SHAPE)
        assert (batch[3] == 0).all()
        assert (batch[0] == reqs[0].x).all()
        probs = np.arange(4 * 5, dtype=np.float32).reshape(4, 5)
        b.scatter(reqs, probs)
        out = reqs[1].result(timeout=1.0)
        assert (out == probs[1]).all()
        out[0] = -1  # scattered rows are copies, not views
        assert probs[1, 0] == 5.0
        occ = clean_metrics.distributions()["serve.batch_occupancy"]
        assert occ["max"] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
class TestBitwiseIdentity:
    """Satellite: concurrent batched serving == unbatched predict, bitwise."""

    @pytest.mark.parametrize(
        "engine,tier",
        [("fast", None), ("blocked", "compiled"), ("blocked", "interpret")],
    )
    def test_threads_through_batcher_match_direct_predict(
        self, engine, tier, clean_metrics
    ):
        cfg = tiny_config(engine=engine, execution_tier=tier)
        xs = images(12, seed=4)
        refs = direct_reference(cfg, xs)
        server = InferenceServer(cfg)
        server.start()
        try:
            outs = [None] * len(xs)
            barrier = threading.Barrier(len(xs))

            def client(i):
                barrier.wait()  # force concurrent arrival => mixed buckets
                outs[i] = server.predict(xs[i])

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(xs))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            server.stop()
        for i, (out, ref) in enumerate(zip(outs, refs)):
            assert out.dtype == ref.dtype
            assert (out == ref).all(), f"request {i} diverged under batching"
        # concurrency actually exercised multi-request batches
        batches = server.metrics.value("serve.batches")
        assert server.metrics.value("serve.responses") == len(xs)
        assert batches < len(xs)


# ---------------------------------------------------------------------------
class TestServerSLO:
    def test_latency_distribution_and_stats(self, clean_metrics):
        server = InferenceServer(tiny_config())
        server.start()
        try:
            for x in images(8, seed=2):
                server.predict(x)
            stats = server.stats()
        finally:
            server.stop()
        lat = stats["distributions"]["serve.latency_ms"]
        assert lat["count"] == 8
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert stats["counters"]["serve.responses"] == 8
        assert "boot_s" in stats["boot"]
        assert stats["kernel_cache"]["variants"] >= 0

    def test_stop_fails_leftovers_and_rejects_new(self):
        server = InferenceServer(tiny_config())
        server.start()
        server.stop()
        with pytest.raises(ServerClosed):
            server.submit(images(1)[0])

    def test_submit_validates_shape(self):
        with InferenceServer(tiny_config()) as server:
            with pytest.raises(ShapeError):
                server.submit(np.zeros((3, 8, 8), dtype=np.float32))

    def test_worker_failure_propagates_to_submitter(self, clean_metrics):
        server = InferenceServer(tiny_config())
        server.start()
        try:
            boom = RuntimeError("engine exploded")

            def bad_run(batch, bucket):
                raise boom

            server.replica.run = bad_run
            with pytest.raises(RuntimeError, match="engine exploded"):
                server.predict(images(1)[0], timeout=5.0)
            assert server.metrics.value("serve.errors") == 1
        finally:
            server.stop()

    def test_stats_scoped_to_each_server_instance(self):
        """Two servers booted in one process must not see each other's
        counters or latency samples (stats used to read the process-wide
        registry and report lifetime totals)."""
        cfg = tiny_config()
        with InferenceServer(cfg) as first:
            for x in images(4, seed=21):
                first.predict(x)
            stats1 = first.stats()
        with InferenceServer(cfg) as second:
            second.predict(images(1, seed=22)[0])
            stats2 = second.stats()
        assert stats1["counters"]["serve.responses"] == 4
        assert stats2["counters"]["serve.responses"] == 1
        assert stats2["distributions"]["serve.latency_ms"]["count"] == 1


# ---------------------------------------------------------------------------
class TestCancellation:
    """A submitter that stops waiting must not cost a batch slot."""

    def test_result_timeout_cancels_the_request(self):
        req = InferenceRequest(images(1)[0])
        assert not req.cancelled
        with pytest.raises(TimeoutError):
            req.result(timeout=0.01)
        assert req.cancelled

    def test_worker_skips_cancelled_requests(self, clean_metrics):
        from repro.serve.worker import Worker

        class StubReplica:
            def run(self, batch, bucket):
                return np.ones((bucket, 5), dtype=np.float32)

        q = AdmissionQueue(capacity=8)
        abandoned = InferenceRequest(images(1)[0])
        abandoned.cancel()
        live = InferenceRequest(images(1)[0])
        q.put(abandoned)
        q.put(live)
        worker = Worker(
            "w", q, MicroBatcher((1, 2, 4)), StubReplica(),
            batch_window_s=0.0,
        )
        worker.start()
        try:
            out = live.result(timeout=5.0)
            assert out.shape == (5,)
            # the abandoned request was dropped, never computed
            assert not abandoned.done
            assert clean_metrics.value("serve.cancelled") == 1
        finally:
            q.close()
            worker.join(timeout=5.0)


# ---------------------------------------------------------------------------
class TestLoadgen:
    def test_closed_loop_report(self, clean_metrics):
        with InferenceServer(tiny_config()) as server:
            rep = run_closed_loop(server, clients=4, requests=16, seed=1)
        assert rep.completed == 16 and rep.shed == 0 and rep.errors == 0
        assert rep.throughput_rps > 0
        assert set(rep.latency_ms) == {"p50", "p95", "p99", "mean", "max"}
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["mode"] == "closed:4"

    def test_open_loop_counts_sheds(self, clean_metrics):
        cfg = tiny_config(queue_capacity=1, batch_window_ms=0.0)
        with InferenceServer(cfg) as server:
            rep = run_open_loop(server, rate_rps=400, duration_s=0.25,
                                seed=3)
        assert rep.completed + rep.shed + rep.errors == rep.requests
        assert rep.errors == 0
        stats = rep.server_stats
        assert stats["counters"].get("serve.shed", 0) == rep.shed


# ---------------------------------------------------------------------------
class TestHttp:
    def test_endpoints(self, clean_metrics):
        with InferenceServer(tiny_config()) as server:
            httpd = serve_http(server)
            port = httpd.server_address[1]
            base = f"http://127.0.0.1:{port}"
            try:
                x = images(1, seed=5)[0]
                ref = direct_reference(server.config, x[None])[0]
                req = urllib.request.Request(
                    f"{base}/predict",
                    data=json.dumps({"input": x.tolist()}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                doc = json.loads(urllib.request.urlopen(req).read())
                # JSON round-trips float32 losslessly via float
                assert np.asarray(
                    doc["probs"], dtype=np.float32
                ).tolist() == ref.tolist()
                assert doc["argmax"] == int(np.argmax(ref))

                health = json.loads(
                    urllib.request.urlopen(f"{base}/healthz").read())
                assert health["status"] == "ok"
                assert health["live_workers"] == 1
                metrics = json.loads(
                    urllib.request.urlopen(f"{base}/metrics").read())
                assert metrics["counters"]["serve.responses"] >= 1

                bad = urllib.request.Request(
                    f"{base}/predict", data=b"not json",
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as exc:
                    urllib.request.urlopen(bad)
                assert exc.value.code == 400
            finally:
                httpd.shutdown()

    def test_worker_failures_and_timeouts_get_http_statuses(self):
        """TimeoutError maps to 504 and an arbitrary engine exception to
        500 -- neither may escape the handler and drop the connection
        without a response."""

        def _raiser(err):
            def predict(x, timeout=None):
                raise err
            return predict

        with InferenceServer(tiny_config()) as server:
            httpd = serve_http(server)
            port = httpd.server_address[1]
            body = json.dumps(
                {"input": images(1, seed=7)[0].tolist()}
            ).encode()
            try:
                for err, status in (
                    (TimeoutError("request 0 not completed"), 504),
                    (RuntimeError("engine exploded"), 500),
                ):
                    server.predict = _raiser(err)
                    req = urllib.request.Request(
                        f"http://127.0.0.1:{port}/predict", data=body,
                        headers={"Content-Type": "application/json"},
                    )
                    with pytest.raises(urllib.error.HTTPError) as exc:
                        urllib.request.urlopen(req)
                    assert exc.value.code == status
                    doc = json.loads(exc.value.read())
                    assert "error" in doc
            finally:
                del server.predict  # restore the class method for stop()
                httpd.shutdown()


# ---------------------------------------------------------------------------
def _with_pixel(x, value):
    x = x.copy()
    x[0, 0, 0] = value
    return x


#: images admission must refuse, each built from a valid float32 image
INVALID_IMAGES = {
    "object": lambda x: _with_pixel(x.astype(object), None),
    "str": lambda x: np.full(x.shape, "pixel"),
    "complex": lambda x: x + 1j,
    "nan": lambda x: _with_pixel(x, np.nan),
    "+inf": lambda x: _with_pixel(x, np.inf),
    "-inf": lambda x: _with_pixel(x, -np.inf),
    "float64 overflow": lambda x: _with_pixel(x.astype(np.float64), 1e300),
    "ragged": lambda x: [x.tolist(), [0.0]],
}


@pytest.fixture(scope="class", params=["fast", "blocked"])
def served(request):
    """One server per engine, with its HTTP front end's base URL."""
    server = InferenceServer(tiny_config(engine=request.param))
    server.start()
    httpd = serve_http(server)
    yield server, f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    server.stop()


class TestInvalidImages:
    """Admission refuses an image no answer can be trusted for with one
    typed error, :class:`InvalidImage` (a ``ReproError`` and a
    ``ValueError``), and HTTP answers it with 400 and a JSON body that
    names it.  A NaN pixel would otherwise get plausible probabilities:
    ReLU's ``x > 0`` mask turns it into 0."""

    @pytest.mark.parametrize("case", list(INVALID_IMAGES))
    def test_submit_raises_invalid_image(self, served, case):
        server, _ = served
        bad = INVALID_IMAGES[case](images(1, seed=9)[0])
        with pytest.raises(InvalidImage) as exc:
            server.submit(bad)
        assert isinstance(exc.value, ReproError)
        assert isinstance(exc.value, ValueError)
        assert server.queue.depth == 0

    # JSON has no complex numbers
    @pytest.mark.parametrize(
        "case", [c for c in INVALID_IMAGES if c != "complex"]
    )
    def test_http_answers_400_naming_the_error(self, served, case):
        _, base = served
        bad = INVALID_IMAGES[case](images(1, seed=9)[0])
        body = {"input": bad.tolist() if isinstance(bad, np.ndarray)
                else bad}
        req = urllib.request.Request(
            f"{base}/predict", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req)
        assert exc.value.code == 400
        assert json.loads(exc.value.read())["type"] == "InvalidImage"

    @pytest.mark.parametrize("transport", ["in-process", "http"])
    @pytest.mark.parametrize("case", list(INVALID_IMAGES))
    def test_serve_client_raises_invalid_image(self, served, transport,
                                               case):
        """Both transports raise the one typed error, and a malformed
        request never counts against the client's breaker."""
        server, base = served
        client = ServeClient(
            server if transport == "in-process" else base,
            config=ClientConfig(timeout_s=30.0, max_retries=0),
            breaker=CircuitBreaker(min_volume=1),
        )
        with pytest.raises(InvalidImage):
            client.predict(INVALID_IMAGES[case](images(1, seed=9)[0]))
        assert client.breaker.snapshot()["window"] == 0

    def test_real_images_of_any_width_are_served_bitwise(self, served):
        """float64, integer and bool images are cast to float32, not
        refused."""
        server, _ = served
        x = images(1, seed=9)[0]
        ints = np.arange(x.size, dtype=np.int64).reshape(x.shape) % 5
        for img in (x.astype(np.float64), ints, ints > 2):
            ref = direct_reference(server.config, [
                np.asarray(img, dtype=np.float32)])[0]
            assert np.array_equal(server.predict(img), ref)


# ---------------------------------------------------------------------------
class TestSessionSatellites:
    """PR satellites on the inference layer itself."""

    def test_output_probabilities_accessor(self):
        cfg = tiny_config()
        etg = cfg.build_etg(2)
        with pytest.raises(ReproError, match="no forward pass"):
            etg.output_probabilities()
        etg.forward_only(images(2, seed=6))
        probs = etg.output_probabilities()
        assert probs.shape == (2, cfg.num_classes)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_session_nesting_and_exception_safety(self):
        cfg = tiny_config()
        etg = cfg.build_etg(1)
        bns = InferenceSession(etg)._bns
        assert bns and all(bn.training for bn in bns)

        outer, inner = InferenceSession(etg), InferenceSession(etg)
        with outer:
            assert not any(bn.training for bn in bns)
            with inner:
                assert not any(bn.training for bn in bns)
            # inner exit must NOT flip layers back while outer is active
            assert not any(bn.training for bn in bns)
        assert all(bn.training for bn in bns)

        with pytest.raises(RuntimeError):
            with InferenceSession(etg):
                assert not any(bn.training for bn in bns)
                raise RuntimeError("mid-inference failure")
        assert all(bn.training for bn in bns)

    def test_tracer_records_serve_spans(self, clean_metrics):
        tracer = obs.enable()
        tracer.clear()
        try:
            with InferenceServer(tiny_config()) as server:
                server.predict(images(1)[0])
            names = tracer.span_names()
            assert "serve.batch" in names
            (span,) = tracer.events("serve.batch")
            assert span.args["n"] == 1 and span.args["bucket"] == 1
        finally:
            obs.disable()
            tracer.clear()
