"""repro.serve -- dynamic-batching inference serving.

The paper's central systems idea (section II-J) is to pay setup --
JIT codegen, blocking choice, the dryrun that records kernel streams --
**once**, then replay a frozen stream with zero control overhead per call.
An inference server is the same shape at a larger scale: request shapes
repeat millions of times, so *everything* shape-dependent (engines,
streams, compiled closures, even the micro-batch buckets) is built at
boot and amortized across requests.

Pieces (one module each):

* :class:`ServeConfig` -- the frozen description of what is served
  (model, input shape, batch buckets, engine/tier, admission limits).
* :class:`AdmissionQueue` -- bounded FIFO with load shedding; the only
  place a request can be rejected.
* :class:`MicroBatcher` -- coalesces single-image requests into
  shape-bucketed minibatches (pad-to-bucket, outputs scattered back).
* :class:`EngineReplica` and the worker thread that drives it --
  forward-only :class:`~repro.gxm.inference.InferenceSession` instances
  per batch bucket executing the batches; a blocked replica records
  each bucket's kernel streams by its own dryrun when it is built.
* :class:`InferenceServer` -- composition + SLO plumbing: per-request
  latency percentiles, queue depth, batch occupancy and shed counts all
  flow through :mod:`repro.obs`.
* :func:`run_closed_loop` / :func:`run_open_loop` -- the synthetic load
  generators behind ``python -m repro loadgen``.
* :func:`serve_http` -- a stdlib HTTP front end (``POST /predict``,
  ``GET /metrics``, ``GET /healthz``).

Resilience (see :mod:`repro.resilience`): a supervisor thread restarts
a crashed worker thread with bounded exponential backoff
(``serve.worker_restarts``); a blocked replica whose compiled execution
tier fails rebuilds that bucket on the ``interpret`` tier and retries
(``serve.tier_degraded``); and ``GET /healthz`` serves
:meth:`InferenceServer.health` -- ``ok``/``degraded``/``down`` plus
whether the worker is alive and every degradation reason.

Request lifecycle (this layer is what makes the server operable):

* **deadlines** -- :meth:`submit`/:meth:`predict` take an absolute
  monotonic ``deadline`` (HTTP: ``X-Deadline-Ms``); expired requests
  are dropped at admission, at batch assembly and before replay
  (``serve.deadline_expired``, :class:`DeadlineExceeded`, HTTP 504) so
  a stale batch never wastes an engine pass.
* **adaptive backpressure** -- ``max_queue_wait_ms`` sheds on the
  *estimated queue wait* (service-time EWMA x depth), not a
  raw depth threshold (``serve.shed_backpressure``).
* **circuit breaker** -- :class:`CircuitBreaker` fast-fails ``/predict``
  (and :class:`ServeClient` calls) once the recent error rate trips,
  then half-opens with bounded probes.
* **a real client** -- :class:`ServeClient`: per-request timeout,
  bounded jittered retries (503-class only -- never 4xx/504), optional
  p95 hedging; both load generators drive it.
* **drain + hot reload** -- :meth:`InferenceServer.drain` stops
  admission and finishes in-flight batches;
  :meth:`InferenceServer.reload_checkpoint` canaries new weights on a
  shadow replica against the numerics contract, atomically swaps on
  success and rolls back on failure (:class:`CanaryError`, HTTP 409)
  with the old weights never leaving service.  ``POST /admin/drain`` / ``/admin/resume`` /
  ``/admin/reload`` expose the same over HTTP.  Lifecycle operations
  never interleave: a second drain/resume/reload while one is in flight
  is refused deterministically (:class:`LifecycleBusy`, HTTP 409).
* **forensics** -- with ``ServeConfig.incident_dir`` set, the
  process-wide tracer records at least its ``"events"`` state
  (:mod:`repro.obs.tracer`): admissions, one ``serve.batch`` span per
  batch with its request ids, tier degrades and lifecycle transitions;
  canary rollbacks and ``POST /admin/dump`` each freeze a
  digest-verified incident bundle replayable bitwise via
  ``python -m repro incident replay``.

One process serves, with one replica driven by one worker thread.
Replica processes behind a shared-memory router measured slower than
one process, a single replica at a median 0.70x (EXPERIMENTS.md, "One
serving process"), and a second worker thread with its own replica at
0.66x (``fast``) and 0.72x (``blocked``) of one (EXPERIMENTS.md, "One
replica per server").

Quick start::

    from repro.serve import InferenceServer, ServeConfig, run_closed_loop

    server = InferenceServer(ServeConfig())
    server.start()
    probs = server.predict(x)          # x: one (C, H, W) image
    report = run_closed_loop(server, clients=8, requests=256)
    print(report.throughput_rps, report.latency_ms["p99"])
    server.stop()

Outputs are bitwise identical to unbatched
:meth:`~repro.gxm.inference.InferenceSession.predict` whatever bucket a
request lands in: every layer of the forward path computes each sample
independently of its batch neighbours (see ``Linear.forward`` for the one
place that needed care).
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.batcher import MicroBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import ClientConfig, ServeClient
from repro.serve.config import ServeConfig, ServeConfigError
from repro.serve.http import serve_http
from repro.serve.loadgen import LoadReport, run_closed_loop, run_open_loop
from repro.serve.request import (
    DeadlineExceeded,
    InferenceRequest,
    InvalidImage,
    RequestShed,
    ServerClosed,
)
from repro.serve.server import CanaryError, InferenceServer, LifecycleBusy
from repro.serve.worker import EngineReplica, SwapGate

__all__ = [
    "ServeConfig",
    "ServeConfigError",
    "InferenceServer",
    "InferenceRequest",
    "InvalidImage",
    "RequestShed",
    "ServerClosed",
    "DeadlineExceeded",
    "CanaryError",
    "LifecycleBusy",
    "AdmissionQueue",
    "MicroBatcher",
    "CircuitBreaker",
    "ClientConfig",
    "ServeClient",
    "EngineReplica",
    "SwapGate",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
    "serve_http",
]
