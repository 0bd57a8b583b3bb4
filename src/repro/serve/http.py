"""Minimal stdlib HTTP front end for an :class:`InferenceServer`.

Endpoints, JSON in/out:

* ``POST /predict`` -- body ``{"input": <nested (C, H, W) list>}``,
  response ``{"probs": [...], "argmax": k}``.  An ``X-Deadline-Ms``
  header gives the request a deadline (relative milliseconds); once it
  passes, the pipeline drops the request and the client gets ``504``.
* ``GET /metrics`` -- the server's :meth:`stats` snapshot.
* ``GET /healthz`` -- the readiness payload (:meth:`InferenceServer
  .health`): ``200`` while the server can serve (``ok`` or
  ``degraded``), ``503`` when it is down.
* ``POST /admin/drain`` -- stop admission, finish in-flight work,
  report leftovers (the first step of a maintenance window).
* ``POST /admin/resume`` -- re-open admission after a drain.
* ``POST /admin/reload`` -- body ``{"checkpoint": "<path>"}``: hot
  reload with canary + rollback (:meth:`reload_checkpoint`).  ``200``
  on swap; ``409`` when the canary failed and the old weights kept
  serving.
* ``POST /admin/dump`` -- freeze a :mod:`repro.forensics` incident
  bundle of the running server (the tracer's ring, config, live
  weights, a replayable canary request); response ``{"bundle": path}``.
  ``500`` when no ``incident_dir`` is configured.

Admin operations never interleave: a drain/resume/reload arriving while
another lifecycle operation is in flight gets a deterministic ``409``
(``{"busy": true}``, :class:`~repro.serve.server.LifecycleBusy`) instead
of queueing behind it.

Load shedding and shutdown map to ``503`` (the standard back-pressure
status), malformed input to ``400`` (a wrong shape or an
:class:`~repro.serve.request.InvalidImage` also names the error class in
``"type"``), a timeout or missed deadline to
``504`` and any unexpected engine failure to ``500``.  A
:class:`~repro.serve.breaker.CircuitBreaker` sits ahead of ``/predict``:
once the recent error rate trips it, requests are fast-503'd without
touching the admission queue until half-open probes prove recovery.

A client that disconnects before reading its response used to make the
handler thread traceback to stderr (``BrokenPipeError`` out of
``wfile.write``); replies now swallow the disconnect and count it in
``serve.client_disconnects`` -- the client is gone, there is nobody to
tell.

The listener is a ``ThreadingHTTPServer`` running in a daemon thread:
each connection blocks in ``predict`` while the batcher coalesces it
with its neighbours, so concurrency comes from the client side exactly
as with in-process submission.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.serve.breaker import CircuitBreaker
from repro.serve.request import (
    DeadlineExceeded,
    InvalidImage,
    RequestShed,
    ServerClosed,
)
from repro.serve.server import CanaryError, LifecycleBusy
from repro.types import ReproError, ShapeError

__all__ = ["serve_http"]


def _make_handler(server, breaker: CircuitBreaker | None):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):  # noqa: D102 -- keep tests quiet
            pass

        def _reply(self, status: int, doc: dict) -> None:
            try:
                body = json.dumps(doc).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                # the client hung up before reading its answer; there is
                # nobody left to reply to and nothing to crash over
                server.metrics.inc("serve.client_disconnects")
                self.close_connection = True

        def _read_json(self) -> dict | None:
            try:
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b"{}"
                doc = json.loads(raw) if raw else {}
                if not isinstance(doc, dict):
                    raise ValueError("body must be a JSON object")
                return doc
            except (ValueError, TypeError) as err:
                self._reply(400, {"error": f"bad request body: {err}"})
                return None

        def do_GET(self) -> None:  # noqa: N802 -- http.server API
            if self.path == "/healthz":
                health = server.health()
                status = 200 if health["status"] != "down" else 503
                self._reply(status, health)
            elif self.path == "/metrics":
                self._reply(200, server.stats())
            else:
                self._reply(404, {"error": f"no such path {self.path}"})

        def do_POST(self) -> None:  # noqa: N802 -- http.server API
            if self.path == "/predict":
                self._predict()
            elif self.path == "/admin/drain":
                self._admin(lambda doc: server.drain(
                    timeout_s=float(doc.get("timeout_s", 30.0))
                ))
            elif self.path == "/admin/resume":
                self._admin(lambda doc: server.resume())
            elif self.path == "/admin/reload":
                self._admin(self._reload)
            elif self.path == "/admin/dump":
                self._admin(
                    lambda doc: {"bundle": server.dump_incident()}
                )
            else:
                self._reply(404, {"error": f"no such path {self.path}"})

        def _admin(self, op) -> None:
            doc = self._read_json()
            if doc is None:
                return
            try:
                self._reply(200, op(doc))
            except LifecycleBusy as err:
                # another lifecycle op is in flight: deterministic 409,
                # never queued behind it
                self._reply(409, {"error": str(err), "busy": True})
            except CanaryError as err:
                # rolled back: the old weights never stopped serving
                self._reply(409, {"error": str(err), "rolled_back": True})
            except ServerClosed as err:
                self._reply(503, {"error": str(err)})
            except (ReproError, ValueError, OSError) as err:
                self._reply(
                    500, {"error": f"{type(err).__name__}: {err}"}
                )

        @staticmethod
        def _reload(doc: dict) -> dict:
            path = doc.get("checkpoint")
            if not path:
                raise ValueError(
                    "reload body must carry {'checkpoint': '<path>'}"
                )
            return server.reload_checkpoint(path)

        def _deadline(self) -> float | None:
            """Absolute monotonic deadline from ``X-Deadline-Ms``, or
            ``None``; raises ``ValueError`` on garbage."""
            raw = self.headers.get("X-Deadline-Ms")
            if raw is None:
                return None
            ms = float(raw)
            if ms <= 0:
                raise ValueError(
                    f"X-Deadline-Ms must be positive, got {raw!r}"
                )
            return time.perf_counter() + ms / 1e3

        def _predict(self) -> None:
            doc = self._read_json()
            if doc is None:
                return
            try:
                deadline = self._deadline()
                x = doc["input"]  # admission types and checks it
            except (ValueError, KeyError) as err:
                self._reply(400, {"error": f"bad request body: {err}"})
                return
            if breaker is not None and not breaker.allow():
                self._reply(
                    503,
                    {"error": "circuit breaker open; request fast-failed"},
                )
                return
            try:
                if deadline is not None:
                    probs = server.predict(x, deadline=deadline)
                else:
                    probs = server.predict(x)
            except (ShapeError, InvalidImage) as err:
                # the request is malformed, not the server unhealthy --
                # a 4xx never feeds the breaker
                if breaker is not None:
                    breaker.release()
                self._reply(
                    400, {"error": str(err), "type": type(err).__name__}
                )
                return
            except (RequestShed, ServerClosed) as err:
                if breaker is not None:
                    breaker.record_failure()
                self._reply(503, {"error": str(err)})
                return
            except (DeadlineExceeded, TimeoutError) as err:
                if breaker is not None:
                    breaker.record_failure()
                self._reply(504, {"error": str(err)})
                return
            except Exception as err:  # noqa: BLE001 -- worker failures
                # arrive via req.result and can be any engine exception;
                # the client must still get an HTTP response
                if breaker is not None:
                    breaker.record_failure()
                self._reply(500, {"error": f"{type(err).__name__}: {err}"})
                return
            if breaker is not None:
                breaker.record_success()
            self._reply(
                200,
                {
                    "probs": [float(p) for p in probs],
                    "argmax": int(np.argmax(probs)),
                },
            )

    return Handler


def serve_http(
    server,
    host: str = "127.0.0.1",
    port: int = 0,
    breaker: CircuitBreaker | None = None,
):
    """Expose ``server`` over HTTP; returns the listening ``httpd``.

    ``port=0`` binds an ephemeral port -- read it back from
    ``httpd.server_address[1]``.  Stop with ``httpd.shutdown()``.
    ``breaker`` guards ``/predict`` (pass an armed
    :class:`CircuitBreaker`, or ``None`` for the default one); it is
    exposed as ``httpd.breaker`` for inspection.
    """
    if breaker is None:
        breaker = CircuitBreaker(metrics=server.metrics)
    httpd = ThreadingHTTPServer((host, port), _make_handler(server, breaker))
    httpd.daemon_threads = True
    httpd.breaker = breaker
    thread = threading.Thread(
        target=httpd.serve_forever, name="serve-http", daemon=True
    )
    thread.start()
    return httpd
