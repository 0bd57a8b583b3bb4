"""One in-flight inference request.

A request is the unit the admission queue holds and the batcher
coalesces: one ``(C, H, W)`` image plus a completion event the worker
signals from its own thread.  The submitting thread blocks in
:meth:`InferenceRequest.result` -- the usual future shape, kept to the
handful of methods serving actually needs.

Deadlines are **absolute monotonic times** (``time.perf_counter``
values), not durations: a request carries the moment its submitter
stops caring, every stage of the pipeline (admission pop, batch build,
the worker's pre-replay check) compares against the same clock, and an
expired request is failed with :class:`DeadlineExceeded` instead of
occupying a batch slot for an answer nobody will read.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

from repro.types import ReproError

__all__ = [
    "DeadlineExceeded",
    "InferenceRequest",
    "InvalidImage",
    "RequestShed",
    "ServerClosed",
]


class RequestShed(ReproError):
    """Raised to the submitter when admission control rejects a request
    (queue at capacity, estimated queue wait over budget, or a tripped
    circuit breaker fast-failing)."""


class ServerClosed(ReproError):
    """Raised when a request is submitted to -- or still queued in -- a
    server that has been stopped or is draining."""


class DeadlineExceeded(ReproError):
    """Raised to the submitter when a request's deadline passed before a
    worker produced its answer (HTTP 504)."""


class InvalidImage(ReproError, ValueError):
    """Raised at admission for an image no answer can be trusted for:
    a ragged nesting, values that are not real numbers (object, string,
    complex arrays) or values that are not finite as float32 (NaN,
    +-inf, float64 values beyond float32's range).  A NaN would otherwise come back as plausible
    probabilities, since ReLU's ``x > 0`` mask turns it into 0.

    Doubles as a ``ValueError`` so callers validating user input can
    catch the standard type; HTTP answers it with 400."""


_ids = itertools.count()


class InferenceRequest:
    """A single image awaiting its probability vector.

    ``deadline`` is an absolute ``time.perf_counter()`` moment (``None``
    = wait forever).  It is advisory for the submitter but binding for
    the pipeline: admission and batching drop expired requests, and
    :meth:`result` converts a deadline overrun into
    :class:`DeadlineExceeded` on the caller's side too.
    """

    __slots__ = (
        "id", "x", "t_submit", "deadline",
        "_event", "_value", "_error", "_cancelled",
    )

    def __init__(self, x: np.ndarray, deadline: float | None = None):
        self.id = next(_ids)
        self.x = x
        #: submission wall-clock, for end-to-end latency accounting
        self.t_submit = time.perf_counter()
        #: absolute monotonic deadline (None = no deadline)
        self.deadline = deadline
        self._event = threading.Event()
        self._value: np.ndarray | None = None
        self._error: BaseException | None = None
        self._cancelled = False

    def _resolve(self, value: np.ndarray) -> None:
        self._value = value
        self._event.set()

    def _fail(self, err: BaseException) -> None:
        self._error = err
        self._event.set()

    def cancel(self) -> None:
        """Mark the request abandoned: its submitter stopped waiting, so
        workers may drop it from batches instead of computing a result
        nobody will read.  Best-effort -- a worker that already picked
        the request up still resolves it harmlessly."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def expired(self) -> bool:
        """True once the deadline has passed (always False without one)."""
        return (
            self.deadline is not None
            and time.perf_counter() > self.deadline
        )

    def remaining_s(self) -> float | None:
        """Seconds until the deadline (negative once expired); ``None``
        without a deadline."""
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until the worker resolves this request; re-raises any
        failure from the worker thread in the submitter's thread.

        The effective wait is the smaller of ``timeout`` and the time to
        the request's own deadline.  A timeout cancels the request so a
        still-queued entry does not occupy a batch slot under overload; a
        deadline overrun raises :class:`DeadlineExceeded` (matching what
        the pipeline would have failed it with).
        """
        wait = timeout
        remaining = self.remaining_s()
        if remaining is not None and (wait is None or remaining < wait):
            wait = max(0.0, remaining)
            if not self._event.wait(wait):
                self.cancel()
                raise DeadlineExceeded(
                    f"request {self.id} missed its deadline"
                )
        elif not self._event.wait(wait):
            self.cancel()
            raise TimeoutError(
                f"request {self.id} not completed within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._value
