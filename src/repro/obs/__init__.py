"""repro.obs -- the unified observability layer.

A zero-dependency tracing + metrics subsystem threaded through the
library's hot paths:

* :class:`Tracer` (:mod:`repro.obs.tracer`) -- one process-wide bounded
  ring of :class:`Record`\\ s: wall-clock spans (``jit.codegen``,
  ``conv.dryrun``, ``stream.replay``, ``etg.task`` ...) and the
  structured events incident bundles freeze (``serve.admit``,
  ``serve.batch``, ``collective.hop``, ``fault.fire`` ...).  One setting
  with three states -- ``"off"`` (default), ``"events"`` (armed by an
  incident directory) and ``"spans"`` (:func:`enable`) -- and
  branch-cheap when off.  Training worker processes drain their rings
  into the root's.
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) -- named counters and
  gauges (kernels generated, cache hits/misses, stream conv calls, µops
  executed, img/s ...), thread-safe and mergeable across processes.
* exporters (:mod:`repro.obs.export`) -- ``chrome://tracing`` JSON and a
  flat aggregated JSON report.

The resilience machinery (:mod:`repro.resilience`) reports through the
same counters: ``resilience.faults_injected``, ``resilience.respawns``,
``resilience.degraded_steps``, ``resilience.skipped_steps`` and
``resilience.nan_grads_detected`` on the process-wide registry, plus
``serve.worker_restarts``, ``serve.worker_crashes`` and
``serve.tier_degraded`` on each
:class:`~repro.serve.server.InferenceServer`'s private registry.

So does the overlapped all-reduce (:mod:`repro.collective`):
``collective.steps`` / ``.buckets`` / ``.bytes`` / ``.hops`` count the
healthy gradient exchange, ``collective.syncs`` / ``.rebuilds`` /
``.aborts`` / ``.rootsteps`` / ``.stale_dropped`` /
``.errors.<kind>`` the repair machinery, and every worker observes
per-step ``collective.overlap_ms`` vs ``collective.exposed_ms``
distributions (communication hidden under backward vs paid after it)
with matching ``collective.step`` / ``collective.exposed`` spans --
all merged into the root registry/tracer after each step.

Quick start::

    from repro import obs

    obs.enable()                      # record spans (and events)
    ...  # build engines, train steps
    obs.dump_chrome_trace("trace.json")
    print(obs.flat_report()["counters"])

or from the shell::

    python -m repro profile resnet_mini --steps 2
"""

from repro.obs.export import (
    chrome_trace,
    dump_chrome_trace,
    dump_flat_json,
    flat_report,
)
from repro.obs.instrument import instrument_codegen
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import (
    CAPACITY,
    NULL_SPAN,
    Record,
    Tracer,
    disable,
    enable,
    get_tracer,
)

__all__ = [
    "Tracer",
    "Record",
    "CAPACITY",
    "get_tracer",
    "enable",
    "disable",
    "NULL_SPAN",
    "MetricsRegistry",
    "get_metrics",
    "chrome_trace",
    "dump_chrome_trace",
    "flat_report",
    "dump_flat_json",
    "instrument_codegen",
]
