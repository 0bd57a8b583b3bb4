"""repro.forensics -- incident bundles + deterministic replay.

Every other subsystem promises bitwise determinism; this package makes
failures *inherit* that promise.  The recent history comes from the
process-wide tracer's bounded ring (:mod:`repro.obs.tracer`): an
incident directory raises it to at least its ``"events"`` state --
admissions, batches, collective hops, tier degrades, fault firings,
checkpoint/reload lifecycle -- and training workers' rings drain into
the root's.  Two pieces:

* :class:`IncidentWriter` (:mod:`.bundle`) -- on every typed failure
  (:class:`~repro.resilience.WorkerFailure`,
  :class:`~repro.collective.CollectiveError`,
  :class:`~repro.serve.CanaryError`,
  :class:`~repro.resilience.DivergenceError`) or an explicit
  ``POST /admin/dump``, an atomic digest-verified bundle directory:
  config + fingerprints, the active fault plan, RNG/shuffle state, the
  tuning-DB digest, the failing tensors themselves and the tracer's
  ring as one event list.
* :func:`replay_incident` (:mod:`.replay`) -- reconstructs the
  engine/trainer from the bundle and re-executes the failing step or
  request, asserting bitwise identity with the recorded digests
  (``python -m repro incident {list,show,replay,diff}``).
"""

from repro.forensics.bundle import (
    BundleError,
    IncidentWriter,
    diff_incidents,
    list_incidents,
    load_incident,
    tensor_digest,
    write_incident,
)
from repro.forensics.replay import (
    ReplayMismatch,
    digest_tensor_list,
    replay_incident,
)

__all__ = [
    "IncidentWriter",
    "BundleError",
    "write_incident",
    "load_incident",
    "list_incidents",
    "diff_incidents",
    "tensor_digest",
    "digest_tensor_list",
    "ReplayMismatch",
    "replay_incident",
]
