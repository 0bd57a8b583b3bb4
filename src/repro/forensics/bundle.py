"""Incident bundles: atomic, digest-verified failure captures.

When a typed failure fires (:class:`~repro.resilience.WorkerFailure`,
:class:`~repro.collective.CollectiveError`,
:class:`~repro.serve.CanaryError`,
:class:`~repro.resilience.DivergenceError`) -- or an operator hits
``POST /admin/dump`` -- the :class:`IncidentWriter` freezes everything a
later ``python -m repro incident replay`` needs into one directory:

* ``manifest.json`` -- bundle version + incident kind, the error's type
  and message, the config document + its fingerprint,
  ``MachineConfig.fingerprint()``, the active
  :class:`~repro.resilience.FaultPlan`, RNG/shuffle-stream state, the
  tuning-DB digest, a *replay document* describing how to re-execute
  the failing step/request, per-tensor content digests and a sha256 per
  bundle file;
* ``tensors.npz`` -- the small failing payload itself (the micro-batch
  or gradient-shard inputs, step-start weights, ...);
* ``events.json`` -- the process-wide tracer's ring (with every
  training worker's ring drained into it) as one list of records.

Writes are atomic the same way checkpoints are: everything lands in a
``.tmp~<pid>`` sibling directory first, then one ``os.replace`` renames
it under its final ``incident_<kind>_<pid>_<n>`` name, so a crash
mid-capture can never leave a half-written bundle that parses.  Loads
re-verify every file hash and every tensor digest before anything is
trusted (:func:`load_incident`), so a tampered or bit-rotted bundle is
rejected with a typed :class:`BundleError` rather than replayed wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict

import numpy as np

from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.types import ReproError

__all__ = [
    "BundleError",
    "IncidentWriter",
    "tensor_digest",
    "write_incident",
    "load_incident",
    "list_incidents",
    "diff_incidents",
]

_BUNDLE_VERSION = 1
_MANIFEST = "manifest.json"
_TENSORS = "tensors.npz"
_EVENTS = "events.json"


class BundleError(ReproError):
    """An incident bundle is unreadable, incomplete or fails digest
    verification -- it must not be replayed."""


def tensor_digest(a: np.ndarray) -> str:
    """Content digest of one array (dtype + shape + bytes, 16 hex chars
    -- the same truncation checkpoints use)."""
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def _plan_doc(plan) -> dict | None:
    if plan is None:
        return None
    return {"seed": plan.seed, "specs": [asdict(s) for s in plan.specs]}


def _one_event_list(doc) -> list[dict]:
    """``events.json`` as one list of records.  Older bundles hold two
    lists: ``ring`` (events, named ``kind``, with no duration or thread)
    and ``spans``."""
    if isinstance(doc, list):
        return doc
    events = [
        {"name": e["kind"], "ts_us": e["ts_us"], "dur_us": 0.0,
         "pid": e["pid"], "tid": None, "args": e["args"]}
        for e in doc.get("ring", [])
    ]
    for s in doc.get("spans", []):
        events.append({k: s[k] for k in
                       ("name", "ts_us", "dur_us", "pid", "tid", "args")})
    return events


def write_incident(
    root: str,
    *,
    kind: str,
    error: BaseException | None = None,
    replay: dict | None = None,
    config: dict | None = None,
    config_fingerprint: str | None = None,
    machine_fingerprint: str | None = None,
    fault_plan=None,
    rng_state: dict | None = None,
    tune_db_digest: str | None = None,
    tensors: dict[str, np.ndarray] | None = None,
    expect: dict[str, str] | None = None,
    extra: dict | None = None,
    events=None,
) -> str:
    """Write one incident bundle under ``root``; returns its path.

    ``tensors`` are the arrays stored in ``tensors.npz`` (digested
    individually into the manifest); ``expect`` maps names to digests
    the replay must reproduce bitwise (e.g. the recomputed gradient
    digests).  ``events`` defaults to the process-wide tracer's ring at
    call time.
    """
    os.makedirs(root, exist_ok=True)
    if events is None:
        events = get_tracer().events()
    tensors = dict(tensors or {})

    manifest = {
        "version": _BUNDLE_VERSION,
        "kind": kind,
        "error": None if error is None else {
            "type": type(error).__name__,
            "message": str(error),
        },
        "replay": replay,
        "config": config,
        "config_fingerprint": config_fingerprint,
        "machine_fingerprint": machine_fingerprint,
        "fault_plan": _plan_doc(fault_plan),
        "rng_state": rng_state,
        "tune_db_digest": tune_db_digest,
        "tensor_digests": {k: tensor_digest(v) for k, v in tensors.items()},
        "expect": dict(expect or {}),
        "extra": dict(extra or {}),
        "pid": os.getpid(),
    }

    tmp = os.path.join(root, f".incident.tmp~{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        if tensors:
            with open(os.path.join(tmp, _TENSORS), "wb") as fh:
                np.savez_compressed(fh, **tensors)
        with open(os.path.join(tmp, _EVENTS), "w") as fh:
            # default=str: span args may hold any object
            json.dump([r.to_doc() for r in events], fh, default=str)
        manifest["files"] = {
            name: _file_digest(os.path.join(tmp, name))
            for name in sorted(os.listdir(tmp))
        }
        with open(os.path.join(tmp, _MANIFEST), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        # claim the first free incident_<kind>_<pid>_<n> name; replacing
        # onto an existing non-empty bundle fails, so concurrent writers
        # can never clobber each other's capture
        n = 0
        while True:
            final = os.path.join(
                root, f"incident_{kind}_{os.getpid()}_{n:04d}"
            )
            if not os.path.exists(final):
                try:
                    os.replace(tmp, final)
                    break
                except OSError:
                    pass
            n += 1
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    get_metrics().inc("forensics.bundles_written")
    return final


def load_incident(path: str, verify: bool = True) -> dict:
    """Read a bundle back: ``{"path", "manifest", "tensors", "events"}``
    (``events`` is one list of record dicts, oldest first).

    With ``verify`` (the default) every per-file sha256 and every
    per-tensor digest recorded in the manifest is recomputed; any
    mismatch raises :class:`BundleError` before content is returned.
    """
    mpath = os.path.join(path, _MANIFEST)
    try:
        with open(mpath) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise BundleError(f"not an incident bundle (no manifest): {path}")
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as err:
        raise BundleError(f"unreadable bundle manifest {mpath}: {err}")
    if manifest.get("version") != _BUNDLE_VERSION:
        raise BundleError(
            f"unsupported bundle version {manifest.get('version')}"
        )
    if verify:
        for name, want in manifest.get("files", {}).items():
            fpath = os.path.join(path, name)
            if not os.path.exists(fpath):
                raise BundleError(f"bundle file missing: {name}")
            got = _file_digest(fpath)
            if got != want:
                raise BundleError(
                    f"bundle file {name} digest mismatch "
                    f"({got} != {want}): tampered or corrupt"
                )
    tensors: dict[str, np.ndarray] = {}
    tpath = os.path.join(path, _TENSORS)
    if os.path.exists(tpath):
        try:
            with np.load(tpath, allow_pickle=False) as z:
                tensors = {k: z[k] for k in z.files}
        except Exception as err:
            raise BundleError(f"unreadable bundle tensors: {err}")
    if verify:
        want_t = manifest.get("tensor_digests", {})
        if set(want_t) != set(tensors):
            raise BundleError(
                f"bundle tensors do not match manifest: "
                f"{sorted(set(want_t) ^ set(tensors))}"
            )
        for k, want in want_t.items():
            got = tensor_digest(tensors[k])
            if got != want:
                raise BundleError(
                    f"tensor {k} digest mismatch ({got} != {want})"
                )
    events: list[dict] = []
    epath = os.path.join(path, _EVENTS)
    if os.path.exists(epath):
        with open(epath) as fh:
            events = _one_event_list(json.load(fh))
    return {
        "path": path, "manifest": manifest,
        "tensors": tensors, "events": events,
    }


def list_incidents(root: str) -> list[dict]:
    """Summaries of every bundle under ``root`` (name-sorted): name,
    kind, error type/message, tensor names, whether it verifies."""
    out = []
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        if not name.startswith("incident_"):
            continue
        path = os.path.join(root, name)
        if not os.path.isdir(path):
            continue
        row = {"name": name, "path": path, "valid": True}
        try:
            doc = load_incident(path)
            m = doc["manifest"]
            row["kind"] = m.get("kind")
            err = m.get("error") or {}
            row["error"] = err.get("type")
            row["message"] = err.get("message")
            row["tensors"] = sorted(doc["tensors"])
        except BundleError as err:
            row["valid"] = False
            row["error"] = f"invalid: {err}"
        out.append(row)
    return out


def diff_incidents(path_a: str, path_b: str) -> dict:
    """Field-by-field comparison of two bundles: which manifest scalars
    differ, which tensor digests differ, which tensors only one side
    has.  Empty ``differs``/``tensor_diffs`` means same incident."""
    a = load_incident(path_a)["manifest"]
    b = load_incident(path_b)["manifest"]
    fields = (
        "kind", "error", "replay", "config", "config_fingerprint",
        "machine_fingerprint", "fault_plan", "rng_state",
        "tune_db_digest", "expect",
    )
    differs = {
        f: {"a": a.get(f), "b": b.get(f)}
        for f in fields if a.get(f) != b.get(f)
    }
    da, db = a.get("tensor_digests", {}), b.get("tensor_digests", {})
    tensor_diffs = {
        k: {"a": da.get(k), "b": db.get(k)}
        for k in sorted(set(da) | set(db)) if da.get(k) != db.get(k)
    }
    return {"differs": differs, "tensor_diffs": tensor_diffs,
            "same": not differs and not tensor_diffs}


class IncidentWriter:
    """The per-system capture hook: one instance per server/trainer,
    pointed at an incident directory.

    ``capture`` never lets a capture failure mask the original error --
    it returns the bundle path or ``None``, counting failures into
    ``forensics.bundle_errors``.  ``strict=True`` (tests) re-raises.
    """

    def __init__(self, root: str | None, strict: bool = False):
        self.root = root
        self.strict = strict
        #: paths written by this writer, in order (tests assert on this)
        self.written: list[str] = []

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def capture(self, kind: str, error=None, **sections) -> str | None:
        if self.root is None:
            return None
        try:
            path = write_incident(
                self.root, kind=kind, error=error, **sections
            )
        except BaseException:
            if self.strict:
                raise
            get_metrics().inc("forensics.bundle_errors")
            return None
        self.written.append(path)
        return path
