"""The persistent tuning database.

Winning, interpreter-validated candidates are stored in an atomic JSON
artifact keyed by ``(machine fingerprint, dtype, layer shape)`` -- the
minibatch is deliberately *not* part of the key because a blocking plan
is N-independent (the N loop sits outside everything the plan decides).

File format (``repro.tune/v1``)::

    {
      "format":  "repro.tune/v1",
      "version": 1,
      "digest":  "<sha256 over the canonical entries json>",
      "entries": {
        "<machine-fp>/<dtype>/<layer-key>": {
          "rb_p": 2, "rb_q": 14, ... , "prefetch": "both",
          "cycles": ..., "heuristic_cycles": ..., "validated": true
        }
      }
    }

Writes go through a same-directory temp file + ``os.replace`` (atomic on
POSIX), the pattern the checkpoint writer uses.  Loads verify the
digest; a corrupt, truncated or foreign-format file raises
:class:`TuningDBError`, which every consumer (``make_engine``, the
serve config's fingerprint) catches by name and turns into the
heuristics, not a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass

from repro.arch.machine import MachineConfig
from repro.conv.blocking import BlockingPlan
from repro.conv.params import ConvParams
from repro.types import DType, ReproError

__all__ = [
    "TuningDBError",
    "TuneEntry",
    "TuningDatabase",
    "layer_key",
    "entry_key",
    "get_default_db",
    "set_default_db",
    "resolve_db",
]

FORMAT = "repro.tune/v1"
VERSION = 1

_PLAN_FIELDS = (
    "vlen", "rb_p", "rb_q", "rb_p_rem", "rb_q_rem",
    "loop_order", "hoist_output", "oj_block", "acc_regs",
)


class TuningDBError(ReproError):
    """The tuning database is unusable -- unreadable, corrupt (digest
    mismatch), truncated, or from a different format version.  Typed so
    catch-and-fallback paths degrade to the paper heuristics without
    string matching."""


def layer_key(p: ConvParams) -> str:
    """Shape key of one layer, minibatch-independent."""
    return (
        f"C{p.C}K{p.K}H{p.H}W{p.W}R{p.R}S{p.S}"
        f"st{p.stride}ph{p.pad_h}pw{p.pad_w}"
    )


def entry_key(p: ConvParams, machine: MachineConfig, dtype: DType) -> str:
    return f"{machine.fingerprint()}/{dtype.value}/{layer_key(p)}"


@dataclass(frozen=True, slots=True)
class TuneEntry:
    """One stored winner: the plan plus its provenance."""

    vlen: int
    rb_p: int
    rb_q: int
    rb_p_rem: int
    rb_q_rem: int
    loop_order: str
    hoist_output: bool
    oj_block: int
    acc_regs: int
    prefetch: str
    cycles: float  # modeled cycles of the tuned candidate
    heuristic_cycles: float  # modeled cycles of the paper heuristic
    validated: bool  # bit-exact vs the interpreter (always True in a DB)

    def plan(self) -> BlockingPlan:
        return BlockingPlan(**{f: getattr(self, f) for f in _PLAN_FIELDS})

    @property
    def speedup(self) -> float:
        """Modeled heuristic/tuned ratio (>= 1.0 means the tuner won)."""
        return self.heuristic_cycles / self.cycles if self.cycles else 1.0

    def to_doc(self) -> dict:
        return {
            **{f: getattr(self, f) for f in _PLAN_FIELDS},
            "prefetch": self.prefetch,
            "cycles": self.cycles,
            "heuristic_cycles": self.heuristic_cycles,
            "validated": self.validated,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TuneEntry":
        try:
            return cls(
                **{f: doc[f] for f in _PLAN_FIELDS},
                prefetch=doc["prefetch"],
                cycles=doc["cycles"],
                heuristic_cycles=doc["heuristic_cycles"],
                validated=doc["validated"],
            )
        except (KeyError, TypeError) as exc:
            raise TuningDBError(f"malformed tuning-db entry: {exc}") from exc


def _entries_digest(entries: dict[str, dict]) -> str:
    canon = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class TuningDatabase:
    """In-memory view of one tuning-DB artifact, with atomic persistence."""

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._entries: dict[str, dict] = {}
        self._lock = threading.Lock()

    # -- persistence ---------------------------------------------------
    @classmethod
    def load(cls, path: str | os.PathLike) -> "TuningDatabase":
        """Load and digest-verify an artifact.

        Raises :class:`FileNotFoundError` when there is no file (callers
        distinguish "never tuned" from "tuned but rotten") and
        :class:`TuningDBError` for anything unusable.
        """
        path = os.fspath(path)
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            doc = json.loads(raw)
        except (ValueError, UnicodeDecodeError) as exc:
            raise TuningDBError(
                f"tuning db {path!r} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(doc, dict) or doc.get("format") != FORMAT:
            raise TuningDBError(
                f"tuning db {path!r}: unknown format "
                f"{doc.get('format') if isinstance(doc, dict) else type(doc)}"
            )
        if doc.get("version") != VERSION:
            raise TuningDBError(
                f"tuning db {path!r}: version {doc.get('version')} != "
                f"{VERSION}"
            )
        entries = doc.get("entries")
        if not isinstance(entries, dict):
            raise TuningDBError(f"tuning db {path!r}: missing entries table")
        digest = _entries_digest(entries)
        if doc.get("digest") != digest:
            raise TuningDBError(
                f"tuning db {path!r}: content digest mismatch "
                f"(stored {doc.get('digest')!r})"
            )
        db = cls(path)
        # validate eagerly so a malformed entry fails at load, not lookup
        for key, entry in entries.items():
            TuneEntry.from_doc(entry)
            db._entries[key] = dict(entry)
        return db

    def save(self, path: str | os.PathLike | None = None) -> str:
        """Atomically persist: temp sibling + ``os.replace``."""
        path = os.fspath(path) if path is not None else self.path
        if path is None:
            raise TuningDBError("tuning db has no path to save to")
        with self._lock:
            entries = {k: dict(v) for k, v in sorted(self._entries.items())}
        doc = {
            "format": FORMAT,
            "version": VERSION,
            "digest": _entries_digest(entries),
            "entries": entries,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.path = path
        return path

    # -- content -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def digest(self) -> str:
        """Content digest -- folded into serve fingerprints, which
        incident bundles carry, so a replay can tell the tuned plans
        its engine was built under."""
        with self._lock:
            entries = {k: dict(v) for k, v in sorted(self._entries.items())}
        return _entries_digest(entries)

    def lookup(
        self, p: ConvParams, machine: MachineConfig, dtype: DType
    ) -> TuneEntry | None:
        doc = self._entries.get(entry_key(p, machine, dtype))
        return TuneEntry.from_doc(doc) if doc is not None else None

    def record(
        self,
        p: ConvParams,
        machine: MachineConfig,
        dtype: DType,
        entry: TuneEntry,
    ) -> str:
        """Store one winner.  Refuses unvalidated entries: nothing enters
        the database without the bit-exact interpreter check."""
        if not entry.validated:
            raise TuningDBError(
                "refusing to record an unvalidated tuning entry for "
                f"{p.describe()}"
            )
        key = entry_key(p, machine, dtype)
        with self._lock:
            self._entries[key] = entry.to_doc()
        return key


# -- process-wide default + resolution ---------------------------------
_default_db: TuningDatabase | None = None
_load_cache: dict[str, tuple[int, int, TuningDatabase]] = {}
_resolve_lock = threading.Lock()


def get_default_db() -> TuningDatabase | None:
    return _default_db


def set_default_db(
    db: TuningDatabase | str | os.PathLike | None,
) -> TuningDatabase | None:
    """Install the process-wide database ``make_engine(tuned=True)`` uses.

    Accepts an instance, a path (loaded now -- load errors propagate so
    misconfiguration is loud at setup time), or ``None`` to clear.
    Returns the installed instance.
    """
    global _default_db
    if db is None or isinstance(db, TuningDatabase):
        _default_db = db
    else:
        _default_db = TuningDatabase.load(db)
    return _default_db


def resolve_db(tuned) -> TuningDatabase | None:
    """Resolve a ``make_engine``-style ``tuned`` argument to a database.

    ``True`` -> the process default (may be ``None``); a
    :class:`TuningDatabase` -> itself; a path -> loaded, with an mtime/
    size-keyed cache so hot paths (serve boot over many buckets) parse
    the artifact once.  Raises :class:`FileNotFoundError` /
    :class:`TuningDBError` for missing/corrupt paths -- callers decide
    whether that falls back or aborts.
    """
    if tuned is None or tuned is False:
        return None
    if tuned is True:
        return _default_db
    if isinstance(tuned, TuningDatabase):
        return tuned
    path = os.fspath(tuned)
    st = os.stat(path)  # FileNotFoundError propagates
    with _resolve_lock:
        hit = _load_cache.get(path)
        if hit is not None and hit[0] == st.st_mtime_ns and hit[1] == st.st_size:
            return hit[2]
    db = TuningDatabase.load(path)
    with _resolve_lock:
        _load_cache[path] = (st.st_mtime_ns, st.st_size, db)
    return db
