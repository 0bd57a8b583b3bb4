"""Kernel-stream serialization.

The dryrun phase "has to be performed only once during the setup of the CNN
layer" (section II-H); persisting the frozen streams lets a process skip
even that on restart -- the stream buffers are pure offset arrays, so they
round-trip losslessly through ``.npz``.
"""

from __future__ import annotations

import contextlib
import json
import zipfile
import zlib

import numpy as np

from repro.streams.stream import FrozenStream
from repro.types import ReproError

__all__ = [
    "save_streams",
    "load_streams",
    "streams_digest",
    "save_stream_bundle",
    "load_stream_bundle",
    "StaleArtifactError",
]


class StaleArtifactError(ReproError):
    """A persisted stream artifact is unusable -- unreadable, from a
    different format version, content-corrupted (digest mismatch), or
    recorded under a different configuration.  A dedicated subtype so
    callers (serve boot, warm cache) can catch-and-fallback to a cold
    dryrun without string matching."""

_FORMAT_VERSION = 1
_BUNDLE_VERSION = 1
_FIELDS = ("kinds", "i_off", "w_off", "o_off", "apply_op")


def save_streams(path_or_file, streams: list[FrozenStream], meta: dict | None = None) -> None:
    """Persist per-thread frozen streams (and optional layer metadata)."""
    payload = {"__meta__": np.frombuffer(
        json.dumps({"version": _FORMAT_VERSION, "threads": len(streams),
                    **(meta or {})}).encode(), dtype=np.uint8
    )}
    for i, s in enumerate(streams):
        payload[f"kinds_{i}"] = s.kinds
        payload[f"i_off_{i}"] = s.i_off
        payload[f"w_off_{i}"] = s.w_off
        payload[f"o_off_{i}"] = s.o_off
        payload[f"apply_op_{i}"] = s.apply_op
    np.savez_compressed(path_or_file, **payload)


@contextlib.contextmanager
def _unusable_is_stale(what: str):
    """Raise :class:`StaleArtifactError` for every way a stream artifact
    can fail to load inside the block -- an empty, truncated or garbled
    file, missing metadata or arrays -- and let a missing path stay
    :class:`FileNotFoundError` (a caller error, not a stale artifact)."""
    try:
        yield
    except (FileNotFoundError, StaleArtifactError):
        raise
    except (zipfile.BadZipFile, zlib.error, ValueError, EOFError, OSError,
            KeyError, UnicodeDecodeError) as err:
        raise StaleArtifactError(f"unreadable {what}: {err}") from err


def _read_meta(z, what: str) -> dict:
    """The ``__meta__`` document of an opened artifact."""
    try:
        return json.loads(bytes(z["__meta__"]).decode())
    except (KeyError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise StaleArtifactError(
            f"not a {what} (bad __meta__): {err}"
        ) from err


def load_streams(path_or_file) -> tuple[list[FrozenStream], dict]:
    """Load streams saved by :func:`save_streams`; returns (streams, meta).

    An unusable file -- unreadable, truncated, garbled, without its
    metadata or arrays, or of another format version -- raises
    :class:`StaleArtifactError`, as :func:`load_stream_bundle` does; a
    missing path raises :class:`FileNotFoundError`."""
    with _unusable_is_stale("stream file"), np.load(path_or_file) as z:
        meta = _read_meta(z, "stream file")
        if meta.get("version") != _FORMAT_VERSION:
            raise StaleArtifactError(
                f"unsupported stream file version {meta.get('version')}"
            )
        streams = [
            FrozenStream(**{field: z[f"{field}_{i}"] for field in _FIELDS})
            for i in range(meta["threads"])
        ]
    return streams, meta


def save_stream_bundle(
    path_or_file,
    bundle: dict[str, list[FrozenStream]],
    meta: dict | None = None,
) -> None:
    """Persist many named stream sets (e.g. one per conv node per batch
    bucket) into a single ``.npz`` -- the serve warm-start artifact.

    Every entry's :func:`streams_digest` is stored alongside it and
    re-verified by :func:`load_stream_bundle`, so a stale or corrupted
    artifact fails loudly at boot instead of replaying garbage offsets.
    """
    entries = {}
    payload = {}
    for name, streams in bundle.items():
        if "::" in name:
            raise ReproError(f"bundle entry name {name!r} contains '::'")
        entries[name] = {
            "threads": len(streams),
            "digest": streams_digest(streams),
        }
        for i, s in enumerate(streams):
            for field in _FIELDS:
                payload[f"{name}::{field}_{i}"] = getattr(s, field)
    doc = {
        "bundle_version": _BUNDLE_VERSION,
        "entries": entries,
        **(meta or {}),
    }
    payload["__meta__"] = np.frombuffer(
        json.dumps(doc).encode(), dtype=np.uint8
    )
    np.savez_compressed(path_or_file, **payload)


def load_stream_bundle(path_or_file) -> tuple[dict[str, list[FrozenStream]], dict]:
    """Load a bundle saved by :func:`save_stream_bundle`.

    Returns ``(bundle, meta)``; every entry's content digest is verified
    against the digest recorded at save time.  Every way an artifact can
    be unusable -- unreadable/truncated file, missing or garbled
    metadata, version mismatch, digest mismatch -- raises
    :class:`StaleArtifactError`, so callers can fall back to a cold
    dryrun with one ``except`` clause.
    """
    with _unusable_is_stale("stream bundle"), np.load(path_or_file) as z:
        meta = _read_meta(z, "stream bundle")
        if meta.get("bundle_version") != _BUNDLE_VERSION:
            raise StaleArtifactError(
                f"unsupported stream bundle version "
                f"{meta.get('bundle_version')}"
            )
        bundle: dict[str, list[FrozenStream]] = {}
        try:
            items = list(meta["entries"].items())
        except (KeyError, AttributeError) as err:
            raise StaleArtifactError(
                f"stream bundle metadata lacks entries: {err}"
            ) from err
        for name, entry in items:
            try:
                streams = [
                    FrozenStream(
                        **{
                            field: z[f"{name}::{field}_{i}"]
                            for field in _FIELDS
                        }
                    )
                    for i in range(entry["threads"])
                ]
            except KeyError as err:
                raise StaleArtifactError(
                    f"stream bundle entry {name!r} is incomplete: "
                    f"missing array {err}"
                ) from err
            digest = streams_digest(streams)
            if digest != entry["digest"]:
                raise StaleArtifactError(
                    f"stream bundle entry {name!r} digest mismatch "
                    f"({digest} != {entry['digest']}); artifact is "
                    f"stale or corrupted"
                )
            bundle[name] = streams
    return bundle, meta


def streams_digest(streams: list[FrozenStream]) -> str:
    """Stable content digest, for cache-key/consistency checks."""
    import hashlib

    h = hashlib.sha256()
    for s in streams:
        for arr in (s.kinds, s.i_off, s.w_off, s.o_off, s.apply_op):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]
