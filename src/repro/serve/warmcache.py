"""Per-bucket frozen-stream warm cache.

The blocked engine's dryrun is the expensive part of boot (section II-H:
it "has to be performed only once during the setup of the CNN layer").
The cache keeps each bucket's recorded streams -- one entry per conv
node -- and round-trips them through the :mod:`repro.streams.serialize`
bundle format, so a restarted server rebuilds every engine by replaying
saved offsets instead of re-running any dryrun.

Entries are keyed ``(bucket, node_name)`` and carry content digests;
:meth:`load` refuses an artifact whose config fingerprint differs from
the server's (different model/shape/blocking => different streams).
Artifacts saved by older releases may carry extra metadata keys (such as
``replay_meta``); loading ignores them.
"""

from __future__ import annotations

from repro.streams.serialize import (
    StaleArtifactError,
    load_stream_bundle,
    save_stream_bundle,
    streams_digest,
)

__all__ = ["StreamWarmCache"]


class StreamWarmCache:
    """bucket -> {conv node name -> per-thread FrozenStream list}."""

    def __init__(self, fingerprint: str):
        #: the owning config's fingerprint; artifacts must match it
        self.fingerprint = fingerprint
        self._by_bucket: dict[int, dict[str, list]] = {}

    def __contains__(self, bucket: int) -> bool:
        return bucket in self._by_bucket

    @property
    def buckets(self) -> list[int]:
        return sorted(self._by_bucket)

    def get(self, bucket: int) -> dict[str, list] | None:
        return self._by_bucket.get(bucket)

    def put(self, bucket: int, streams_by_node: dict[str, list]) -> None:
        self._by_bucket[int(bucket)] = dict(streams_by_node)

    def clear(self) -> None:
        """Invalidate every entry (hot reload rebuilds the cache from
        the freshly swapped replicas so saved artifacts always describe
        the engines actually serving)."""
        self._by_bucket.clear()

    def digests(self) -> dict[str, str]:
        """Content digest per ``bucket/node`` entry (the cache key the
        serve stats expose)."""
        return {
            f"{bucket}/{node}": streams_digest(streams)
            for bucket, by_node in sorted(self._by_bucket.items())
            for node, streams in sorted(by_node.items())
        }

    # ------------------------------------------------------------------
    def save(self, path_or_file) -> int:
        """Persist every cached bucket as one ``.npz`` artifact; returns
        the number of entries written."""
        bundle = {
            f"{bucket}/{node}": streams
            for bucket, by_node in self._by_bucket.items()
            for node, streams in by_node.items()
        }
        save_stream_bundle(
            path_or_file,
            bundle,
            meta={
                "kind": "serve_warm_streams",
                "fingerprint": self.fingerprint,
                "buckets": sorted(self._by_bucket),
            },
        )
        return len(bundle)

    def load(self, path_or_file) -> list[int]:
        """Populate the cache from a saved artifact; returns the bucket
        list it contained.  Refuses an artifact recorded under a
        different configuration."""
        bundle, meta = load_stream_bundle(path_or_file)
        if meta.get("fingerprint") != self.fingerprint:
            raise StaleArtifactError(
                "stream artifact was recorded for a different serve "
                f"config (fingerprint {meta.get('fingerprint')} != "
                f"{self.fingerprint})"
            )
        for key, streams in bundle.items():
            bucket_s, _, node = key.partition("/")
            self._by_bucket.setdefault(int(bucket_s), {})[node] = streams
        return self.buckets
