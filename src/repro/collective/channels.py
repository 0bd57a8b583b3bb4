"""Peer channels: framed bucket messages + the per-rank connection hub.

Workers talk to each other over dedicated ``AF_UNIX`` sockets (one
full-duplex :class:`multiprocessing.connection.Connection` per ring
edge), *not* through the root pipes -- the root stays a coordinator.

Wire format of one hop (a tuple, sent with ``Connection.send``)::

    ("bkt", kind, step, epoch, bucket_id, sender, crc32, blob)

``kind`` is ``"red"`` (a partial sum travelling the reduce phase) or
``"avg"`` (the finished average travelling the broadcast phase).  The
``blob`` is the pickled list of gradient arrays; its CRC is computed
*before* any injected corruption, so a scribbled payload always fails
verification at the receiving rank (:class:`CorruptBucket`), blaming the
direct sender.

:class:`PeerHub` owns a rank's listening endpoint and rebuilds the peer
connections for every ring epoch (``rewire``): lower rank dials higher,
each dialer introduces itself with a ``("hello", rank, epoch)`` so a
straggler from an aborted epoch can never slip into the new mesh.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
import zlib
from multiprocessing.connection import Client, Listener

import numpy as np

from repro.collective.errors import CorruptBucket, RingBuildError

__all__ = ["MSG_TAG", "PeerHub", "decode_bucket", "send_bucket"]

MSG_TAG = "bkt"


def send_bucket(conn, kind, step, epoch, bucket_id, sender, arrays,
                corrupt=False) -> int:
    """Frame and send one hop; returns the payload size in bytes.

    ``corrupt=True`` scribbles the blob *after* the CRC is computed --
    the deterministic ``corrupt_message`` fault."""
    blob = pickle.dumps(list(arrays), protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(blob)
    if corrupt:
        scribbled = bytearray(blob)
        mid = len(scribbled) // 2
        scribbled[mid] ^= 0xFF
        blob = bytes(scribbled)
    conn.send((MSG_TAG, kind, step, epoch, bucket_id, sender, crc, blob))
    return len(blob)


def decode_bucket(msg, *, culprit: int | None = None):
    """Validate one hop's framing + checksum; returns
    ``(kind, step, epoch, bucket_id, sender, arrays)`` or raises a
    :class:`CorruptBucket` blaming ``culprit``."""
    if (
        not isinstance(msg, tuple)
        or len(msg) != 8
        or msg[0] != MSG_TAG
        or not all(isinstance(v, int) for v in msg[2:7])
        or not isinstance(msg[7], bytes)
    ):
        raise CorruptBucket(
            f"malformed hop frame from peer {culprit}", culprit=culprit
        )
    _, kind, step, epoch, bucket_id, sender, crc, blob = msg
    if zlib.crc32(blob) != crc:
        raise CorruptBucket(
            f"checksum mismatch on bucket {bucket_id} from peer {culprit}",
            culprit=culprit,
        )
    try:
        arrays = pickle.loads(blob)
    except Exception as err:  # pragma: no cover - crc catches this first
        raise CorruptBucket(
            f"undecodable bucket {bucket_id} from peer {culprit} ({err!r})",
            culprit=culprit,
        ) from err
    if not isinstance(arrays, list) or not all(
        isinstance(a, np.ndarray) for a in arrays
    ):
        raise CorruptBucket(
            f"bucket {bucket_id} payload is not a gradient list",
            culprit=culprit,
        )
    return kind, step, epoch, bucket_id, sender, arrays


class PeerHub:
    """One rank's listening endpoint + its current epoch's peer mesh."""

    def __init__(self, address: str, authkey: bytes):
        self.address = address
        self.authkey = authkey
        self._listener = Listener(
            address=address, family="AF_UNIX", backlog=16, authkey=authkey
        )
        # a timeout on the listening socket turns blocking accept() into
        # a pollable loop (deadline-guarded ring builds, clean shutdown)
        sock = getattr(
            getattr(self._listener, "_listener", None), "_socket", None
        )
        if sock is not None:
            sock.settimeout(0.2)
        self.conns: dict = {}

    # ------------------------------------------------------------------
    def rewire(self, rank: int, peers, addresses: dict, epoch: int,
               timeout: float) -> dict:
        """Tear down the old mesh and build this epoch's connections to
        ``peers``: accept dials from lower-ranked peers, dial higher.
        Returns ``{peer_rank: Connection}`` or raises
        :class:`RingBuildError`."""
        self.close_conns()
        deadline = time.monotonic() + timeout
        inbound = {p for p in peers if p < rank}
        outbound = sorted(p for p in peers if p > rank)
        got: dict = {}
        errs: list[str] = []
        acceptor = threading.Thread(
            target=self._accept_loop,
            args=(set(inbound), epoch, deadline, got, errs),
            daemon=True,
        )
        acceptor.start()
        try:
            for p in outbound:
                got[p] = self._dial(addresses[p], rank, epoch, deadline)
        except RingBuildError as err:
            errs.append(str(err))
        acceptor.join(timeout=max(0.0, deadline - time.monotonic()) + 1.0)
        if errs or set(got) != set(peers):
            for conn in got.values():
                try:
                    conn.close()
                except OSError:
                    pass
            missing = sorted(set(peers) - set(got))
            raise RingBuildError(
                f"epoch {epoch} mesh incomplete (missing {missing}; "
                f"{'; '.join(errs) or 'timed out'})"
            )
        self.conns = got
        return got

    def _accept_loop(self, expect, epoch, deadline, got, errs):
        while expect and time.monotonic() < deadline:
            try:
                conn = self._listener.accept()
            except socket.timeout:
                continue
            except Exception:
                # auth failure / half-open dial from a dead straggler
                continue
            try:
                if not conn.poll(max(0.0, deadline - time.monotonic())):
                    conn.close()
                    continue
                hello = conn.recv()
            except Exception:
                conn.close()
                continue
            if (
                isinstance(hello, tuple)
                and len(hello) == 3
                and hello[0] == "hello"
                and hello[2] == epoch
                and hello[1] in expect
            ):
                got[hello[1]] = conn
                expect.discard(hello[1])
            else:  # wrong epoch (straggler) or unexpected rank
                conn.close()
        if expect:
            errs.append(f"no hello from inbound peers {sorted(expect)}")

    def _dial(self, address, rank, epoch, deadline):
        while True:
            try:
                conn = Client(address, family="AF_UNIX", authkey=self.authkey)
                conn.send(("hello", rank, epoch))
                return conn
            except Exception as err:  # refused / absent / auth race
                if time.monotonic() >= deadline:
                    raise RingBuildError(
                        f"dial {address} timed out ({err!r})"
                    ) from err
                time.sleep(0.02)

    # ------------------------------------------------------------------
    def close_conns(self) -> None:
        for conn in self.conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self.conns = {}

    def close(self) -> None:
        self.close_conns()
        try:
            self._listener.close()
        except OSError:
            pass
