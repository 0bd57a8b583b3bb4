"""Weight + training-state checkpointing.

The artifact appendix lists "dumped weights in case of full topology
training which can be used for inference tasks afterwards" among GxM's
outputs.  ``save_checkpoint``/``load_checkpoint`` round-trip every
trainable parameter plus BatchNorm running statistics through a single
``.npz`` keyed by node name.

Crash safety: every on-disk write goes through an atomic
tmp-sibling-then-``os.replace`` rename, so a process killed mid-save can
never leave a half-written file under the checkpoint's name.  The
``checkpoint.save`` fault site (kind ``crash``) fires in exactly that
torn-write window -- after the tmp sibling is fully written, before the
rename -- so tests can prove the last good checkpoint survives a
mid-save death and a subsequent resume falls back to it.  Every
checkpoint embeds a content digest that is re-verified on load, and
every way a file can be unusable (truncated zip, missing ``__meta__``,
version mismatch, bit corruption) raises a descriptive
:class:`~repro.types.ReproError` instead of a raw ``zipfile``/``KeyError``
traceback.

``save_training_checkpoint``/``load_training_checkpoint`` extend the
weight checkpoint with everything an *exact-to-the-step* resume needs:
the SGD velocity buffers, the step counter, the recorded loss/accuracy
trajectory and an opaque RNG-state document (see
:class:`TrainingCheckpoint`).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.obs.tracer import get_tracer
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.nodes import ConvNode, _LayerNode
from repro.layers.bn import BatchNorm2D
from repro.layers.fc import Linear
from repro.types import ReproError

__all__ = [
    "CheckpointNotFoundError",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "TrainingCheckpoint",
    "save_training_checkpoint",
    "load_training_checkpoint",
]

_VERSION = 1
_TRAIN_VERSION = 1


class CheckpointNotFoundError(ReproError, FileNotFoundError):
    """No checkpoint at the path; also a ``FileNotFoundError``, so
    callers that catch that keep working."""


def _state_dict(etg: ExecutionTaskGraph) -> dict[str, np.ndarray]:
    state: dict[str, np.ndarray] = {}
    for name, node in etg.nodes.items():
        if isinstance(node, ConvNode):
            state[f"{name}/weight"] = node.weight
        elif isinstance(node, _LayerNode) and isinstance(node.layer, Linear):
            state[f"{name}/weight"] = node.layer.weight
            state[f"{name}/bias"] = node.layer.bias
        elif isinstance(node, _LayerNode) and isinstance(node.layer, BatchNorm2D):
            bn = node.layer
            state[f"{name}/gamma"] = bn.gamma
            state[f"{name}/beta"] = bn.beta
            state[f"{name}/running_mean"] = bn.running_mean
            state[f"{name}/running_var"] = bn.running_var
    return state


def _digest(arrays: dict[str, np.ndarray]) -> str:
    """Content digest over every array in sorted key order."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        h.update(key.encode())
        h.update(np.ascontiguousarray(arrays[key]).tobytes())
    return h.hexdigest()[:16]


def _atomic_savez(path_or_file, payload: dict, injector=None) -> None:
    """``np.savez_compressed`` through a tmp sibling + ``os.replace`` so
    a crash mid-write never truncates an existing checkpoint (file
    objects are written directly -- the caller owns their atomicity).

    ``injector`` arms the ``checkpoint.save`` fault site: a ``crash``
    fires in the torn-write window between the completed tmp write and
    the rename, raising :class:`~repro.resilience.InjectedFault` -- the
    tmp sibling is unlinked and the file under ``path`` (the last good
    checkpoint) is never touched.
    """
    if hasattr(path_or_file, "write"):
        np.savez_compressed(path_or_file, **payload)
        return
    path = os.fspath(path_or_file)
    tmp = f"{path}.tmp~{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)
        if injector is not None:
            fault = injector.fire("checkpoint.save")
            if fault is not None and fault.kind == "crash":
                from repro.resilience.faults import InjectedFault

                raise InjectedFault(
                    f"injected crash between tmp write and replace of "
                    f"{path}"
                )
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _checkpoint_file:
    """Context manager: ``np.load`` with every corruption mode mapped to
    a clear :class:`ReproError`."""

    def __init__(self, path_or_file, what: str = "checkpoint"):
        self.path_or_file = path_or_file
        self.what = what
        self._z = None

    def __enter__(self):
        try:
            self._z = np.load(self.path_or_file, allow_pickle=False)
            if "__meta__" not in self._z:
                raise ReproError(
                    f"not a repro {self.what}: file has no __meta__ entry"
                )
            meta = json.loads(bytes(self._z["__meta__"]).decode())
        except FileNotFoundError as err:
            raise CheckpointNotFoundError(
                err.errno, f"no {self.what} at {self.path_or_file!r}",
                err.filename,
            ) from err
        except ReproError:
            self._close()
            raise
        except (zipfile.BadZipFile, zlib.error, ValueError, EOFError,
                KeyError, UnicodeDecodeError, json.JSONDecodeError,
                OSError) as err:
            self._close()
            raise ReproError(
                f"unreadable {self.what} (truncated or corrupted): {err}"
            ) from err
        return self._z, meta

    def __exit__(self, exc_type, exc, tb):
        self._close()
        # a truncated member can surface only once its bytes are read;
        # map those late zip/zlib failures to ReproError too
        if exc_type is not None and issubclass(
            exc_type, (zipfile.BadZipFile, zlib.error, EOFError, KeyError)
        ):
            raise ReproError(
                f"unreadable {self.what} (truncated or corrupted): {exc}"
            ) from exc

    def _close(self) -> None:
        if self._z is not None:
            self._z.close()
            self._z = None


def _record_ck(event: str, path_or_file, digest: str | None) -> None:
    """Checkpoint lifecycle event (no-op with the tracer off)."""
    get_tracer().record(
        event,
        path=(None if hasattr(path_or_file, "write")
              else os.fspath(path_or_file)),
        digest=digest,
    )


def save_checkpoint(etg: ExecutionTaskGraph, path_or_file,
                    injector=None) -> None:
    """Dump all trainable state of the ETG's nodes (atomic on-disk).
    ``injector`` arms the ``checkpoint.save`` torn-write fault site."""
    state = _state_dict(etg)
    meta = {
        "version": _VERSION,
        "topology": etg.topology.name,
        "keys": sorted(state),
        "digest": _digest(state),
    }
    _atomic_savez(
        path_or_file,
        {
            "__meta__": np.frombuffer(
                json.dumps(meta).encode(), dtype=np.uint8
            ),
            **state,
        },
        injector=injector,
    )
    _record_ck("checkpoint.save", path_or_file, meta["digest"])


def load_checkpoint(etg: ExecutionTaskGraph, path_or_file, strict: bool = True) -> list[str]:
    """Load a checkpoint into the ETG's nodes (in place).

    Returns the list of restored keys.  With ``strict`` every key present in
    the ETG must exist in the file (extra file keys are always an error).
    Raises :class:`ReproError` on a truncated, ``__meta__``-less,
    version-mismatched or digest-mismatched file,
    :class:`CheckpointNotFoundError` on a missing one, and
    :class:`ReproError` while ``etg`` is frozen by an entered
    :class:`~repro.gxm.inference.InferenceSession`.
    """
    etg.check_writable("load a checkpoint")
    state = _state_dict(etg)
    with _checkpoint_file(path_or_file) as (z, meta):
        if meta.get("version") != _VERSION:
            raise ReproError(
                f"unsupported checkpoint version {meta.get('version')}"
            )
        file_keys = set(meta.get("keys", ()))
        etg_keys = set(state)
        if file_keys - etg_keys:
            raise ReproError(
                f"checkpoint has keys the topology lacks: {sorted(file_keys - etg_keys)[:5]}"
            )
        if strict and etg_keys - file_keys:
            raise ReproError(
                f"checkpoint missing keys: {sorted(etg_keys - file_keys)[:5]}"
            )
        loaded: dict[str, np.ndarray] = {}
        for key in sorted(file_keys):
            dst = state[key]
            src = z[key]
            if dst.shape != src.shape:
                raise ReproError(
                    f"shape mismatch for {key}: {dst.shape} vs {src.shape}"
                )
            loaded[key] = src
        want = meta.get("digest")
        if want is not None and _digest(loaded) != want:
            raise ReproError(
                "checkpoint digest mismatch: file content does not match "
                "the digest recorded at save time (bit corruption?)"
            )
        # verified: now (and only now) mutate the live parameters
        for key, src in loaded.items():
            state[key][...] = src
    _record_ck("checkpoint.load", path_or_file, want)
    return sorted(loaded)


def read_checkpoint_meta(path_or_file) -> dict:
    """The checkpoint's metadata document (version, topology, keys,
    content ``digest``) without loading any weight array -- what a
    serving reload reports so operators can tell which weights are live.
    Raises :class:`ReproError` on anything unreadable
    (:class:`CheckpointNotFoundError` on a missing file)."""
    with _checkpoint_file(path_or_file) as (_z, meta):
        return dict(meta)


# ---------------------------------------------------------------------------
@dataclass
class TrainingCheckpoint:
    """Bookkeeping restored by :func:`load_training_checkpoint`.

    ``step`` is the number of completed optimizer steps; ``losses`` /
    ``accuracies`` the recorded trajectory up to that step.  ``rng_state``
    is an opaque JSON-serializable document the *saver* provided (e.g. a
    numpy ``Generator.bit_generator.state`` dict, or the shuffle seed +
    batch count a deterministic data pipeline rewinds from).
    """

    step: int
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    rng_state: dict | None = None


def save_training_checkpoint(
    path_or_file,
    etg: ExecutionTaskGraph,
    opt,
    *,
    step: int,
    losses=(),
    accuracies=(),
    rng_state: dict | None = None,
    injector=None,
) -> None:
    """Atomically persist weights + SGD velocity + step + trajectory.

    ``opt`` is the :class:`~repro.gxm.trainer.SGD` whose per-parameter
    velocity buffers make a resumed momentum step bit-identical to the
    uninterrupted one.
    """
    state = _state_dict(etg)
    velocity = {
        f"__velocity__/{i}": v for i, v in enumerate(opt._velocity)
    }
    arrays = {**state, **velocity}
    meta = {
        "version": _VERSION,
        "kind": "training",
        "train_version": _TRAIN_VERSION,
        "topology": etg.topology.name,
        "keys": sorted(state),
        "n_velocity": len(opt._velocity),
        "step": int(step),
        "losses": [float(v) for v in losses],
        "accuracies": [float(v) for v in accuracies],
        "rng_state": rng_state,
        "opt": {
            "lr": opt.lr,
            "momentum": opt.momentum,
            "weight_decay": opt.weight_decay,
        },
        "digest": _digest(arrays),
    }
    _atomic_savez(
        path_or_file,
        {
            "__meta__": np.frombuffer(
                json.dumps(meta).encode(), dtype=np.uint8
            ),
            **arrays,
        },
        injector=injector,
    )
    _record_ck("checkpoint.save", path_or_file, meta["digest"])


def load_training_checkpoint(
    path_or_file, etg: ExecutionTaskGraph, opt
) -> TrainingCheckpoint:
    """Restore weights and SGD velocity in place; return the bookkeeping.

    Everything is digest-verified before any live array is touched, so a
    corrupt file cannot leave the trainer half-restored.
    """
    etg.check_writable("load a training checkpoint")
    state = _state_dict(etg)
    with _checkpoint_file(path_or_file, what="training checkpoint") as (
        z, meta,
    ):
        if meta.get("kind") != "training":
            raise ReproError(
                "not a training checkpoint (plain weight checkpoints "
                "carry no optimizer state; use load_checkpoint)"
            )
        if (
            meta.get("version") != _VERSION
            or meta.get("train_version") != _TRAIN_VERSION
        ):
            raise ReproError(
                f"unsupported training checkpoint version "
                f"{meta.get('version')}/{meta.get('train_version')}"
            )
        file_keys = set(meta.get("keys", ()))
        if file_keys != set(state):
            missing = sorted(set(state) - file_keys)[:5]
            extra = sorted(file_keys - set(state))[:5]
            raise ReproError(
                f"training checkpoint does not match the topology "
                f"(missing {missing}, extra {extra})"
            )
        if meta.get("n_velocity") != len(opt._velocity):
            raise ReproError(
                f"training checkpoint has {meta.get('n_velocity')} "
                f"velocity buffers; optimizer expects "
                f"{len(opt._velocity)}"
            )
        loaded: dict[str, np.ndarray] = {}
        for key in sorted(file_keys):
            src = z[key]
            if state[key].shape != src.shape:
                raise ReproError(
                    f"shape mismatch for {key}: "
                    f"{state[key].shape} vs {src.shape}"
                )
            loaded[key] = src
        for i, v in enumerate(opt._velocity):
            src = z[f"__velocity__/{i}"]
            if v.shape != src.shape:
                raise ReproError(
                    f"velocity buffer {i} shape mismatch: "
                    f"{v.shape} vs {src.shape}"
                )
            loaded[f"__velocity__/{i}"] = src
        want = meta.get("digest")
        if want is not None and _digest(loaded) != want:
            raise ReproError(
                "training checkpoint digest mismatch: file content does "
                "not match the digest recorded at save time"
            )
        for key in sorted(file_keys):
            state[key][...] = loaded[key]
        for i, v in enumerate(opt._velocity):
            v[...] = loaded[f"__velocity__/{i}"]
    _record_ck("checkpoint.load", path_or_file, want)
    return TrainingCheckpoint(
        step=int(meta["step"]),
        losses=list(meta.get("losses", ())),
        accuracies=list(meta.get("accuracies", ())),
        rng_state=meta.get("rng_state"),
    )
