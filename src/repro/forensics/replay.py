"""Deterministic incident replay: turn a bundle back into the failing
step or request and re-execute it, asserting bitwise identity.

The replay contract, per bundle ``replay`` document:

* ``{"mode": "train", ...}`` -- the bundle holds the failing gradient
  shard (``x``/``labels``), the step-start weights and the digests of
  the gradients the root recomputed bit-identically at capture time.
  Replay rebuilds the worker's exact :class:`ExecutionTaskGraph`
  (topology text + input shape + seed + the ``fast`` engine every
  replica runs), loads the recorded weights, re-runs the training step
  and asserts the recomputed gradient digest and loss match bitwise.
* ``{"mode": "serve", ...}`` -- the bundle holds the failing request
  batch.  Replay rebuilds the engine from the captured
  :class:`~repro.serve.ServeConfig` (same seed -> same init; same
  checkpoint -> same weights; weight arrays embedded in the bundle win
  over both), runs the batch through **two independently built**
  engines and asserts their outputs are bitwise identical -- and, when
  the capture recorded a trusted output digest (``expect["y"]``), that
  the replayed output reproduces it exactly.

Every mismatch raises :class:`ReplayMismatch`; a clean replay returns
the digest report, so any production failure is one
``python -m repro incident replay <bundle>`` away from being a
regression test.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np

from repro.forensics.bundle import BundleError, load_incident, tensor_digest
from repro.types import ReproError

__all__ = ["ReplayMismatch", "replay_incident", "digest_tensor_list"]


class ReplayMismatch(ReproError):
    """A replayed step/request did not reproduce the recorded digests
    bitwise -- either the environment differs from the capture, or the
    failure was not deterministic (both are findings)."""


def digest_tensor_list(arrays) -> str:
    """One digest over an ordered list of arrays (gradient lists)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(tensor_digest(np.asarray(a)).encode())
    return h.hexdigest()[:16]


def _check(name: str, got, want, mismatches: list) -> None:
    if want is not None and got != want:
        mismatches.append(f"{name}: replay {got!r} != recorded {want!r}")


def _replay_train(doc: dict) -> dict:
    from repro.gxm.etg import ExecutionTaskGraph
    from repro.gxm.multiproc import parse_topology_text

    m = doc["manifest"]
    r = m["replay"]
    tensors = doc["tensors"]
    x, labels = tensors["x"], tensors["labels"]
    etg = ExecutionTaskGraph(
        parse_topology_text(r["topo_text"]),
        tuple(r["input_shape"]),
        engine=r.get("engine", "fast"),
        seed=r["seed"],
    )
    params = etg.params()
    weights = [tensors[f"weights__{i}"] for i in range(len(params))]
    for p, w in zip(params, weights):
        p[...] = w
    loss = float(etg.train_step(x, labels))
    grads = [np.asarray(g) for g in etg.grads()]
    got = {
        "grads": digest_tensor_list(grads),
        "loss": loss,
        "x": tensor_digest(x),
    }
    expect = m.get("expect", {})
    mismatches: list[str] = []
    _check("grads", got["grads"], expect.get("grads"), mismatches)
    _check("loss", got["loss"], expect.get("loss"), mismatches)
    if mismatches:
        raise ReplayMismatch(
            f"train replay of step {r.get('step')} diverged: "
            + "; ".join(mismatches)
        )
    return {
        "ok": True, "mode": "train", "step": r.get("step"),
        "digests": got, "expect": dict(expect),
    }


def _build_serve_session(cfg, bucket: int, tensors: dict):
    from repro.gxm.inference import InferenceSession

    etg = cfg.build_etg(bucket)
    params = etg.params()
    if any(f"weights__{i}" in tensors for i in range(len(params))):
        for i, p in enumerate(params):
            p[...] = tensors[f"weights__{i}"]
    elif cfg.checkpoint:
        from repro.gxm.checkpoint import load_checkpoint

        load_checkpoint(etg, cfg.checkpoint)
    return InferenceSession(etg).__enter__()


def _replay_serve(doc: dict) -> dict:
    from repro.serve.config import ServeConfig

    m = doc["manifest"]
    r = m["replay"]
    tensors = doc["tensors"]
    x = tensors["x"]
    # keys of retired fields (older bundles) are dropped, and the
    # incident directory must not recurse into the replay itself
    known = {f.name for f in fields(ServeConfig)}
    cdoc = {k: v for k, v in (m["config"] or {}).items() if k in known}
    cdoc["incident_dir"] = None
    cfg = ServeConfig(**cdoc)
    n = int(x.shape[0])
    bucket = int(r.get(
        "bucket", next((b for b in cfg.buckets if b >= n), cfg.max_bucket)
    ))
    if n < bucket:
        pad = np.zeros((bucket, *x.shape[1:]), dtype=x.dtype)
        pad[:n] = x
        batch = pad
    else:
        batch = x
    # two *independently built* engines: the replay asserts the whole
    # build->weights->forward pipeline is deterministic, not just one
    # session's idempotence
    s1 = _build_serve_session(cfg, bucket, tensors)
    s2 = _build_serve_session(cfg, bucket, tensors)
    try:
        y1 = np.asarray(s1.predict(batch))[:n]
        y2 = np.asarray(s2.predict(batch))[:n]
    finally:
        s1.__exit__(None, None, None)
        s2.__exit__(None, None, None)
    got = {"x": tensor_digest(x), "y": tensor_digest(y1)}
    mismatches: list[str] = []
    if not np.array_equal(y1, y2):
        mismatches.append(
            "two independently built engines disagree bitwise"
        )
    expect = m.get("expect", {})
    _check("y", got["y"], expect.get("y"), mismatches)
    _check("x", got["x"], expect.get("x"), mismatches)
    if mismatches:
        raise ReplayMismatch(
            f"serve replay (bucket {bucket}) diverged: "
            + "; ".join(mismatches)
        )
    return {
        "ok": True, "mode": "serve", "bucket": bucket, "n": n,
        "digests": got, "expect": dict(expect),
    }


def replay_incident(path: str) -> dict:
    """Load (digest-verified), reconstruct and re-execute one bundle.

    Returns the digest report on bitwise success; raises
    :class:`ReplayMismatch` on any divergence and :class:`BundleError`
    on an invalid bundle.
    """
    doc = load_incident(path)
    r = doc["manifest"].get("replay")
    if not r:
        # an events-only capture (e.g. a plain /admin/dump with nothing
        # to re-execute): verification *is* the replay
        return {"ok": True, "mode": None, "replayed": False}
    mode = r.get("mode")
    if mode == "train":
        return _replay_train(doc)
    if mode == "serve":
        return _replay_serve(doc)
    raise BundleError(f"unknown replay mode {mode!r} in {path}")
