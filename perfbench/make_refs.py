"""Compute the stored reference outputs under ``refs/``.

The benchmark never produces its own references: every serve response
and every training step is checked against the files this script wrote
once, from a different execution path than the one measured.

* ``refs/serve_fast.json`` -- each fast-pool image through a direct
  batch-1 ``InferenceSession.predict`` on the fast engine.
* ``refs/serve_blocked.json`` -- each blocked-pool image through a
  batch-1 blocked graph on the ``interpret`` tier.
* ``refs/train.json`` -- per-step losses and weight digests of every
  training trajectory on the ``interpret`` tier.

Run from the repository root (takes several minutes, mostly the
interpreter-tier training steps)::

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import spec  # noqa: E402

spec.pin_blas_threads()
sys.path.insert(0, str(spec.SRC))


def _write(name: str, doc: dict) -> None:
    spec.REFS.mkdir(exist_ok=True)
    with open(spec.REFS / f"{name}.json", "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def serve_refs(engine: str, tier) -> dict:
    from repro.gxm.inference import InferenceSession

    pool = spec.input_pool(engine)
    etg = spec.serve_config(engine, execution_tier=tier).build_etg(1)
    with InferenceSession(etg) as session:
        rows = [spec.probs_hex(session.predict(x[None])[0]) for x in pool]
    return {"engine": engine, "tier": tier, "pool_digest": spec.digest(pool),
            "probs_hex": rows}


def train_refs() -> dict:
    import io

    from repro.gxm.trainer import Trainer

    td = spec.load_spec()["train_data"]
    trainer = Trainer(spec.train_graph(execution_tier="interpret"))
    start = io.BytesIO()
    trainer.save(start)
    out = []
    for j in range(td["trajectories"]):
        trainer.resume(io.BytesIO(start.getvalue()))
        x, labels = spec.train_data(j)
        losses, weights = [], []
        for step in range(td["steps"]):
            losses.append(float(trainer.train_step(x[step], labels[step])).hex())
            weights.append(spec.digest(*trainer.etg.params()))
            print(f"trajectory {j} step {step} loss {float.fromhex(losses[-1]):.6f}",
                  flush=True)
        out.append({"data_digest": spec.digest(x, labels),
                    "loss_hex": losses, "weights_digest": weights})
    return {"tier": "interpret", "trajectories": out}


def main() -> int:
    jobs = {
        "serve_fast": lambda: serve_refs("fast", None),
        "serve_blocked": lambda: serve_refs("blocked", "interpret"),
        "train": train_refs,
    }
    for name, job in jobs.items():
        _write(name, job())
        print(f"wrote refs/{name}.json", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
