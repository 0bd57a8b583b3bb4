"""Workload definitions, seeded inputs and stored references.

Everything a run needs that is not the program under test lives here:
the workload table (``workloads.json``), the seeded input pools and
training data, the arrival schedules, and the reference outputs that
``make_refs.py`` computed once and committed under ``refs/``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"

#: every BLAS knob numpy may read, pinned before numpy is first imported
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: BLAS threads per process: one, so the load threads keep a CPU
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Pin the BLAS thread count; must run before ``import numpy``."""
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)


def load_spec() -> dict:
    with open(HERE / "workloads.json") as f:
        return json.load(f)


def workload_names() -> list[str]:
    return list(load_spec()["workloads"])


def digest(*arrays) -> str:
    """sha256 over the raw bytes of ``arrays`` (bitwise identity)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# -- the program's configuration --------------------------------------
def serve_config(engine: str, execution_tier=None):
    from repro.serve import ServeConfig

    model = load_spec()["model"]
    return ServeConfig(
        model=model["name"],
        width=model["width"],
        num_classes=model["num_classes"],
        input_shape=tuple(model["input_shape"]),
        engine=engine,
        execution_tier=execution_tier,
    )


def train_graph(execution_tier=None):
    """The training ETG on the blocked engine (library defaults else)."""
    from repro.gxm.etg import ExecutionTaskGraph
    from repro.models.resnet50 import resnet_mini_topology

    spec = load_spec()
    model = spec["model"]
    return ExecutionTaskGraph(
        resnet_mini_topology(
            num_classes=model["num_classes"], width=model["width"]
        ),
        input_shape=(spec["train_data"]["minibatch"], *model["input_shape"]),
        engine="blocked",
        execution_tier=execution_tier,
    )


# -- seeded inputs ------------------------------------------------------
def input_pool(name: str):
    """The fixed image pool requests draw from (``pools.<name>``)."""
    import numpy as np

    spec = load_spec()
    pool = spec["pools"][name]
    shape = tuple(spec["model"]["input_shape"])
    rng = np.random.default_rng(pool["seed"])
    return rng.standard_normal((pool["size"], *shape), dtype=np.float32)


def train_data(trajectory: int):
    """``(x, labels)`` for every step of one reference trajectory."""
    import numpy as np

    spec = load_spec()
    td = spec["train_data"]
    shape = tuple(spec["model"]["input_shape"])
    rng = np.random.default_rng([td["seed"], trajectory])
    x = rng.standard_normal(
        (td["steps"], td["minibatch"], *shape), dtype=np.float32
    )
    labels = rng.integers(
        0, spec["model"]["num_classes"], (td["steps"], td["minibatch"])
    )
    return x, labels


def trajectory_for_seed(seed: int) -> int:
    return seed % load_spec()["train_data"]["trajectories"]


def _bucket_for(n: int, buckets) -> int:
    return min(b for b in buckets if b >= n)


def schedule(workload: str, seed: int, seconds: float) -> list[tuple]:
    """Seeded open-loop schedule: ``[(due_s, [pool index, ...]), ...]``.

    Each entry is sent at ``due_s`` after the start, all its requests at
    once.  ``poisson`` sends exactly ``rate * seconds`` single requests at
    uniformly scattered times (a Poisson process conditioned on its
    count, so the offered load does not vary with the seed).  ``bursts``
    sends whole cycles, each a seeded permutation of every burst size,
    and spaces bursts by the estimated service time of the burst's
    bucket over the offered load, with seeded jitter; the burst mix is
    the same for every seed.
    """
    import numpy as np

    spec = load_spec()
    wl = spec["workloads"][workload]
    sched = wl["schedule"]
    pool_size = spec["pools"][wl["pool"]]["size"]
    rng = np.random.default_rng(seed)
    out: list[tuple] = []
    if sched["kind"] == "poisson":
        n = int(round(sched["rate_per_s"] * seconds))
        dues = np.sort(rng.uniform(0.0, seconds, n))
        picks = rng.integers(0, pool_size, n)
        return [(float(t), [int(i)]) for t, i in zip(dues, picks)]
    lo, hi = sched["sizes"]
    sizes = np.arange(lo, hi + 1)
    est = {int(b): ms / 1e3 for b, ms in sched["est_bucket_ms"].items()}
    gap = {int(s): est[_bucket_for(int(s), sorted(est))]
           / sched["offered_load"] for s in sizes}
    cycles = max(1, round(seconds / sum(gap.values())))
    jlo, jhi = sched["gap_jitter"]
    t = 0.0
    for _ in range(cycles):
        for size in rng.permutation(sizes):
            picks = rng.integers(0, pool_size, int(size))
            out.append((t, [int(i) for i in picks]))
            t += gap[int(size)] * rng.uniform(jlo, jhi)
    return out


# -- references -----------------------------------------------------------
def load_refs(name: str) -> dict:
    with open(REFS / f"{name}.json") as f:
        return json.load(f)


def probs_hex(row) -> str:
    """Exact bytes of one probability row, as hex (bitwise reference)."""
    import numpy as np

    return np.ascontiguousarray(row, dtype="<f4").tobytes().hex()
