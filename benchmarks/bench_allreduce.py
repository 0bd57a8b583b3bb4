"""All-reduce benchmark: the overlapped ring vs the blocking root fold.

One sweep, one JSON report: data-parallel training of the mini-ResNet
at 2/4/8 worker processes under each ``--allreduce`` mode, measuring
per-step wall-clock at the root.  In both modes every worker keeps a
weight replica.  ``root`` is the blocking baseline (gather the shard
gradients, fold them at the root in rank order, broadcast the
average); ``ring`` streams gradient buckets between workers
layer-by-layer while the backward pass is still producing them, so the
communication the root baseline serializes can overlap the rest of
backprop.

Each worker count runs two ring cells.  One uses the default
``bucket_bytes``, which holds the whole gradient of this model, so
every step cuts one bucket at the end of backprop and nothing is left
to overlap.  The other derives ``bucket_bytes`` from the model's
gradient size so that each step cuts several buckets
(``split_bucket_bytes``).  Every ring cell re-checks the headline
invariant -- its final weights and losses are *bitwise identical* to
the root fold over the same batches -- and records the workers' own
overlap accounting (``collective.overlap_ms`` vs
``collective.exposed_ms``) next to the gradient buckets cut per step.
The scaling gate compares the default-bucket ring cell with root.

Scaling is core-bound: ``workers`` processes plus the root must fit on
the host for overlap to show up as wall-clock, so the report records
``host.cpus`` and the ``--min-allreduce-scaling`` gate (ring speedup
over root at 4 workers) skips with a notice on low-core runners
instead of failing them.

Run as a plain script (not pytest -- the timing loop is its own harness)::

    PYTHONPATH=src python benchmarks/bench_allreduce.py --quick
    PYTHONPATH=src python benchmarks/bench_allreduce.py --out BENCH_allreduce.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.arch.machine import SKX
from repro.gxm.data import SyntheticImageDataset
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.multiproc import ProcessParallelTrainer
from repro.gxm.parser import parse_topology
from repro.models.resnet50 import resnet_mini_topology
from repro.obs.metrics import get_metrics

SHAPE = (3, 12, 12)
CLASSES = 8
#: the scaling gate needs this many workers' cell in the sweep
GATE_WORKERS = 4
#: below this many usable cores the gate is noise: skip with a notice
GATE_MIN_CPUS = 4
#: the trainer's default bucket threshold (the gate's ring cell)
DEFAULT_BUCKET_BYTES = 1 << 20
#: the second ring cell's threshold is the gradient size over this.  A
#: bucket closes once it reaches the threshold and never splits a
#: layer, so at width 24 each step cuts 5 buckets (``buckets_per_step``)
SPLIT_BUCKETS = 8


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _topology(width: int):
    # comm-heavy on purpose: wide layers fatten the gradient stream the
    # root baseline has to serialize through one pipe
    return resnet_mini_topology(num_classes=CLASSES, width=width)


def split_bucket_bytes(width: int, batch_per_worker: int) -> int:
    """The model's gradient bytes per worker over ``SPLIT_BUCKETS``."""
    etg = ExecutionTaskGraph(
        parse_topology(_topology(width).to_text()),
        (batch_per_worker, *SHAPE), engine="fast", seed=0,
    )
    return sum(p.nbytes for p in etg.params()) // SPLIT_BUCKETS


def bench_cell(mode: str, nodes: int, width: int, steps: int,
               batch_per_worker: int,
               bucket_bytes: int = DEFAULT_BUCKET_BYTES) -> dict:
    """Train ``steps`` batches under ``mode``; per-step wall-clock is
    the median of the steady-state steps (the first is warmup: worker
    spawn, mesh build, first-touch)."""
    ds = SyntheticImageDataset(
        n=batch_per_worker * nodes * steps, num_classes=CLASSES,
        shape=SHAPE, seed=5,
    )
    get_metrics().clear()
    t = ProcessParallelTrainer(
        _topology(width), (batch_per_worker, *SHAPE), nodes=nodes,
        seed=0, allreduce=mode, step_timeout=120.0,
        bucket_bytes=bucket_bytes,
    )
    try:
        wall_ms = []
        for x, labels in ds.batches(batch_per_worker * nodes, 1,
                                    seed=t.shuffle_seed):
            t0 = time.perf_counter()
            t.train_step(x, labels)
            wall_ms.append((time.perf_counter() - t0) * 1e3)
        weights = [p.copy() for p in t.etg.params()]
        losses = list(t.metrics.losses)
    finally:
        t.close()
    m = get_metrics()
    dists = m.distributions()
    steady = wall_ms[1:] or wall_ms
    ring_steps = m.value("collective.steps")
    return {
        "mode": mode,
        "workers": nodes,
        "bucket_bytes": bucket_bytes if mode == "ring" else None,
        "steps": len(wall_ms),
        "step_ms_median": float(np.median(steady)),
        "step_ms_first": wall_ms[0],
        "grad_mb_per_step": (
            m.value("collective.bytes") / max(len(wall_ms), 1) / 2**20
            if mode != "root" else None
        ),
        # every rank stores every bucket's average once per ring step
        "buckets_per_step": (
            m.value("collective.buckets") / (ring_steps * nodes)
            if ring_steps else None
        ),
        # per-(worker, step) means: comm hidden under backward vs paid
        # after the last bucket was cut
        "overlap_ms_mean": dists.get("collective.overlap_ms",
                                     {}).get("mean", 0.0),
        "exposed_ms_mean": dists.get("collective.exposed_ms",
                                     {}).get("mean", 0.0),
        "_weights": weights,
        "_losses": losses,
    }


def bench_sweep(worker_counts, modes, width: int, steps: int,
                batch_per_worker: int) -> dict:
    split = split_bucket_bytes(width, batch_per_worker)
    rows = []
    bitwise_ok = True
    for nodes in worker_counts:
        ref = None
        for mode in modes:
            buckets = ([DEFAULT_BUCKET_BYTES, split] if mode == "ring"
                       else [DEFAULT_BUCKET_BYTES])
            for bucket_bytes in buckets:
                cell = bench_cell(mode, nodes, width, steps,
                                  batch_per_worker, bucket_bytes)
                if mode == "root":
                    ref = cell
                elif ref is not None:
                    # ring's chain fold is rank-order, exactly the root
                    # fold: bitwise identity is the acceptance bar
                    exact = (
                        cell["_losses"] == ref["_losses"]
                        and all(np.array_equal(a, b) for a, b in
                                zip(cell["_weights"], ref["_weights"]))
                    )
                    cell["bitwise_vs_root"] = exact
                    bitwise_ok = bitwise_ok and exact
                if ref is not None and mode != "root":
                    ratio = ref["step_ms_median"] / cell["step_ms_median"]
                    speed = (f"  ({ratio:.2f}x vs root, "
                             f"{cell['buckets_per_step']:.1f} buckets, "
                             f"{cell['overlap_ms_mean']:.1f} ms overlap)")
                else:
                    speed = ""
                print(f"  {mode:>4} x{nodes}: "
                      f"{cell['step_ms_median']:8.1f} ms/step{speed}")
                rows.append(cell)
    for row in rows:
        row.pop("_weights")
        row.pop("_losses")
    by = {(r["mode"], r["workers"], r["bucket_bytes"]): r for r in rows}
    gate_cell = by.get(("ring", GATE_WORKERS, DEFAULT_BUCKET_BYTES))
    gate_base = by.get(("root", GATE_WORKERS, None))
    return {
        "host": {"cpus": os.cpu_count(), "usable_cpus": _usable_cpus()},
        "machine_fingerprint": SKX.fingerprint(),
        "width": width,
        "batch_per_worker": batch_per_worker,
        "split_bucket_bytes": split,
        "rows": rows,
        "bitwise_ok": bitwise_ok,
        "ring_speedup_at_4": (
            gate_base["step_ms_median"] / gate_cell["step_ms_median"]
            if gate_cell and gate_base else None
        ),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", default="2,4,8",
                    help="comma-separated worker counts")
    ap.add_argument("--modes", default="root,ring",
                    help="comma-separated all-reduce modes (root first: "
                         "it is the baseline ring compares against)")
    ap.add_argument("--steps", type=int, default=6,
                    help="training steps per cell (first is warmup)")
    ap.add_argument("--width", type=int, default=24,
                    help="mini-ResNet width (wider = heavier gradients)")
    ap.add_argument("--batch", type=int, default=2,
                    help="per-worker batch size")
    ap.add_argument("--quick", action="store_true",
                    help="small sweep (CI smoke): 2/4 workers, 4 steps")
    ap.add_argument("--out", default="BENCH_allreduce.json")
    ap.add_argument("--min-allreduce-scaling", type=float, default=0.0,
                    help="fail if ring/root per-step speedup at 4 workers "
                         "is below this -- skipped with a notice when the "
                         f"host has fewer than {GATE_MIN_CPUS} usable "
                         "cores (bitwise identity is always enforced)")
    args = ap.parse_args(argv)

    worker_counts = [int(c) for c in args.workers.split(",")]
    modes = [m.strip() for m in args.modes.split(",")]
    steps = 4 if args.quick else args.steps
    if args.quick:
        worker_counts = [c for c in worker_counts if c <= 4] or [2]

    print(f"all-reduce sweep: modes={modes} workers={worker_counts} "
          f"steps={steps} width={args.width} "
          f"({_usable_cpus()} usable cores)")
    report = bench_sweep(worker_counts, modes, args.width, steps,
                         args.batch)
    report["args"] = {
        "workers": worker_counts, "modes": modes, "steps": steps,
        "quick": args.quick,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")

    if not report["bitwise_ok"]:
        print("FAIL: ring weights are not bitwise-identical to the "
              "root fold", file=sys.stderr)
        return 1
    if args.min_allreduce_scaling:
        cpus = report["host"]["usable_cpus"]
        speedup = report["ring_speedup_at_4"]
        if cpus < GATE_MIN_CPUS:
            print(f"NOTICE: --min-allreduce-scaling skipped: only {cpus} "
                  f"usable cores (< {GATE_MIN_CPUS}); overlap cannot show "
                  f"up as wall-clock on this host")
        elif speedup is None:
            print("FAIL: --min-allreduce-scaling set but the sweep has "
                  f"no ring+root cells at {GATE_WORKERS} workers",
                  file=sys.stderr)
            return 1
        elif speedup < args.min_allreduce_scaling:
            print(f"FAIL: ring speedup at {GATE_WORKERS} workers "
                  f"{speedup:.2f}x < required "
                  f"{args.min_allreduce_scaling}x ({cpus} usable cores)",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
