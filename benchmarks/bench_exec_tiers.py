"""Execution-tier benchmark: compiled numpy closures vs the µop interpreter.

Measures wall time of the forward engine on Table-1 ResNet-50 layers and
on resnet_mini's ``res3a_b`` shape, and of the weight-update engine on one
1x1 layer, under the ``interpret`` and ``compiled`` execution tiers (same
streams, same µop programs), asserts the outputs are *bitwise* identical,
and records the per-layer and geometric-mean speedups (interpret/compiled)
to a JSON report.  The update pass re-accumulates each ``dW`` block over
many calls, and ``res3a_b``'s ``c_b``-outer streams alternate a zero-init
and an accumulate variant, so those two rows cover replay's dependency
rounds within one variant and across variants.  Every row also records
``calls``, the conv calls of one run, and ``grid_calls``, how many of
them replay in rounds laid out as a weight-block x input-row grid with
more than one input row; the rest run one row wide (``(B, 1)`` column
groups, or one input row against several weight blocks).  Table-1
layer 20 mixes both.  ``gather_fallbacks`` counts the operand gathers
and stores of one compiled run that took a fancy index instead of a
strided view (``jit.gather_fallbacks``: offsets that form no lattice).
The int16 row runs Table-1 layer 8 on KNM, also under ``--quick``
(``--no-quant`` leaves it out).

Run as a plain script (not pytest -- the timing loop is its own harness)::

    PYTHONPATH=src python benchmarks/bench_exec_tiers.py --quick
    PYTHONPATH=src python benchmarks/bench_exec_tiers.py --out BENCH_exec_tiers.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from repro.arch.machine import KNM, SKX
from repro.conv.forward import DirectConvForward
from repro.conv.params import ConvParams
from repro.conv.upd import DirectConvUpd
from repro.models.resnet50 import resnet50_layer
from repro.obs.metrics import get_metrics
from repro.quant.qconv_engine import QuantConvForward
from repro.quant.qtensor import quantize
from repro.tensor.blocked import BlockedTensor, block_activations, block_weights

#: Table-1 ids spanning the shape space: early wide-spatial, 1x1 projections,
#: strided 3x3, and the deep narrow-spatial tail
DEFAULT_LAYERS = [1, 2, 4, 8, 12, 16, 20]
#: the update-pass row: the cheapest 1x1 Table-1 layer, at a minibatch of
#: at least 2 so every ``dW`` block is re-accumulated across calls (the
#: compiled tier's dependency rounds)
UPD_LAYER = 3
UPD_MIN_MINIBATCH = 2
#: the cross-variant row: resnet_mini's res3a_b at the benchmark's train
#: minibatch, a c_b-outer layer whose streams alternate two variants
CB_OUTER_LAYER = "res3a_b"
CB_OUTER_PARAMS = ConvParams(N=8, C=32, K=32, H=4, W=4, R=3, S=3, stride=1,
                             pad_h=1, pad_w=1)
#: the int16 row (KNM, 4VNNIW): a full-size Table-1 layer, in every run
#: including ``--quick``, so the compiled int16 chains are checked
#: bitwise at a size the tier-1 tests do not reach
QUANT_LAYER = 8


def _time_call(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _first_run(results: dict, run) -> None:
    """Run the compiled tier once before timing (plans, probes and views
    are built there) and record that run's ``gather_fallbacks``."""
    before = get_metrics().value("jit.gather_fallbacks")
    run()
    results["gather_fallbacks"] = int(
        get_metrics().value("jit.gather_fallbacks") - before)


def _grid_share(results: dict, eng, store_arg: int) -> None:
    """Record the engine's conv calls and how many of them its replay
    schedule (``store_arg``: 2 for forward binds, 1 for update binds)
    lays out as grids more than one input row wide."""
    calls = grid = 0
    for stream in eng.streams:
        for groups in stream.schedule(store_arg).values():
            for _variant, i, w, o in groups:
                n = np.broadcast(i, w, o).size
                calls += n
                grid += n if i.shape[1] > 1 else 0
    results["calls"] = calls
    results["grid_calls"] = grid


def _compare(results: dict, outs: dict) -> dict:
    """Record whether both tiers' outputs are bitwise equal, and the
    speedup (interpret/compiled)."""
    results["exact"] = bool(
        np.array_equal(
            outs["compiled"].view(np.uint32),
            outs["interpret"].view(np.uint32),
        )
    )
    results["speedup"] = results["interpret_s"] / results["compiled_s"]
    return results


def bench_f32_layer(layer_id: int | str, p: ConvParams, repeats: int,
                    seed: int | None = None) -> dict:
    rng = np.random.default_rng(layer_id if seed is None else seed)
    x = rng.standard_normal((p.N, p.C, p.H, p.W)).astype(np.float32)
    w = rng.standard_normal((p.K, p.C, p.R, p.S)).astype(np.float32)
    results = {"layer": layer_id, "dtype": "f32", "pass": "fwd",
               "params": p.describe()}
    outs = {}
    for tier in ("compiled", "interpret"):
        eng = DirectConvForward(p, machine=SKX, execution_tier=tier)
        bx = block_activations(
            x, eng.plan.vlen, pad_h=p.pad_h, pad_w=p.pad_w
        )
        bw = block_weights(w, eng.plan.vlen)
        out = BlockedTensor(
            np.zeros(eng.out_layout.size, dtype=np.float32), eng.out_layout
        )

        def run(eng=eng, bx=bx, bw=bw, out=out):
            out.zero_()
            eng(bx, bw, out)

        if tier != "interpret":
            _first_run(results, run)  # amortize plan building up front
        results[f"{tier}_s"] = _time_call(run, repeats)
        outs[tier] = out.data.copy()
    _grid_share(results, eng, store_arg=2)
    return _compare(results, outs)


def bench_upd_layer(layer_id: int, p: ConvParams, repeats: int) -> dict:
    rng = np.random.default_rng(layer_id)
    x = rng.standard_normal((p.N, p.C, p.H, p.W)).astype(np.float32)
    dy = rng.standard_normal((p.N, p.K, p.P, p.Q)).astype(np.float32)
    results = {"layer": layer_id, "dtype": "f32", "pass": "upd",
               "params": p.describe()}
    outs = {}
    for tier in ("compiled", "interpret"):
        eng = DirectConvUpd(p, machine=SKX, execution_tier=tier)
        bx = block_activations(
            x, eng.vlen, pad_h=p.pad_h, pad_w=p.pad_w
        )
        bdy = block_activations(dy, eng.vlen)

        def run(eng=eng, tier=tier):
            outs[tier] = eng(bx, bdy).data

        if tier != "interpret":
            _first_run(results, run)
        results[f"{tier}_s"] = _time_call(run, repeats)
    _grid_share(results, eng, store_arg=1)
    return _compare(results, outs)


def bench_q16_layer(layer_id: int, p: ConvParams, repeats: int) -> dict:
    rng = np.random.default_rng(layer_id)
    x = rng.standard_normal((p.N, p.C, p.H, p.W)).astype(np.float32) * 0.3
    w = rng.standard_normal((p.K, p.C, p.R, p.S)).astype(np.float32) * 0.3
    qx, qw = quantize(x), quantize(w)
    results = {"layer": layer_id, "dtype": "qi16f32", "pass": "fwd",
               "params": p.describe()}
    outs = {}
    for tier in ("compiled", "interpret"):
        eng = QuantConvForward(p, machine=KNM, execution_tier=tier)

        def run(eng=eng, tier=tier):
            outs[tier] = eng.run_quantized(qx, qw)

        if tier != "interpret":
            _first_run(results, run)
        results[f"{tier}_s"] = _time_call(run, repeats)
    _grid_share(results, eng, store_arg=2)
    return _compare(results, outs)


def _print_row(row: dict) -> None:
    print(
        f"layer {row['layer']:>7} {row['dtype']:<7} {row['pass']}  "
        f"interpret {row['interpret_s']:8.3f}s  "
        f"compiled {row['compiled_s']:8.3f}s  "
        f"speedup {row['speedup']:7.1f}x  "
        f"grid {row['grid_calls']}/{row['calls']}  "
        f"fallbacks {row['gather_fallbacks']}  exact={row['exact']}",
        flush=True,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layers", default=None,
                    help="comma-separated Table-1 layer ids "
                         f"(default {DEFAULT_LAYERS})")
    ap.add_argument("--minibatch", type=int, default=1,
                    help="N per layer (1 keeps the interpreter tier "
                         "affordable; relative speedups are N-independent)")
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="Table-1 layers 2 and 20 (all-grid and mixed "
                         "grid/column replay) plus the res3a_b, "
                         "update-pass and int16 rows (CI smoke)")
    ap.add_argument("--no-quant", action="store_true",
                    help="skip the int16 (KNM) measurement")
    ap.add_argument("--out", default="BENCH_exec_tiers.json")
    ap.add_argument("--min-speedup", type=float, default=0.0,
                    help="fail if the geomean speedup is below this")
    args = ap.parse_args(argv)

    if args.quick:
        layers = [2, 20]
    else:
        layers = (
            [int(t) for t in args.layers.split(",")]
            if args.layers else DEFAULT_LAYERS
        )
    quant_layers = [] if args.no_quant else [QUANT_LAYER]

    rows = []
    for lid in layers:
        p = resnet50_layer(lid, minibatch=args.minibatch)
        rows.append(bench_f32_layer(lid, p, args.repeats))
        _print_row(rows[-1])
    rows.append(bench_f32_layer(CB_OUTER_LAYER, CB_OUTER_PARAMS,
                                args.repeats, seed=0))
    _print_row(rows[-1])
    p = resnet50_layer(
        UPD_LAYER, minibatch=max(UPD_MIN_MINIBATCH, args.minibatch)
    )
    rows.append(bench_upd_layer(UPD_LAYER, p, args.repeats))
    _print_row(rows[-1])
    for lid in quant_layers:
        p = resnet50_layer(lid, minibatch=args.minibatch)
        rows.append(bench_q16_layer(lid, p, args.repeats))
        _print_row(rows[-1])

    geomean = math.exp(
        sum(math.log(r["speedup"]) for r in rows) / len(rows)
    )
    all_exact = all(r["exact"] for r in rows)
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable = os.cpu_count() or 1
    report = {
        "bench": "exec_tiers",
        "machine_f32": SKX.name,
        "machine_f32_fingerprint": SKX.fingerprint(),
        "machine_q16": KNM.name,
        "machine_q16_fingerprint": KNM.fingerprint(),
        "host": {"cpus": os.cpu_count(), "usable_cpus": usable},
        "minibatch": args.minibatch,
        "repeats": args.repeats,
        "layers": rows,
        "geomean_speedup": geomean,
        "all_exact": all_exact,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"geomean speedup {geomean:.1f}x over {len(rows)} measurements "
          f"-> {args.out}")

    if not all_exact:
        print("FAIL: compiled is not bitwise-identical to the interpreter",
              file=sys.stderr)
        return 1
    if geomean < args.min_speedup:
        print(
            f"FAIL: geomean {geomean:.2f}x < required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
