"""The repository's benchmark: one workload per fresh process.

Run from the repository root::

    python3 perfbench/run.py --workload serve_fast_light --seed 1 \\
        --seconds 30 --trace 0

Workloads (``perfbench/workloads.json`` says why each was chosen):
``serve_fast_light``, ``serve_blocked_burst`` and ``train_blocked``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the same untraced pass, then wraps the
program's layers and repeats the seeded pass to get per-layer self
times, the modeled-vs-host conv ledger and the tracing overhead; the
spans are written to ``perfbench/out/`` when the run ends.

Every answer is checked bitwise against ``perfbench/refs/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any output
was wrong or failed, or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import spec  # noqa: E402

OUT = spec.HERE / "out"
#: a cold set-up child taking longer than this fails the run
SETUP_TIMEOUT_S = 60.0
END_TO_END_UNITS = {"setup_s": "s", "p50_ms": "ms", "p90_ms": "ms",
                    "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


def _hygiene(seed: int) -> dict:
    import numpy as np
    from repro.arch.machine import SKX

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": blas,
        "machine_fingerprint": SKX.fingerprint(),
        "seed": seed,
        "git_commit": commit,
    }


def _cold_setups(workload: str, seed: int, n: int) -> list[float]:
    """``n`` cold set-ups, one at a time, each in a child forked from
    this process before it set anything up: the imports are done and
    every cache is still empty, as for the measuring process's own."""
    from perfbench import workloads

    out = []
    sys.stdout.flush()
    for _ in range(n):
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(rfd)
                setup_s = workloads.setup_once(workload, seed)
                os.write(wfd, repr(setup_s).encode())
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(wfd)
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while not os.waitpid(pid, os.WNOHANG)[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(rfd)
                raise RuntimeError("a set-up child did not finish")
            time.sleep(0.01)
        with os.fdopen(rfd) as f:
            text = f.read()
        if not text:
            raise RuntimeError("a set-up child failed")
        out.append(float(text))
    return out


def _outputs_identical(report) -> bool:
    """Traced answers are bitwise the untraced ones (same seed).

    Both passes start at the same point of the same seeded sequence;
    a serve pass sends the whole schedule, a train pass as many steps as
    fit its time, so the shorter one must be a prefix of the longer."""
    if "traced" not in report.outputs:
        return True
    a, b = report.outputs["untraced"], report.outputs["traced"]
    if report.workload != "train_blocked" and len(a) != len(b):
        return False
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


def _write_trace(report, ledger_rows, hygiene, args) -> Path:
    from perfbench import attribution

    index = {id(s): i for i, s in enumerate(report.spans)}
    spans = [{
        "kind": s.kind,
        "component": attribution.component(s),
        "parent": index.get(id(s.parent)),
        "t0_us": s.t0 * 1e6,
        "dur_us": s.dur * 1e6,
        "self_us": s.self_time * 1e6,
    } for s in report.spans]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
    with open(path, "w") as f:
        json.dump({"hygiene": hygiene, "per_layer": report.per_layer,
                   "accounting": report.accounting, "ledger": ledger_rows,
                   "spans": spans}, f)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.workload_names())
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (spec.SRC / "repro").is_dir():
        print(f"error: program sources not found under {spec.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(spec.SRC))
    spec.pin_blas_threads()

    from perfbench import attribution, workloads

    hygiene = _hygiene(args.seed)
    print("hygiene " + json.dumps(hygiene))
    repeats = spec.load_spec()["hygiene"]["setup_repeats"]
    setups = [] if args.trace else _cold_setups(
        args.workload, args.seed, repeats - 1)
    run = workloads.RUNNERS[args.workload]
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    setups.append(report.extra["setup_s"])
    report.end_to_end["setup_s"] = statistics.median(setups)
    identical = _outputs_identical(report)
    correct = (report.failed == 0 and report.mismatches == 0
               and report.attempted > 0 and identical)

    print(f"workload {args.workload} seed {args.seed} "
          f"attempted {report.attempted} failed {report.failed} "
          f"mismatches {report.mismatches} traced==untraced {identical}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<18} {report.end_to_end[name]:12.4f} {unit}")
    extra = {k: v for k, v in report.extra.items() if k != "kernel_cache"}
    extra["setup_samples_s"] = setups
    print("extra " + json.dumps(extra))
    print("kernel_cache " + json.dumps(report.extra["kernel_cache"]))

    if args.trace:
        cache = report.extra["kernel_cache"]
        ledger, ledger_rows = attribution.ledger()
        report.per_layer.update(ledger)
        report.per_layer["jit.variants"] = float(cache["variants"])
        report.per_layer["jit.cache_misses"] = float(cache["misses"])
        base = report.end_to_end["p50_ms"]
        report.per_layer["trace.overhead_pct"] = (
            100.0 * (report.extra["traced_p50_ms"] / base - 1.0))
        for name in attribution.per_layer_names():
            print(f"  {name:<32} {report.per_layer[name]:12.4f} "
                  f"{attribution.unit(name)}")
        print("accounting " + json.dumps(report.accounting))
        print(f"trace written to "
              f"{_write_trace(report, ledger_rows, hygiene, args)}")
        metrics = {n: {"value": report.per_layer[n],
                       "unit": attribution.unit(n)}
                   for n in attribution.per_layer_names()}
    else:
        metrics = {n: {"value": report.end_to_end[n], "unit": u}
                   for n, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
