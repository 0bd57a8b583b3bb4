"""Command-line interface -- the artifact's run scripts, as one binary.

The paper's artifact drives everything through shell scripts
(``run_resnet50.sh <threads> <iters> <mb> <dtype> <pass> ...``); here the
equivalents are subcommands of ``python -m repro``:

========================  ====================================================
command                   what it does
========================  ====================================================
``layers``                per-layer kernel study (Figs. 4-8) on one machine
``fig``                   regenerate one numbered figure's data
``train``                 GxM training of the miniature ResNet on synthetic
                          data, with optional checkpointing
``scaling``               Fig. 9 multi-node strong-scaling table
``disasm``                JIT one kernel variant and print its µop listing
``profile``               trace N training steps through :mod:`repro.obs`;
                          dump a ``chrome://tracing`` JSON + flat metrics
``serve``                 dynamic-batching inference server over HTTP
``loadgen``               drive an in-process server with synthetic closed-
                          or open-loop load; print the SLO report
``tune``                  mapspace-autotune Table I layers; persist the
                          validated winners into a tuning database that
                          ``make_engine(tuned=...)`` / ``serve --tune-db``
                          consult
``incident``              list / inspect / diff / deterministically replay
                          :mod:`repro.forensics` incident bundles captured
                          by trainers and servers
========================  ====================================================

Examples::

    python -m repro layers --machine SKX --pass F
    python -m repro fig 6
    python -m repro train --epochs 4 --checkpoint /tmp/ck.npz
    python -m repro scaling --machine KNM
    python -m repro disasm --layer 8 --machine KNM
    python -m repro profile resnet_mini --steps 2 --trace-out trace.json
    python -m repro serve --engine blocked --buckets 1,2 --boot-only
    python -m repro loadgen --mode open --rate 200 --duration 2
    python -m repro tune --layers 2,4,8 --db tune.json
    python -m repro incident list --dir incidents
    python -m repro incident replay incidents/incident_train_1234_0000
"""

from __future__ import annotations

import argparse
import sys

from repro.types import Pass

__all__ = ["main", "build_parser"]

_PASS = {"F": Pass.FWD, "B": Pass.BWD, "U": Pass.UPD,
         "forward": Pass.FWD, "backward": Pass.BWD, "update": Pass.UPD}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="SC'18 direct-convolution reproduction toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("layers", help="per-layer kernel study (Figs. 4-8)")
    p.add_argument("--machine", default="SKX", choices=["SKX", "KNM"])
    p.add_argument("--pass", dest="pass_", default="F",
                   choices=sorted(_PASS))
    p.add_argument("--dtype", default="f32", choices=["f32", "qi16f32"])
    p.add_argument("--no-baselines", action="store_true")

    p = sub.add_parser("fig", help="regenerate one figure's data")
    p.add_argument("number", type=int, choices=[4, 5, 6, 7, 8, 9])

    p = sub.add_parser("train", help="train the mini ResNet on synthetic data")
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--nodes", type=int, default=1,
                   help="simulated data-parallel replicas")
    p.add_argument("--checkpoint", default=None,
                   help="path to dump trained weights (.npz)")
    p.add_argument("--engine", default="fast", choices=["fast", "blocked"])
    p.add_argument("--process-parallel", action="store_true",
                   help="real OS processes per replica (self-healing "
                        "all-reduce) instead of in-process sharding")
    p.add_argument("--allreduce", default="ring",
                   choices=["ring", "root"],
                   help="gradient exchange under --process-parallel: "
                        "overlapped peer-to-peer ring (default) or the "
                        "blocking root fold")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="autosave a full training checkpoint (weights + "
                        "SGD velocity + step) every N steps; requires "
                        "--checkpoint")
    p.add_argument("--resume", default=None,
                   help="training checkpoint to resume from, exact to "
                        "the step")
    p.add_argument("--nan-policy", default="raise",
                   choices=["raise", "skip", "off"],
                   help="numerics watchdog on gradients before each "
                        "optimizer step")

    p = sub.add_parser("scaling", help="Fig. 9 multi-node scaling")
    p.add_argument("--machine", default="KNM", choices=["SKX", "KNM"])
    p.add_argument("--topology", default="resnet50",
                   choices=["resnet50", "inception_v3"])

    p = sub.add_parser(
        "profile",
        help="trace training steps; dump chrome-trace + metrics JSON",
    )
    p.add_argument("topology", nargs="?", default="resnet_mini",
                   choices=["resnet_mini", "inception_mini"])
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--engine", default="blocked",
                   choices=["fast", "blocked"])
    p.add_argument("--threads", type=int, default=1)
    from repro.jit.tiers import EXECUTION_TIERS

    p.add_argument("--execution-tier", default="compiled",
                   choices=EXECUTION_TIERS,
                   help="kernel-stream execution tier: 'compiled' or the "
                        "trace-safe 'interpret' reference")
    p.add_argument("--trace-out", default="repro_trace.json",
                   help="chrome://tracing JSON output path")
    p.add_argument("--metrics-out", default="repro_metrics.json",
                   help="flat spans/counters/gauges JSON output path")

    def _add_serve_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="resnet_mini",
                       choices=["resnet_mini", "inception_mini"])
        p.add_argument("--width", type=int, default=32)
        p.add_argument("--engine", default="fast",
                       choices=["fast", "blocked"])
        p.add_argument("--execution-tier", default=None,
                       choices=EXECUTION_TIERS)
        p.add_argument("--buckets", default="1,2,4,8,16",
                       help="comma-separated ascending micro-batch sizes")
        p.add_argument("--queue-capacity", type=int, default=256)
        p.add_argument("--batch-window-ms", type=float, default=2.0)
        p.add_argument("--max-queue-wait-ms", type=float, default=None,
                       help="adaptive backpressure: shed once the "
                            "estimated queue wait (service-time EWMA x "
                            "depth) exceeds this budget")
        p.add_argument("--checkpoint", default=None,
                       help="trained weights (.npz) to load into replicas")
        p.add_argument("--tune-db", default=None,
                       help="tuning database (python -m repro tune) "
                            "consulted for every blocked conv layer's "
                            "blocking plan; missing/corrupt falls back "
                            "to the paper heuristics")

    p = sub.add_parser(
        "serve", help="dynamic-batching inference server over HTTP"
    )
    _add_serve_config_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8757)
    p.add_argument("--boot-only", action="store_true",
                   help="boot, report and exit (for scripting / CI)")

    p = sub.add_parser(
        "loadgen", help="synthetic load against an in-process server"
    )
    _add_serve_config_args(p)
    p.add_argument("--mode", default="closed", choices=["closed", "open"])
    p.add_argument("--clients", type=int, default=8,
                   help="closed-loop concurrency")
    p.add_argument("--requests", type=int, default=256,
                   help="closed-loop total submissions")
    p.add_argument("--rate", type=float, default=200.0,
                   help="open-loop arrival rate (req/s)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="open-loop run length (s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--client-timeout", type=float, default=30.0,
                   help="per-request client timeout (s)")
    p.add_argument("--retries", type=int, default=2,
                   help="max client retries on shed/503 (0 disables)")
    p.add_argument("--hedge", action="store_true",
                   help="arm the p95 hedged second attempt "
                        "(closed loop only)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request deadline (relative ms)")
    p.add_argument("--out", default=None,
                   help="write the LoadReport JSON here")

    p = sub.add_parser(
        "tune",
        help="autotune layer blocking; persist winners to a tuning DB",
    )
    p.add_argument("--layers", default="2,4,8,13,18",
                   help="comma-separated Table I layer ids (1-20), or "
                        "'all'")
    p.add_argument("--machine", default="SKX", choices=["SKX", "KNM"])
    p.add_argument("--dtype", default="f32", choices=["f32", "qi16f32"])
    p.add_argument("--minibatch", type=int, default=None,
                   help="Table I minibatch (default: 28 SKX / 70 KNM)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--top-k", type=int, default=8,
                   help="finalists refined empirically and validated")
    p.add_argument("--db", default="tune.json",
                   help="tuning-database artifact to create or extend")
    p.add_argument("--max-candidates", type=int, default=None,
                   help="truncate the mapspace enumeration (CI smoke)")
    p.add_argument("--no-refine", action="store_true",
                   help="skip the cachesim refinement of the finalists")
    p.add_argument("--no-validate", action="store_true",
                   help="skip bit-exact validation (winners are then NOT "
                        "recorded into the database)")

    p = sub.add_parser(
        "incident",
        help="list / inspect / diff / replay forensics incident bundles",
    )
    p.add_argument("action", choices=["list", "show", "replay", "diff"],
                   help="list a directory of bundles; show one bundle's "
                        "manifest; replay one bundle asserting bitwise "
                        "identity; diff two bundles field by field")
    p.add_argument("bundle", nargs="*",
                   help="bundle path(s): none for list (uses --dir), one "
                        "for show/replay, two for diff")
    p.add_argument("--dir", default="incidents",
                   help="incident directory scanned by 'list' "
                        "(default: ./incidents)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip digest verification in 'show' (inspect a "
                        "corrupt bundle; replay always verifies)")

    p = sub.add_parser("disasm", help="print one JIT'ed kernel's µops")
    p.add_argument("--layer", type=int, default=8, choices=range(1, 21),
                   metavar="TABLE1_ID")
    p.add_argument("--machine", default="SKX", choices=["SKX", "KNM"])
    p.add_argument("--dtype", default="f32", choices=["f32", "qi16f32"])
    p.add_argument("--max-lines", type=int, default=48)
    return ap


def _cmd_layers(args) -> int:
    from repro.perf.sweep import resnet50_forward_sweep, resnet50_pass_sweep
    from repro.types import DType

    dtype = DType(args.dtype)
    pass_ = _PASS[args.pass_]
    if pass_ is Pass.FWD:
        fig = resnet50_forward_sweep(
            args.machine, baselines=not args.no_baselines, dtype=dtype
        )
    else:
        fig = resnet50_pass_sweep(args.machine, pass_, dtype=dtype)
    print(fig.table())
    effs = fig.efficiency.get("thiswork")
    if effs:
        print("   % peak " + " ".join(f"{100 * e:7.1f}" for e in effs))
    return 0


def _cmd_fig(args) -> int:
    from repro.perf.sweep import (
        resnet50_forward_sweep,
        resnet50_lowprecision_sweep,
        resnet50_pass_sweep,
    )

    n = args.number
    if n == 4:
        print(resnet50_forward_sweep("SKX").table())
    elif n == 5:
        print(resnet50_pass_sweep("SKX", Pass.BWD).table())
        print(resnet50_pass_sweep("SKX", Pass.UPD).table())
    elif n == 6:
        print(resnet50_forward_sweep("KNM").table())
    elif n == 7:
        print(resnet50_pass_sweep("KNM", Pass.BWD).table())
        print(resnet50_pass_sweep("KNM", Pass.UPD).table())
    elif n == 8:
        for p in (Pass.FWD, Pass.BWD, Pass.UPD):
            print(resnet50_lowprecision_sweep(p).table())
    elif n == 9:
        return _cmd_scaling(argparse.Namespace(machine="KNM",
                                               topology="resnet50")) or \
            _cmd_scaling(argparse.Namespace(machine="SKX",
                                            topology="resnet50"))
    return 0


def _cmd_train(args) -> int:
    from repro.gxm.data import SyntheticImageDataset
    from repro.models.resnet50 import resnet_mini_topology
    from repro.types import ReproError

    if args.checkpoint_every and not args.checkpoint:
        raise ReproError("--checkpoint-every requires --checkpoint")
    topo = resnet_mini_topology(num_classes=8, width=16)
    per_node = args.batch // args.nodes
    ds = SyntheticImageDataset(n=512, num_classes=8, shape=(16, 16, 16),
                               seed=3)
    # periodic autosaves go to a sibling of the final weight dump so a
    # crashed run can be picked up with --resume
    autosave = (
        f"{args.checkpoint}.train" if args.checkpoint_every else None
    )
    if args.process_parallel:
        from repro.gxm.multiproc import ProcessParallelTrainer

        tr = ProcessParallelTrainer(
            topo,
            input_shape=(per_node, 16, 16, 16),
            nodes=args.nodes,
            lr=args.lr,
            allreduce=args.allreduce,
            nan_policy=args.nan_policy,
            checkpoint_path=autosave,
            checkpoint_every=args.checkpoint_every,
        )
        etg = tr.etg
    else:
        from repro.gxm.etg import ExecutionTaskGraph
        from repro.gxm.trainer import Trainer

        etg = ExecutionTaskGraph(
            topo,
            input_shape=(per_node, 16, 16, 16)
            if args.engine == "blocked"
            else (args.batch, 16, 16, 16),
            engine=args.engine,
            seed=7,
        )
        tr = Trainer(
            etg,
            lr=args.lr,
            nodes=args.nodes,
            nan_policy=args.nan_policy,
            checkpoint_path=autosave,
            checkpoint_every=args.checkpoint_every,
        )
    try:
        done = tr.resume(args.resume) if args.resume else 0
        if done:
            print(f"resumed from {args.resume} at step {done}")
        steps_per_epoch = len(ds) // args.batch
        for epoch in range(args.epochs):
            if done >= steps_per_epoch * (epoch + 1):
                continue  # this epoch is fully inside the checkpoint
            # each fit call replays the same deterministic shuffle
            # stream, so skipping the first `done - epoch_start`
            # batches resumes mid-epoch exactly
            tr._resume_skip = max(0, done - steps_per_epoch * epoch)
            tr.fit(ds, batch_size=per_node, epochs=1)
            done = tr.iteration
            m = tr.metrics
            print(
                f"epoch {epoch}: loss {m.losses[-1]:.4f} "
                f"top-1 {100 * m.accuracies[-1]:.1f}%"
            )
    finally:
        if args.process_parallel:
            tr.close()
    if args.checkpoint:
        from repro.gxm.checkpoint import save_checkpoint

        save_checkpoint(etg, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_scaling(args) -> int:
    from repro.gxm.e2e import fig9_scaling
    from repro.perf.references import PAPER_MEASURED

    pts = fig9_scaling(args.machine, args.topology)
    print(f"{args.topology} on {args.machine}:")
    for pt in pts:
        paper = PAPER_MEASURED.get((args.topology, args.machine, pt.nodes))
        ref = f"  (paper {paper:.0f})" if paper else ""
        print(
            f"  {pt.nodes:>2} nodes: {pt.imgs_per_s:7.0f} img/s, "
            f"eff {100 * pt.parallel_efficiency:5.1f}%{ref}"
        )
    return 0


def _cmd_profile(args) -> int:
    """Train a few steps with tracing on; dump chrome-trace + metrics."""
    import numpy as np

    from repro import obs
    from repro.gxm.etg import ExecutionTaskGraph
    from repro.gxm.profiler import TaskProfiler

    from repro.jit.compile import set_default_execution_tier

    tracer = obs.enable()
    set_default_execution_tier(args.execution_tier)
    if args.topology == "resnet_mini":
        from repro.models.resnet50 import resnet_mini_topology

        num_classes = 8
        # width=32 keeps every conv's C/K a multiple of VLEN=16 so the
        # blocked engines (JIT + dryrun + replay) can run the whole net
        topo = resnet_mini_topology(num_classes=num_classes, width=32)
        shape = (args.batch, 16, 16, 16)
    else:
        from repro.models.inception_v3 import inception_mini_topology

        num_classes = 8
        topo = inception_mini_topology(num_classes=num_classes, width=32)
        shape = (args.batch, 16, 12, 12)

    # engine setup (JIT codegen + dryrun spans) happens inside the trace
    etg = ExecutionTaskGraph(
        topo, shape, engine=args.engine, threads=args.threads, seed=7
    )
    prof = TaskProfiler(etg)
    rng = np.random.default_rng(0)
    for _ in range(max(1, args.steps)):
        x = rng.standard_normal(shape).astype(np.float32)
        y = rng.integers(0, num_classes, args.batch)
        prof.step(x, y)
    print(prof.last.report())
    n_events = obs.dump_chrome_trace(args.trace_out)
    report = obs.dump_flat_json(args.metrics_out)
    spans = ", ".join(sorted(report["spans"]))
    print(f"chrome trace: {args.trace_out} ({n_events} events)")
    print(f"metrics:      {args.metrics_out}")
    print(f"span kinds:   {spans}")
    return 0


def _serve_config_from_args(args):
    from repro.serve import ServeConfig

    return ServeConfig(
        model=args.model,
        width=args.width,
        engine=args.engine,
        execution_tier=args.execution_tier,
        buckets=tuple(int(b) for b in args.buckets.split(",")),
        queue_capacity=args.queue_capacity,
        batch_window_ms=args.batch_window_ms,
        max_queue_wait_ms=args.max_queue_wait_ms,
        checkpoint=args.checkpoint,
        tune_db=args.tune_db,
    )


def _boot_server(args):
    """Boot the ``InferenceServer`` the arguments describe, print the
    boot banner, return the server."""
    from repro.serve import InferenceServer

    server = InferenceServer(_serve_config_from_args(args))
    boot = server.start()
    print(
        f"booted {boot['engine']} engine in {boot['boot_s']:.3f}s "
        f"(buckets {list(server.config.buckets)})"
    )
    return server


def _cmd_serve(args) -> int:
    import time

    from repro.serve import serve_http

    server = _boot_server(args)
    if args.boot_only:
        server.stop()
        return 0
    httpd = serve_http(server, host=args.host, port=args.port)
    host, port = httpd.server_address[:2]
    print(f"serving on http://{host}:{port} "
          f"(POST /predict, GET /metrics, GET /healthz, "
          f"POST /admin/drain|resume|reload)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        httpd.shutdown()
        server.stop()
    return 0


def _cmd_loadgen(args) -> int:
    import json

    from repro.serve import ClientConfig, run_closed_loop, run_open_loop

    client_config = ClientConfig(
        timeout_s=args.client_timeout,
        max_retries=args.retries,
        hedge=args.hedge,
        seed=args.seed,
    )
    server = _boot_server(args)
    try:
        if args.mode == "closed":
            report = run_closed_loop(
                server, clients=args.clients, requests=args.requests,
                seed=args.seed, client_config=client_config,
                deadline_ms=args.deadline_ms,
            )
        else:
            report = run_open_loop(
                server, rate_rps=args.rate, duration_s=args.duration,
                seed=args.seed, client_config=client_config,
                deadline_ms=args.deadline_ms,
            )
    finally:
        server.stop()
    lat = report.latency_ms
    print(
        f"{report.mode}: {report.completed}/{report.requests} completed, "
        f"{report.shed} shed, {report.errors} errors, "
        f"{report.timeouts} timeouts, {report.deadline_exceeded} expired, "
        f"{report.retries} retries, {report.hedges} hedges, "
        f"{report.throughput_rps:.0f} req/s"
    )
    if lat:
        print(
            f"latency ms: p50 {lat['p50']:.2f}  p95 {lat['p95']:.2f}  "
            f"p99 {lat['p99']:.2f}  mean {lat['mean']:.2f}"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    return 0


def _cmd_tune(args) -> int:
    import os
    import time

    from repro.arch.machine import machine_by_name
    from repro.models.resnet50 import resnet50_layers
    from repro.tune import TuningDatabase, search_mapspace
    from repro.types import DType

    machine = machine_by_name(args.machine)
    dtype = DType(args.dtype)
    mb = args.minibatch or (70 if machine.name == "KNM" else 28)
    table = dict(resnet50_layers(mb))
    if args.layers.strip().lower() == "all":
        ids = sorted(table)
    else:
        ids = [int(t) for t in args.layers.split(",") if t.strip()]
    validate = not args.no_validate
    db: TuningDatabase
    if os.path.exists(args.db):
        db = TuningDatabase.load(args.db)
        print(f"extending {args.db} ({len(db)} entries)")
    else:
        db = TuningDatabase(args.db)
    print(
        f"machine {machine.name} (fingerprint {machine.fingerprint()}), "
        f"dtype {dtype.value}, minibatch {mb}"
    )
    print(f"{'layer':>5} {'shape':<26} {'points':>6} {'heur':>9} "
          f"{'tuned':>9} {'speedup':>8} {'rej':>4}  winner")
    for lid in ids:
        p = table[lid]
        t0 = time.perf_counter()
        out = search_mapspace(
            p, machine, dtype=dtype, threads=args.threads,
            top_k=args.top_k, refine=not args.no_refine,
            validate=validate, max_candidates=args.max_candidates,
        )
        dt = time.perf_counter() - t0
        if validate:
            db.record(p, machine, dtype, out.entry())
        shape = f"C{p.C} K{p.K} {p.H}x{p.W} {p.R}x{p.S}/{p.stride}"
        print(
            f"{lid:>5} {shape:<26} {out.candidates:>6} "
            f"{out.heuristic.cycles:>9.0f} {out.best.cycles:>9.0f} "
            f"{out.speedup:>7.3f}x {out.rejected:>4}  "
            f"{out.best.candidate.describe()}  [{dt:.1f}s]"
        )
    if validate:
        db.save()
        print(f"database: {args.db} ({len(db)} entries, "
              f"digest {db.digest()[:16]})")
    else:
        print("validation skipped: nothing recorded")
    return 0


def _cmd_incident(args) -> int:
    import json
    from collections import Counter

    from repro.forensics import (
        ReplayMismatch,
        diff_incidents,
        list_incidents,
        load_incident,
        replay_incident,
    )
    from repro.types import ReproError

    def _paths(n: int) -> list[str]:
        if len(args.bundle) != n:
            raise ReproError(
                f"incident {args.action} takes exactly {n} bundle "
                f"path(s), got {len(args.bundle)}"
            )
        return args.bundle

    if args.action == "list":
        rows = list_incidents(args.dir)
        if not rows:
            print(f"no incident bundles under {args.dir}")
            return 0
        for r in rows:
            if not r["valid"]:
                print(f"BAD {r['name']}  {r['error']}")
                continue
            err = (f"{r['error']}: {r['message']}" if r["error"]
                   else "(manual dump)")
            print(f"ok  {r['name']}  kind={r['kind']}  {err}  "
                  f"tensors={','.join(r['tensors']) or '-'}")
        return 0

    if args.action == "show":
        (path,) = _paths(1)
        doc = load_incident(path, verify=not args.no_verify)
        m = dict(doc["manifest"])
        m["events"] = dict(Counter(e["name"] for e in doc["events"]))
        m["tensor_shapes"] = {
            k: list(v.shape) for k, v in sorted(doc["tensors"].items())
        }
        print(json.dumps(m, indent=2, sort_keys=True))
        return 0

    if args.action == "diff":
        a, b = _paths(2)
        rep = diff_incidents(a, b)
        print(json.dumps(rep, indent=2, sort_keys=True))
        return 0 if rep["same"] else 1

    (path,) = _paths(1)
    try:
        rep = replay_incident(path)
    except ReplayMismatch as err:
        print(f"REPLAY MISMATCH: {err}")
        return 1
    print(json.dumps(rep, indent=2, sort_keys=True))
    return 0


def _cmd_disasm(args) -> int:
    from repro.arch.disasm import disassemble, summarize_program
    from repro.arch.machine import machine_by_name
    from repro.models.resnet50 import resnet50_layer
    from repro.perf.model import ConvPerfModel
    from repro.types import DType

    m = machine_by_name(args.machine)
    model = ConvPerfModel(m)
    dtype = DType(args.dtype)
    p = resnet50_layer(args.layer, 70 if m.name == "KNM" else 28)
    plan = model._plan(p, dtype, "thiswork")
    desc = model._fwd_desc(p, plan, dtype, "thiswork")
    from repro.jit.codegen import generate_conv_kernel

    prog = generate_conv_kernel(desc)
    print(summarize_program(prog))
    print(disassemble(prog, max_lines=args.max_lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return {
        "layers": _cmd_layers,
        "fig": _cmd_fig,
        "train": _cmd_train,
        "scaling": _cmd_scaling,
        "disasm": _cmd_disasm,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "tune": _cmd_tune,
        "incident": _cmd_incident,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
