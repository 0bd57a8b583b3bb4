"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import attribution, spec, workloads  # noqa: E402
from perfbench.run import END_TO_END_UNITS  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _wrapped_attrs():
    """(owner, attr) of every method the traced run wraps."""
    from perfbench.spans import SpanRecorder, install_program_layers

    rec = SpanRecorder()
    install_program_layers(rec)
    found = [(owner, attr) for owner, attr, _ in rec._saved]
    rec.restore()
    return found


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def serve_traced():
    before = {(o, a): o.__dict__[a] for o, a in _wrapped_attrs()}
    report = workloads.run_serve("serve_fast_light", 3, 1.0, trace=True)
    after = {(o, a): o.__dict__[a] for o, a in before}
    return report, before, after


@pytest.fixture(scope="module")
def train_traced():
    before = {(o, a): o.__dict__[a] for o, a in _wrapped_attrs()}
    report = workloads.run_train("train_blocked", 3, 0.8, trace=True)
    after = {(o, a): o.__dict__[a] for o, a in before}
    return report, before, after


# (a) tracing leaves the program exactly as it found it ------------------
@pytest.mark.parametrize("which", ["serve_traced", "train_traced"])
def test_traced_run_restores_wrapped_functions(which, request):
    report, before, after = request.getfixturevalue(which)
    assert before and all(after[k] is before[k] for k in before)
    assert report.spans, "the traced pass recorded no spans"


def test_traced_outputs_bitwise_equal_untraced(serve_traced, train_traced):
    from perfbench.run import _outputs_identical

    serve, _, _ = serve_traced
    assert serve.outputs["traced"] == serve.outputs["untraced"]
    assert all(h is not None for h in serve.outputs["traced"])
    train, _, _ = train_traced
    # the traced pass replays the untraced pass's steps from its start
    untraced, traced = train.outputs["untraced"], train.outputs["traced"]
    assert traced and traced[0][:2] == untraced[0][:2]
    assert _outputs_identical(train)
    for report in (serve, train):
        assert report.failed == 0 and report.mismatches == 0


def test_output_identity_needs_a_compared_operation():
    from perfbench.run import _outputs_identical

    report = workloads.Report("train_blocked")
    report.outputs = {"untraced": [(0, 1, "a", "b")], "traced": []}
    assert not _outputs_identical(report)
    report.outputs["traced"] = [(0, 1, "a", "c")]
    assert not _outputs_identical(report)
    report.outputs["traced"] = [(0, 1, "a", "b")]
    assert _outputs_identical(report)


# (b) the seed alone fixes the inputs -------------------------------------
@pytest.mark.parametrize("workload", ["serve_fast_light", "serve_blocked_burst"])
def test_same_seed_same_schedule(workload):
    a = spec.schedule(workload, 11, 5.0)
    assert a == spec.schedule(workload, 11, 5.0)
    assert a != spec.schedule(workload, 12, 5.0)
    assert a and all(t1 <= t2 for (t1, _), (t2, _) in zip(a, a[1:]))


def test_burst_schedule_uses_every_size_once_per_cycle():
    sizes = [len(p) for _, p in spec.schedule("serve_blocked_burst", 4, 60)]
    assert sorted(sizes[:16]) == list(range(1, 17))


def test_windowed_percentile_ignores_a_short_stall():
    samples = [(i / 10, 5.0) for i in range(100)]
    samples[33] = (3.3, 500.0)  # one stalled window out of ten
    assert attribution.windowed_pct(samples, 0.0, 10.0, 90, 10) == 5.0
    assert attribution.pct([v for _, v in samples], 100) == 500.0


def test_same_trajectory_same_training_data():
    x1, y1 = spec.train_data(spec.trajectory_for_seed(5))
    x2, y2 = spec.train_data(spec.trajectory_for_seed(5))
    assert spec.digest(x1, y1) == spec.digest(x2, y2)


# (c) self times plus the leftover account for the traced total ----------
def test_serve_attribution_adds_up(serve_traced):
    acc = serve_traced[0].accounting
    assert acc["requests"] > 0
    parts = acc["latency_parts_ms"]
    assert sum(parts.values()) == pytest.approx(acc["latency_total_ms"],
                                                rel=1e-9)
    assert all(parts[k] >= 0 for k in ("batcher", "run"))
    # no request is booked more time than it waited for: each part fits
    # between its due time and its answer
    assert acc["min_queue_wait_ms"] >= -1e-6
    assert acc["min_unattributed_ms"] >= -1e-6
    # each traced request sits in one batch built from exactly the
    # requests taken and replayed once, and those batches' runs are the
    # recorded EngineReplica.run spans
    assert acc["batched_requests"] == acc["requests"]
    assert acc["batches_inconsistent"] == 0
    assert acc["batch_run_total_ms"] == pytest.approx(acc["run_total_ms"],
                                                      rel=1e-9)
    assert sum(acc["run_parts_ms"].values()) == pytest.approx(
        acc["run_total_ms"], rel=1e-9)


def test_train_attribution_adds_up(train_traced):
    acc = train_traced[0].accounting
    assert acc["steps"] > 0
    parts = acc["step_parts_ms"]
    assert sum(parts.values()) == pytest.approx(acc["span_total_ms"], rel=1e-9)
    # the spans cover the steps the loop timed, up to the root wrapper
    assert acc["span_total_ms"] == pytest.approx(acc["step_total_ms"], rel=0.01)
    for p in attribution.PASSES:
        assert parts[f"conv.kernel.{p}"] > 0
        assert parts[f"tensor.layout.{p}"] > 0


# correctness checks catch a wrong answer -----------------------------------
def test_wrong_reference_is_a_failure(monkeypatch):
    real = spec.load_refs

    def corrupted(name):
        doc = real(name)
        doc["probs_hex"] = ["00" * 32] * len(doc["probs_hex"])
        return doc

    monkeypatch.setattr(spec, "load_refs", corrupted)
    report = workloads.run_serve("serve_fast_light", 3, 0.3, trace=False)
    assert report.mismatches > 0 and report.failed >= report.mismatches


# the ledger and the count-valued metrics -----------------------------------
def test_counts_repeat_exactly_across_two_runs():
    counts = []
    for _ in range(2):
        proc = subprocess.run(
            [*RUN, "--workload", "train_blocked", "--seed", "2",
             "--seconds", "0.5", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        m = _last_json(proc.stdout)["metrics"]
        counts.append({k: v["value"] for k, v in m.items()
                       if v["unit"] == "count" and k != "serve.batches"
                       or k.endswith(("model_us", "_per_img"))})
    assert counts[0] == counts[1]
    for p in attribution.PASSES:
        assert counts[0][f"jit.kernel_calls.{p}"] > 0
    assert counts[0]["jit.variants"] > 0


def test_ledger_covers_every_conv_layer_and_pass():
    metrics, rows = attribution.ledger()
    assert [r["layer"] for r in rows] == list(attribution.CONV_LAYERS)
    for layer in attribution.CONV_LAYERS:
        for p in attribution.PASSES:
            assert metrics[f"conv.{layer}.{p}.model_us"] > 0


# the benchmark's contract ------------------------------------------------
def test_benchmark_json_lists_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == spec.workload_names()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (n, attribution.unit(n), attribution.better(n))
        for n in attribution.per_layer_names()
    ]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_fast_light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
