"""repro.tune: mapspace, search, tuning database, engine integration."""

import json

import numpy as np
import pytest

from repro.arch.machine import KNM, SKX
from repro.conv.blocking import accumulator_budget
from repro.conv.engine import make_engine
from repro.conv.params import ConvParams
from repro.obs.metrics import get_metrics
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.tune import (
    TuningDatabase,
    TuningDBError,
    build_mapspace,
    entry_key,
    feasible_rb_pairs,
    search_mapspace,
    tune_layer,
)
from repro.types import CodegenError, DType, Pass, ReproError

P_SMALL = ConvParams(N=1, C=16, K=16, H=10, W=10, R=3, S=3, stride=1)
P_1X1 = ConvParams(N=1, C=32, K=16, H=10, W=10, R=1, S=1, stride=1)


@pytest.fixture
def clean_metrics():
    get_metrics().clear()
    yield get_metrics()
    get_metrics().clear()


def _small_search(**kw):
    kw.setdefault("top_k", 3)
    kw.setdefault("max_candidates", 120)
    return search_mapspace(P_SMALL, SKX, **kw)


# ---------------------------------------------------------------------------
class TestMapspace:
    def test_rb_pairs_respect_budget_and_extents(self):
        budget = accumulator_budget(SKX)
        for rb_p, rb_q in feasible_rb_pairs(P_SMALL, SKX):
            assert rb_p * rb_q <= budget
            assert rb_p <= P_SMALL.P and rb_q <= P_SMALL.Q

    def test_rb_pairs_prune_high_waste_factors(self):
        # Q=10: rb_q=7 leaves remainder 3 > 7/2? no (3 <= 3.5) -- but
        # rb_q=6 leaves 4 > 3, which must be pruned (not the extent)
        pairs = feasible_rb_pairs(P_SMALL, SKX)
        assert all(rb_q != 6 for _, rb_q in pairs)
        assert any(rb_q == 10 for _, rb_q in pairs)  # the full extent

    def test_q16_budget_is_capped(self):
        budget = accumulator_budget(KNM, DType.QI16F32)
        assert budget == 13
        p = ConvParams(N=1, C=32, K=32, H=28, W=28, R=3, S=3, stride=1)
        for rb_p, rb_q in feasible_rb_pairs(p, KNM, DType.QI16F32):
            assert rb_p * rb_q <= 13

    def test_enumeration_is_deterministic(self):
        a = list(build_mapspace(P_SMALL, SKX).candidates())
        b = list(build_mapspace(P_SMALL, SKX).candidates())
        assert a == b
        assert len(a) == build_mapspace(P_SMALL, SKX).size

    def test_cb_inner_only_for_1x1(self):
        assert build_mapspace(P_SMALL, SKX).loop_orders == ("cb_outer",)
        assert "cb_inner" in build_mapspace(P_1X1, SKX).loop_orders

    def test_rejects_non_vlen_feature_maps(self):
        bad = ConvParams(N=1, C=24, K=16, H=10, W=10, R=3, S=3, stride=1)
        with pytest.raises(CodegenError, match="VLEN"):
            build_mapspace(bad, SKX)

    def test_rejects_unknown_prefetch_mode(self):
        with pytest.raises(CodegenError, match="prefetch"):
            build_mapspace(P_SMALL, SKX, prefetch_modes=("warp",))

    def test_heuristic_candidate_is_in_space(self):
        space = build_mapspace(P_SMALL, SKX)
        heur = space.heuristic_candidate()
        assert (heur.rb_p, heur.rb_q) in space.rb_pairs

    def test_candidate_plan_matches_engine_expectations(self):
        space = build_mapspace(P_SMALL, SKX)
        cand = next(space.candidates())
        plan = cand.plan(P_SMALL, SKX)
        assert plan.acc_regs == cand.rb_p * cand.rb_q
        assert plan.rb_q_rem == P_SMALL.Q % cand.rb_q


# ---------------------------------------------------------------------------
class TestSearch:
    def test_search_is_deterministic(self, clean_metrics):
        a = _small_search()
        b = _small_search()
        assert a.best.candidate == b.best.candidate
        assert [c.candidate for c in a.ranking] == [
            c.candidate for c in b.ranking
        ]

    def test_ranking_is_sorted_with_stable_tiebreak(self, clean_metrics):
        out = _small_search()
        keys = [c.sort_key() for c in out.ranking]
        assert keys == sorted(keys)

    def test_winner_never_prices_worse_than_heuristic(self, clean_metrics):
        out = _small_search()
        assert out.best.cycles <= out.heuristic.cycles
        assert out.speedup >= 1.0

    def test_winner_is_validated_bit_exact(self, clean_metrics):
        out = _small_search()
        assert out.validated and out.rejected == 0
        assert clean_metrics.value("tune.layers_tuned") == 1
        assert clean_metrics.value("tune.candidates_priced") > 0

    def test_q16_search_validates(self, clean_metrics):
        p = ConvParams(N=1, C=16, K=16, H=8, W=8, R=1, S=1, stride=1)
        out = search_mapspace(
            p, KNM, dtype=DType.QI16F32, top_k=2, max_candidates=60,
        )
        assert out.validated
        assert out.best.candidate.rb_p * out.best.candidate.rb_q <= 13

    def test_fault_injection_rejects_candidates_and_continues(
        self, clean_metrics
    ):
        plan = FaultPlan(specs=(
            FaultSpec(site="tune.candidate", kind="corrupt_message",
                      count=2),
        ))
        inj = FaultInjector(plan)
        out = _small_search(injector=inj)
        # the first two finalists were corrupted and must be rejected;
        # the search continues and still lands a validated winner
        assert out.rejected == 2
        assert out.validated
        assert clean_metrics.value("tune.candidates_rejected") == 2

    def test_outcome_entry_roundtrips_the_plan(self, clean_metrics):
        out = _small_search()
        entry = out.entry()
        assert entry.validated
        assert entry.plan() == out.plan
        assert entry.speedup == pytest.approx(out.speedup)


# ---------------------------------------------------------------------------
class TestTuningDatabase:
    @pytest.fixture(scope="class")
    def outcome(self):
        return search_mapspace(P_SMALL, SKX, top_k=2, max_candidates=80)

    def test_roundtrip_atomic_save_and_load(self, tmp_path, outcome):
        db = TuningDatabase()
        db.record(P_SMALL, SKX, DType.F32, outcome.entry())
        path = tmp_path / "tune.json"
        db.save(path)
        assert not list(tmp_path.glob("*.tmp.*"))  # temp sibling replaced
        loaded = TuningDatabase.load(path)
        assert loaded.keys() == db.keys()
        got = loaded.lookup(P_SMALL, SKX, DType.F32)
        assert got == outcome.entry()
        assert loaded.digest() == db.digest()

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TuningDatabase.load(tmp_path / "absent.json")

    def test_corrupt_json_rejected_as_stale_artifact(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{ not json")
        with pytest.raises(TuningDBError, match="JSON"):
            TuningDatabase.load(path)
        assert issubclass(TuningDBError, ReproError)

    def test_digest_mismatch_rejected(self, tmp_path, outcome):
        db = TuningDatabase()
        db.record(P_SMALL, SKX, DType.F32, outcome.entry())
        path = tmp_path / "tune.json"
        db.save(path)
        doc = json.loads(path.read_text())
        key = next(iter(doc["entries"]))
        doc["entries"][key]["rb_p"] += 1  # tamper without re-digesting
        path.write_text(json.dumps(doc))
        with pytest.raises(TuningDBError, match="digest"):
            TuningDatabase.load(path)

    def test_foreign_format_and_version_rejected(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text(json.dumps({"format": "repro.streams/v1"}))
        with pytest.raises(TuningDBError, match="format"):
            TuningDatabase.load(path)
        path.write_text(json.dumps(
            {"format": "repro.tune/v1", "version": 99}))
        with pytest.raises(TuningDBError, match="version"):
            TuningDatabase.load(path)

    def test_record_refuses_unvalidated_entries(self, outcome):
        import dataclasses

        bad = dataclasses.replace(outcome.entry(), validated=False)
        with pytest.raises(TuningDBError, match="unvalidated"):
            TuningDatabase().record(P_SMALL, SKX, DType.F32, bad)

    def test_entry_key_is_minibatch_independent(self):
        import dataclasses

        p64 = dataclasses.replace(P_SMALL, N=64)
        assert entry_key(P_SMALL, SKX, DType.F32) == entry_key(
            p64, SKX, DType.F32
        )
        assert entry_key(P_SMALL, SKX, DType.F32) != entry_key(
            P_SMALL, KNM, DType.F32
        )
        assert entry_key(P_SMALL, SKX, DType.F32) != entry_key(
            P_SMALL, SKX, DType.QI16F32
        )

    def test_tune_layer_records(self, tmp_path):
        db = TuningDatabase(tmp_path / "tune.json")
        out = tune_layer(
            P_SMALL, SKX, db, top_k=2, max_candidates=80,
        )
        assert len(db) == 1
        assert db.lookup(P_SMALL, SKX, DType.F32) == out.entry()


# ---------------------------------------------------------------------------
class TestMachineFingerprint:
    def test_stable_and_distinct(self):
        assert SKX.fingerprint() == SKX.fingerprint()
        assert SKX.fingerprint() != KNM.fingerprint()
        assert len(SKX.fingerprint()) == 16

    def test_sensitive_to_config_fields(self):
        import dataclasses

        tweaked = dataclasses.replace(SKX, l2_bytes=SKX.l2_bytes * 2)
        assert tweaked.fingerprint() != SKX.fingerprint()


# ---------------------------------------------------------------------------
class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def db_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tunedb") / "tune.json"
        db = TuningDatabase(path)
        tune_layer(P_SMALL, SKX, db, top_k=2, max_candidates=80)
        db.save()
        return path

    def test_tuned_engine_uses_db_plan(self, db_path, clean_metrics):
        db = TuningDatabase.load(db_path)
        entry = db.lookup(P_SMALL, SKX, DType.F32)
        eng = make_engine(Pass.FWD, P_SMALL, tuned=db_path)
        assert eng.plan == entry.plan()
        assert eng.prefetch == entry.prefetch
        assert clean_metrics.value("tune.db_hits") == 1

    def test_tuned_engine_matches_heuristic_bitwise(self, db_path, rng):
        x = rng.standard_normal(
            (P_SMALL.N, P_SMALL.C, P_SMALL.H, P_SMALL.W)
        ).astype(np.float32)
        w = rng.standard_normal(
            (P_SMALL.K, P_SMALL.C, P_SMALL.R, P_SMALL.S)
        ).astype(np.float32)
        tuned = make_engine(Pass.FWD, P_SMALL, tuned=db_path)
        heur = make_engine(Pass.FWD, P_SMALL)
        assert (
            tuned.run_nchw(x, w).tobytes() == heur.run_nchw(x, w).tobytes()
        )

    def test_missing_db_falls_back_silently(self, tmp_path, clean_metrics):
        eng = make_engine(
            Pass.FWD, P_SMALL, tuned=tmp_path / "absent.json"
        )
        heur = make_engine(Pass.FWD, P_SMALL)
        assert eng.plan == heur.plan
        assert clean_metrics.value("tune.db_missing") == 1

    def test_corrupt_db_falls_back_silently(self, tmp_path, clean_metrics):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope"}')
        eng = make_engine(Pass.FWD, P_SMALL, tuned=path)
        heur = make_engine(Pass.FWD, P_SMALL)
        assert eng.plan == heur.plan
        assert clean_metrics.value("tune.db_rejected") == 1

    def test_db_without_entry_falls_back(self, db_path, clean_metrics):
        other = ConvParams(N=1, C=32, K=32, H=10, W=10, R=3, S=3, stride=1)
        eng = make_engine(Pass.FWD, other, tuned=db_path)
        assert eng.plan == make_engine(Pass.FWD, other).plan
        assert clean_metrics.value("tune.db_misses") == 1

    def test_explicit_plan_wins_over_db(self, db_path):
        heur_plan = make_engine(Pass.FWD, P_SMALL).plan
        eng = make_engine(Pass.FWD, P_SMALL, plan=heur_plan, tuned=db_path)
        assert eng.plan == heur_plan

    def test_tuned_only_applies_to_forward(self, db_path, clean_metrics):
        make_engine(Pass.BWD, P_SMALL, tuned=db_path)
        assert clean_metrics.value("tune.db_hits") == 0

    def test_kernel_cache_counts_tuned_plans(self, db_path):
        from repro.jit.kernel_cache import KernelCache

        cache = KernelCache()
        make_engine(Pass.FWD, P_SMALL, tuned=db_path, kernel_cache=cache)
        assert cache.stats()["tuned_plans"] == 1


# ---------------------------------------------------------------------------
class TestServeIntegration:
    def test_serve_config_fingerprint_tracks_db_content(self, tmp_path):
        from repro.serve import ServeConfig

        base = ServeConfig()
        missing = ServeConfig(tune_db=str(tmp_path / "absent.json"))
        # an unusable database behaves like no database
        assert missing.fingerprint() == base.fingerprint()

        db = TuningDatabase(tmp_path / "tune.json")
        tune_layer(P_SMALL, SKX, db, top_k=2, max_candidates=80)
        db.save()
        tuned = ServeConfig(tune_db=str(tmp_path / "tune.json"))
        assert tuned.fingerprint() != base.fingerprint()

    def test_etg_threads_tuned_to_conv_nodes(self, tmp_path, clean_metrics):
        from repro.gxm.etg import ExecutionTaskGraph
        from repro.models.resnet50 import resnet_mini_topology

        from repro.gxm.nodes import ConvNode

        # width=32 keeps every conv's C/K a multiple of VLEN=16 so the
        # blocked engines can run the whole net; tune the smallest conv
        # shape actually present in the topology
        topo = resnet_mini_topology(num_classes=4, width=32)
        probe = ExecutionTaskGraph(topo, (1, 16, 8, 8), engine="fast")
        shapes = {
            n.p for n in probe.nodes.values() if isinstance(n, ConvNode)
        }
        smallest = min(shapes, key=lambda q: q.C * q.K * q.H * q.W * q.R)
        db = TuningDatabase(tmp_path / "tune.json")
        tune_layer(smallest, SKX, db, top_k=2, max_candidates=60)
        db.save()
        ExecutionTaskGraph(
            topo, (1, 16, 8, 8), engine="blocked",
            tuned=str(tmp_path / "tune.json"),
        )
        # at least the tuned shape hit; every other conv shape fell back
        assert clean_metrics.value("tune.db_hits") >= 1
        assert clean_metrics.value("tune.db_misses") >= 1
