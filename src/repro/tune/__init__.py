"""Cost-model-driven mapspace autotuning with a persistent database.

The subsystem ROADMAP item 1 asks for, FactorFlow-style:

* :mod:`repro.tune.mapspace` -- the feasible variant space per layer
  (register blocks, L2 cache blocks, loop order, prefetch levels) under
  per-dimension divisibility and register-budget constraints;
* :mod:`repro.tune.cost` -- analytical pricing (µop kernel timing +
  blocked-loop traffic + partial-overlap roofline) and cachesim-measured
  refinement;
* :mod:`repro.tune.searcher` -- pruned exhaustive search, top-k
  empirical refinement, bit-exact interpreter validation of winners;
* :mod:`repro.tune.db` -- the atomic, digest-verified tuning database
  keyed by ``(machine fingerprint, dtype, layer shape)`` that
  ``make_engine(tuned=...)`` and the blocked serve engine consult
  transparently.

Offline population: ``python -m repro tune --layers 2,4 --db tune.json``.
"""

from repro.tune.cost import CandidateCost, price_candidate, refine_cost
from repro.tune.db import (
    TuneEntry,
    TuningDatabase,
    TuningDBError,
    entry_key,
    get_default_db,
    layer_key,
    resolve_db,
    set_default_db,
)
from repro.tune.mapspace import (
    Candidate,
    Mapspace,
    build_mapspace,
    feasible_rb_pairs,
)
from repro.tune.searcher import (
    TuneOutcome,
    search_mapspace,
    tune_layer,
    validate_candidate,
)

__all__ = [
    "Candidate",
    "CandidateCost",
    "Mapspace",
    "TuneEntry",
    "TuneOutcome",
    "TuningDBError",
    "TuningDatabase",
    "build_mapspace",
    "entry_key",
    "feasible_rb_pairs",
    "get_default_db",
    "layer_key",
    "price_candidate",
    "refine_cost",
    "resolve_db",
    "search_mapspace",
    "set_default_db",
    "tune_layer",
    "validate_candidate",
]
