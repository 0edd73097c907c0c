"""The package exports exactly the declared public names, every one resolves, the
package exports exactly its submodules' names, and importing it loads numpy but not
scipy."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cacherec

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cacherec.__path__))


# The public surface, spelled out so that any change to it shows as a diff here.
PUBLIC_NAMES = [
    "CANONICAL_POLICIES", "CachePlacement", "CarsConfig", "CarsIterate", "CarsResult",
    "ConfigError", "CostVector", "InfeasibleQualityError", "MAXITER", "OPTIMAL",
    "OptimInputs", "PopularityVector", "QpSolution", "RESULT_COLUMNS", "RatingsTable",
    "RecMatrix", "RequestModel", "SCHEMA_VERSION", "ScenarioConfig", "SessionConfig",
    "SimMetrics",
    "SimilarityMatrix", "StationaryVector", "TRACE_COLUMNS", "Violation", "__version__",
    "anchored_similarity", "binarize", "build_grid", "cache_hit_ratio", "cars_pi_step",
    "cars_solve", "cars_y_step", "cf_fill", "cosine_similarity", "emit_convergence_trace",
    "expected_cost", "file_sha256", "load_lastfm_triplets", "load_matrix",
    "load_movielens_csv", "myopic_solve", "prepare_lastfm", "prepare_movielens",
    "project_simplex", "prune_with_stats", "quality_of", "residual_c", "run_experiment",
    "sample_rec_list", "save_matrix", "simulate", "solve_qp", "stationary",
    "stationary_direct", "symmetrize_max", "top_c_cache", "top_n_similarity",
    "validate_rec_matrix", "write_provenance", "write_results", "zipf_popularity",
]


def test_package_all_is_the_declared_public_surface():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(cacherec.__all__) == PUBLIC_NAMES


def test_package_all_resolves():
    missing = [name for name in cacherec.__all__ if not hasattr(cacherec, name)]
    assert missing == []
    assert len(set(cacherec.__all__)) == len(cacherec.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"cacherec.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from cacherec import *", namespace)
    assert set(cacherec.__all__) <= set(namespace)


def test_package_all_is_union_of_submodule_alls():
    expected = {"__version__"}
    for name in SUBMODULES:
        if name != "cli":
            expected |= set(importlib.import_module(f"cacherec.{name}").__all__)
    assert set(cacherec.__all__) == expected


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the test run has loaded do not count
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import cacherec, cacherec.cli, json, sys; print(json.dumps([cacherec.__file__, "
            "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))]))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=120)
    origin, scipy_modules = json.loads(out.stdout)
    assert Path(origin).resolve().is_relative_to(src)
    assert scipy_modules == []
