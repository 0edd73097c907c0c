"""Tests for the experiment sweep driver and its config parsing."""

import csv
import io
import json
import time
import types
from dataclasses import replace

import numpy as np
import pytest

from cacherec import experiments, optim
from cacherec.experiments import (
    CANONICAL_POLICIES,
    RESULT_COLUMNS,
    SCHEMA_VERSION,
    TRACE_COLUMNS,
    ConfigError,
    ScenarioConfig,
    build_grid,
    emit_convergence_trace,
    run_experiment,
    write_results,
)
from cacherec.datasets import zipf_popularity
from cacherec.optim import CarsConfig
from cacherec.simulate import SessionConfig, top_c_cache


def small_cfg(**overrides) -> ScenarioConfig:
    """A one-point synthetic scenario small enough for fast sweeps."""
    base = dict(
        dataset={"kind": "synthetic", "size": 12, "mean_related": 6.0, "seed": 3},
        list_sizes=(2,),
        zipf_exponents=(0.7,),
        qualities=(0.5,),
        cache_fractions=(0.25,),
        follow_probs=(0.5,),
        cars=CarsConfig(max_iter=4),
        session=SessionConfig(total_requests=2000, session_param=50),
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def write_config(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def rows_without_wall(rows):
    return [{k: v for k, v in r.items() if k != "wall_millis"} for r in rows]


class TestScenarioConfigFromJson:
    def test_minimal_config_gets_defaults(self, tmp_path):
        path = write_config(tmp_path, {"dataset": {"kind": "synthetic", "size": 8}})
        cfg = ScenarioConfig.from_json(path)
        assert cfg.list_sizes == (4,)
        assert cfg.policies == CANONICAL_POLICIES
        assert cfg.seed == 0
        assert cfg.session.total_requests == 40000
        assert cfg.session.session_kind == "fixed"
        assert cfg.session.session_param == 200

    def test_full_config_round_trip(self, tmp_path):
        payload = {
            "dataset": {"kind": "synthetic", "size": 30, "mean_related": 5.0},
            "list_sizes": [2, 3],
            "zipf_exponents": [0.4, 0.8],
            "qualities": [0.6],
            "cache_fractions": [0.1],
            "follow_probs": [0.3, 0.7],
            "policies": ["norec", "cars"],
            "cars": {"max_iter": 9, "multiplier_step": 1.0, "subproblem_max_iter": 500},
            "session": {"total_requests": 5000, "session_param": 25},
            "seed": 42,
            "output_dir": "out",
        }
        cfg = ScenarioConfig.from_json(write_config(tmp_path, payload))
        assert cfg.list_sizes == (2, 3)
        assert cfg.policies == ("norec", "cars")
        assert cfg.cars.max_iter == 9
        assert cfg.cars.multiplier_step == 1.0
        assert cfg.cars.subproblem_max_iter == 500
        assert cfg.session.total_requests == 5000
        # unspecified session keys keep their defaults
        assert cfg.session.session_kind == "fixed"
        assert cfg.seed == 42
        assert cfg.output_dir == "out"

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"dataset": {"kind": "synthetic", "size": 8}, "sessions": {}}
        )
        with pytest.raises(ConfigError, match="unknown config keys"):
            ScenarioConfig.from_json(path)

    def test_unknown_cars_key_rejected(self, tmp_path):
        # the warm start is set per run; the penalty weight, the accuracy
        # targets and the QP tolerance are constants
        for key in ("y0", "rho", "acc1", "acc2", "subproblem_tol"):
            path = write_config(
                tmp_path,
                {"dataset": {"kind": "synthetic", "size": 8}, "cars": {key: 1.0}},
            )
            with pytest.raises(ConfigError, match="unknown cars keys"):
                ScenarioConfig.from_json(path)

    @pytest.mark.parametrize("cars", [
        {"max_iter": 2.5},
        {"max_iter": 0},
        {"subproblem_max_iter": 100.5},
        {"subproblem_max_iter": 0},
        {"multiplier_step": "abc"},
        {"multiplier_step": float("nan")},
        {"multiplier_step": float("inf")},
        {"multiplier_step": -1.0},
    ])
    def test_bad_cars_cap_rejected(self, tmp_path, cars):
        path = write_config(
            tmp_path, {"dataset": {"kind": "synthetic", "size": 8}, "cars": cars}
        )
        if "multiplier_step" in cars:
            match = "multiplier_step must be a finite number > 0"
        else:
            match = "must be a whole number >= 1"
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_json(path)

    def test_unknown_session_key_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {"dataset": {"kind": "synthetic", "size": 8}, "session": {"length": 4}},
        )
        with pytest.raises(ConfigError, match="unknown session keys"):
            ScenarioConfig.from_json(path)

    @pytest.mark.parametrize("key", ["cars", "session"])
    def test_non_object_block_rejected(self, tmp_path, key):
        path = write_config(tmp_path, {"dataset": {"kind": "synthetic", "size": 8}, key: [4]})
        with pytest.raises(ConfigError, match=f"^'{key}' must be a JSON object$"):
            ScenarioConfig.from_json(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ScenarioConfig.from_json(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            ScenarioConfig.from_json(tmp_path / "absent.json")

    def test_root_must_be_object(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            ScenarioConfig.from_json(path)

    def test_scalar_sweep_value_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"dataset": {"kind": "synthetic", "size": 8}, "list_sizes": 4}
        )
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_json(path)
        assert str(exc.value) == "invalid config: 'int' object is not iterable"


class TestScenarioConfigValidation:
    def test_dataset_kind_required(self):
        with pytest.raises(ConfigError, match="kind"):
            small_cfg(dataset={"kind": "csv", "size": 8})

    def test_synthetic_needs_size(self):
        with pytest.raises(ConfigError, match="size"):
            small_cfg(dataset={"kind": "synthetic"})

    def test_real_dataset_needs_path(self):
        with pytest.raises(ConfigError, match="path"):
            small_cfg(dataset={"kind": "movielens"})

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError, match="qualities"):
            small_cfg(qualities=())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("list_sizes", (0,)),
            ("zipf_exponents", (-0.5,)),
            ("qualities", (1.5,)),
            ("cache_fractions", (0.0,)),
            ("follow_probs", (1.0,)),
            ("list_sizes", (4.5,)),
            ("seed", 1.5),
            ("seed", -1),
            ("dataset", {"kind": "synthetic", "size": 12.7, "mean_related": 6.0, "seed": 3}),
            ("dataset", {"kind": "synthetic", "size": 12, "mean_related": 6.0, "seed": 3.5}),
            ("dataset", {"kind": "synthetic", "size": 12, "min_related": 3.5, "seed": 3}),
            ("dataset", {"kind": "synthetic", "size": 12, "mean_related": 6.0, "seed": -1}),
            ("zipf_exponents", (float("nan"),)),
            ("zipf_exponents", (0.6, float("inf"))),
        ],
    )
    def test_out_of_range_sweep_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            small_cfg(**{field: value})

    def test_whole_floats_read_as_integers(self):
        cfg = small_cfg(
            dataset={"kind": "synthetic", "size": 12.0, "mean_related": 6.0, "seed": 3.0},
            list_sizes=(2.0,), seed=7.0, cars=CarsConfig(max_iter=4.0),
            session=SessionConfig(total_requests=2000.0, session_param=50.0))
        assert isinstance(cfg.seed, int) and isinstance(cfg.session.total_requests, int)
        assert isinstance(cfg.cars.max_iter, int)
        assert rows_without_wall(run_experiment(cfg)) == rows_without_wall(
            run_experiment(small_cfg()))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown policies"):
            small_cfg(policies=("norec", "greedy"))


class TestBuildGrid:
    def test_follow_probs_cycle_fastest(self):
        cfg = small_cfg(list_sizes=(2, 3), follow_probs=(0.1, 0.2))
        grid = build_grid(cfg)
        assert [pt.index for pt in grid] == [0, 1, 2, 3]
        assert [(pt.list_size, pt.follow_prob) for pt in grid] == [
            (2, 0.1),
            (2, 0.2),
            (3, 0.1),
            (3, 0.2),
        ]

    def test_single_point_grid(self):
        grid = build_grid(small_cfg())
        assert len(grid) == 1
        pt = grid[0]
        assert (pt.index, pt.list_size, pt.zipf_s) == (0, 2, 0.7)
        assert (pt.quality, pt.cache_fraction, pt.follow_prob) == (0.5, 0.25, 0.5)


@pytest.fixture(scope="module")
def base_rows():
    return run_experiment(small_cfg())


class TestRunExperiment:
    def test_rows_in_canonical_policy_order(self):
        cfg = small_cfg(policies=("cars", "norec", "myopic"))
        rows = run_experiment(cfg)
        assert [r["policy"] for r in rows] == list(CANONICAL_POLICIES)

    def test_row_schema_complete(self, base_rows):
        for row in base_rows:
            assert set(row) == set(RESULT_COLUMNS)
            assert row["schema_version"] == SCHEMA_VERSION
            assert row["error"] == ""
            assert row["wall_millis"] >= 0.0

    def test_norec_analytic_is_cached_popularity(self, base_rows):
        row = next(r for r in base_rows if r["policy"] == "norec")
        p0 = zipf_popularity(row["catalog_size"], row["zipf_s"])
        cache = top_c_cache(p0, row["cache_size"])
        expected = float(np.asarray(p0)[sorted(cache.cached)].sum())
        assert row["analytic_chr"] == pytest.approx(expected, abs=1e-12)
        assert row["iterations"] == 0

    def test_cache_size_rounded_from_fraction(self, base_rows):
        for row in base_rows:
            assert row["cache_size"] == max(1, round(0.25 * row["catalog_size"]))

    def test_empirical_tracks_analytic(self, base_rows):
        # 3 sigma for a Bernoulli mean over 2000 draws
        bound = 3.0 * np.sqrt(0.25 / 2000)
        for row in base_rows:
            assert abs(row["empirical_chr"] - row["analytic_chr"]) <= bound

    def test_policy_subset_runs_only_requested(self):
        rows = run_experiment(small_cfg(policies=("norec",)))
        assert [r["policy"] for r in rows] == ["norec"]

    def test_seed_stable_under_policy_subset(self, base_rows):
        cars_only = run_experiment(small_cfg(policies=("cars",)))
        full = next(r for r in base_rows if r["policy"] == "cars")
        assert cars_only[0]["seed"] == full["seed"]

    def test_deterministic_across_runs(self, base_rows):
        again = run_experiment(small_cfg())
        assert rows_without_wall(again) == rows_without_wall(base_rows)

    def test_one_myopic_solve_per_grid_point(self, monkeypatch):
        calls = []
        real = experiments.myopic_solve

        def spy(inputs):
            calls.append(float(inputs.quality.max()))
            return real(inputs)

        monkeypatch.setattr(experiments, "myopic_solve", spy)
        rows = run_experiment(small_cfg(qualities=(0.4, 0.5)))
        assert [r["policy"] for r in rows] == list(CANONICAL_POLICIES) * 2
        assert calls == [0.4, 0.5]

    def test_cars_starts_from_the_myopic_rows_matrix(self, monkeypatch):
        # the myopic row's CHR is taken of the matrix that row reports
        rated, warm_starts = [], []
        real_chr, real_cars = experiments.cache_hit_ratio, experiments.cars_solve

        def chr_spy(y, model, cached):
            rated.append(y)
            return real_chr(y, model, cached)

        def cars_spy(inputs, cfg):
            warm_starts.append(cfg.y0)
            return real_cars(inputs, cfg)

        monkeypatch.setattr(experiments, "cache_hit_ratio", chr_spy)
        monkeypatch.setattr(experiments, "cars_solve", cars_spy)
        run_experiment(small_cfg())
        assert len(rated) == 2 and len(warm_starts) == 1
        assert warm_starts[0] is rated[0]

    def test_cars_wall_time_includes_the_myopic_solve(self, monkeypatch):
        real = experiments.myopic_solve

        def slow(inputs):
            time.sleep(0.05)
            return real(inputs)

        monkeypatch.setattr(experiments, "myopic_solve", slow)
        rows = run_experiment(small_cfg())
        wall = {r["policy"]: r["wall_millis"] for r in rows}
        assert wall["myopic"] >= 50.0 and wall["cars"] >= 50.0

    def test_converged_column_carries_cars_result(self, monkeypatch):
        seen = []
        real = experiments.cars_solve

        def spy(inputs, cfg):
            result = real(inputs, cfg)
            seen.append(result.converged)
            return result

        monkeypatch.setattr(experiments, "cars_solve", spy)
        rows = run_experiment(small_cfg())
        assert [r["converged"] for r in rows] == [None, None, seen[0]]

    def test_solver_failure_becomes_error_row(self, monkeypatch):
        real = experiments.myopic_solve

        def flaky(inputs):
            if float(inputs.quality.max()) > 0.85:
                raise RuntimeError("forced failure")
            return real(inputs)

        monkeypatch.setattr(experiments, "myopic_solve", flaky)
        rows = run_experiment(small_cfg(qualities=(0.5, 0.9)))
        assert len(rows) == 6
        failed = [r for r in rows if r["error"]]
        # the failing floor breaks myopic and the warm start of cars
        assert sorted(r["policy"] for r in failed) == ["cars", "myopic"]
        for row in failed:
            assert row["quality_floor"] == 0.9
            assert row["error"] == "RuntimeError: forced failure"
            assert row["analytic_chr"] is None
            assert row["wall_millis"] >= 0.0
        clean = [r for r in rows if not r["error"]]
        assert all(r["analytic_chr"] is not None for r in clean)

    def test_subproblem_failure_becomes_error_row(self, y_step_fails_at_iteration_2):
        rows = run_experiment(small_cfg(policies=("norec", "cars")))
        assert [r["error"] for r in rows] == [
            "",
            "RuntimeError: subproblem failed at iteration 2: forced step failure",
        ]
        assert rows[1]["analytic_chr"] is None
        assert rows[1]["converged"] is None


class TestWriteResults:
    def test_results_csv_written_by_run(self, tmp_path):
        cfg = small_cfg(policies=("norec",), output_dir=str(tmp_path / "out"))
        rows = run_experiment(cfg)
        path = tmp_path / "out" / "results.csv"
        text = path.read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == len(rows) + 1

    def test_converged_written_for_cars_only(self, tmp_path):
        cfg = small_cfg(output_dir=str(tmp_path))
        rows = run_experiment(cfg)
        with open(tmp_path / "results.csv", newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        assert [r["converged"] for r in records[:2]] == ["", ""]
        assert records[2]["converged"] == str(rows[2]["converged"])

    def test_float_and_empty_formatting(self, tmp_path):
        cfg = small_cfg(policies=("norec",))
        rows = run_experiment(cfg)
        rows[0]["iterations"] = None
        path = tmp_path / "results.csv"
        write_results(rows, path)
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        rec = records[0]
        assert rec["iterations"] == ""
        # 17 significant digits reproduce the float bit for bit
        assert float(rec["analytic_chr"]) == rows[0]["analytic_chr"]
        assert rec["policy"] == "norec"


@pytest.fixture(scope="module")
def trace_cfg():
    return small_cfg(
        dataset={"kind": "synthetic", "size": 6, "mean_related": 5.0, "seed": 2},
        cache_fractions=(1 / 6,),
        cars=CarsConfig(),
        seed=0,
    )


class TestConvergenceTrace:
    def test_trace_columns_and_shape(self, trace_cfg):
        buf = io.StringIO()
        rows = emit_convergence_trace(trace_cfg, dest=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == len(rows) + 1
        assert [r[0] for r in rows] == list(range(len(rows)))
        assert len(rows) <= trace_cfg.cars.max_iter + 1

    def test_converged_trace_closes_the_gap(self, trace_cfg):
        rows = emit_convergence_trace(trace_cfg)
        last = rows[-1]
        # at convergence the auxiliary distribution is nearly stationary,
        # so the virtual cost agrees with the exact cost
        assert last[3] <= optim._ACC1
        assert abs(last[1] - last[2]) <= 1e-2
        assert all(np.isfinite(v) for row in rows for v in row[1:])

    def test_trace_file_written_to_output_dir(self, trace_cfg, tmp_path):
        cfg = replace(trace_cfg, output_dir=str(tmp_path / "run"))
        rows = emit_convergence_trace(cfg)
        path = tmp_path / "run" / "trace.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
        assert records[0] == list(TRACE_COLUMNS)
        assert len(records) == len(rows) + 1
        assert float(records[1][1]) == rows[0][1]

    def test_trace_is_the_cars_row_solve(self):
        # the trace's best iterate is the matrix the sweep's cars row reports
        cfg = small_cfg(policies=("cars",))
        rows = emit_convergence_trace(cfg)
        (row,) = run_experiment(cfg)
        assert row["iterations"] == len(rows) - 1
        assert 1.0 - min(r[1] for r in rows) == pytest.approx(row["analytic_chr"], abs=1e-12)

    def test_solver_failure_raises(self, trace_cfg, monkeypatch):
        fake = types.SimpleNamespace(message="subproblem failed at iteration 2")
        monkeypatch.setattr(experiments, "cars_solve", lambda *a, **k: fake)
        with pytest.raises(RuntimeError, match="subproblem failed"):
            emit_convergence_trace(trace_cfg)
