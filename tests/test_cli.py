"""End-to-end tests for the command-line interface.

Every test drives `cacherec.cli.main` in process and asserts on exit
codes, emitted files, and stream output.
"""

import csv
import importlib
import json
import pkgutil
import re
import shlex
import sys
import types
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest

import cacherec
from cacherec import cli, experiments
from cacherec.experiments import RESULT_COLUMNS, TRACE_COLUMNS
from cacherec.serialize import file_sha256, load_matrix


def write_scenario(tmp_path, **overrides):
    payload = {
        "dataset": {"kind": "synthetic", "size": 12, "mean_related": 6.0, "seed": 3},
        "list_sizes": [2],
        "zipf_exponents": [0.7],
        "qualities": [0.5],
        "cache_fractions": [0.25],
        "follow_probs": [0.5],
        "policies": ["norec"],
        "session": {"total_requests": 400, "session_param": 40},
        "seed": 7,
    }
    payload.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def lastfm_file(tmp_path, nodes=6):
    # complete graph: every node keeps degree nodes-1 after symmetrization
    ids = [f"s{i}" for i in range(nodes)]
    lines = [
        f"{ids[i]}\t{ids[j]}\t0.8"
        for i in range(nodes)
        for j in range(i + 1, nodes)
    ]
    path = tmp_path / "sim.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_cli_lines():
    """Command lines of the README's CLI section, continuation lines joined."""
    block = readme_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line[0].isspace() and lines:
            lines[-1] += " " + line.strip()
        else:
            lines.append(line.strip())
    return lines


README_CLI_LINES = readme_cli_lines()


def read_results(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestRunCommand:
    def test_run_writes_results(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        records = read_results(out / "results.csv")
        assert [r["policy"] for r in records] == ["norec"]
        captured = capsys.readouterr()
        assert "(1 rows, 0 failed)" in captured.out

    def test_run_defaults_to_working_directory(self, tmp_path, monkeypatch):
        cfg = write_scenario(tmp_path)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["run", "--config", str(cfg)])
        assert rc == 0
        assert (tmp_path / "results.csv").exists()

    def test_policies_override(self, tmp_path):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(
            ["run", "--config", str(cfg), "--out", str(out),
             "--policies", "norec,myopic"]
        )
        assert rc == 0
        records = read_results(out / "results.csv")
        assert [r["policy"] for r in records] == ["norec", "myopic"]

    def test_seed_override_changes_row_seeds(self, tmp_path):
        cfg = write_scenario(tmp_path)
        seeds = []
        for seed in ("1", "2"):
            out = tmp_path / f"out{seed}"
            rc = cli.main(
                ["run", "--config", str(cfg), "--out", str(out), "--seed", seed]
            )
            assert rc == 0
            seeds.append(read_results(out / "results.csv")[0]["seed"])
        assert seeds[0] != seeds[1]

    def test_same_seed_reproduces_results(self, tmp_path):
        cfg = write_scenario(tmp_path)
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(
                ["run", "--config", str(cfg), "--out", str(out), "--seed", "5"]
            )
            assert rc == 0
            records = read_results(out / "results.csv")
            for r in records:
                r.pop("wall_millis")
            texts.append(records)
        assert texts[0] == texts[1]

    def test_partial_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        def boom(inputs):
            raise RuntimeError("forced failure")

        monkeypatch.setattr(experiments, "myopic_solve", boom)
        cfg = write_scenario(tmp_path, policies=["norec", "myopic"])
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "(2 rows, 1 failed)" in captured.out
        assert "grid 0 myopic: RuntimeError: forced failure" in captured.err
        records = read_results(out / "results.csv")
        by_policy = {r["policy"]: r for r in records}
        assert by_policy["myopic"]["error"] == "RuntimeError: forced failure"
        assert by_policy["norec"]["error"] == ""

    def test_subproblem_failure_exits_two(self, tmp_path, capsys,
                                          y_step_fails_at_iteration_2):
        cfg = write_scenario(tmp_path, policies=["norec", "cars"])
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "(2 rows, 1 failed)" in captured.out
        assert captured.err.strip() == ("grid 0 cars: RuntimeError: subproblem failed "
                                        "at iteration 2: forced step failure")
        assert [r["error"] for r in read_results(out / "results.csv")] == [
            "", "RuntimeError: subproblem failed at iteration 2: forced step failure"]

    def test_missing_config_exits_one(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("{oops", encoding="utf-8")
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps({"dataset": {"kind": "synthetic", "size": 8}, "turbo": 1}),
            encoding="utf-8",
        )
        assert cli.main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize("override", [
        {"list_sizes": [4.5]},
        {"session": {"total_requests": 2000.5}},
        {"session": {"total_requests": 400, "session_param": 50.7}},
        {"seed": 1.5},
        {"dataset": {"kind": "synthetic", "size": 12.7, "mean_related": 6.0, "seed": 3}},
        {"dataset": {"kind": "synthetic", "size": 12, "mean_related": 6.0, "seed": 3.5}},
        {"cars": {"max_iter": 2.5}},
        {"cars": {"subproblem_max_iter": 100.5}},
    ])
    def test_non_integral_count_exits_one(self, tmp_path, capsys, override):
        cfg = write_scenario(tmp_path, **override)
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "whole number" in err[0]
        assert not (tmp_path / "o").exists()

    def test_bad_policies_override_exits_one(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        rc = cli.main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--policies", "norec,bogus"]
        )
        assert rc == 1
        assert "config error" in capsys.readouterr().err


DATASET_FAILURES = {
    # a mean of 3 relations cannot give every content more than 4
    "synthetic-degree-floor": (
        {"kind": "synthetic", "size": 60, "mean_related": 3.0, "seed": 3},
        "synthetic dataset: mean_related 3 must lie in [floor 5, size 60) at list size 4",
    ),
    "movielens-missing-file": (
        {"kind": "movielens", "path": "absent.csv"},
        "movielens dataset: ",
    ),
    "movielens-short-row": (
        {"kind": "movielens", "path": "short.csv"},
        "movielens dataset: line 3: ",
    ),
    "matrix-missing-file": (
        {"kind": "matrix", "path": "absent.txt"},
        "matrix dataset: ",
    ),
}


# a ratings file whose second data row has too few fields
SHORT_ROW_CSV = "userId,movieId,rating,timestamp\n1,10,4.0,0\n1,11\n"


class TestDatasetErrors:
    @pytest.mark.parametrize("command", ["run", "trace"])
    @pytest.mark.parametrize("case", sorted(DATASET_FAILURES))
    def test_dataset_failure_exits_one_with_message(self, tmp_path, capsys,
                                                    command, case):
        dataset, message = DATASET_FAILURES[case]
        (tmp_path / "short.csv").write_text(SHORT_ROW_CSV, encoding="utf-8")
        if "path" in dataset:
            dataset = dict(dataset, path=str(tmp_path / dataset["path"]))
        cfg = write_scenario(tmp_path, dataset=dataset, list_sizes=[4])
        rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: " + message)


def assert_threads_rejected(tmp_path, capsys, threads):
    """Run the scenario with `--threads threads`, which must exit 1 from
    argument parsing and write no results."""
    cfg = write_scenario(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--threads", threads])
    assert exc.value.code == 1
    assert "--threads: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.csv").exists()


class TestThreadResolution:
    """The sweep is serial; `--threads` is parsed only with the value 1,
    which perfbench's sweep workload passes."""

    def test_threads_one_matches_no_flag(self, tmp_path):
        cfg = write_scenario(tmp_path)
        tables = []
        for out, extra in (("plain", []), ("one", ["--threads", "1"])):
            argv = ["run", "--config", str(cfg), "--out", str(tmp_path / out)]
            assert cli.main(argv + extra) == 0
            with open(tmp_path / out / "results.csv", newline="") as fh:
                tables.append([{k: v for k, v in row.items() if k != "wall_millis"}
                               for row in csv.DictReader(fh)])
        assert tables[0] == tables[1]

    def test_threads_above_one_exits_one(self, tmp_path, capsys):
        assert_threads_rejected(tmp_path, capsys, "2")

    def test_threads_below_one_exits_one(self, tmp_path, capsys):
        assert_threads_rejected(tmp_path, capsys, "0")


def trace_scenario(tmp_path, **overrides):
    return write_scenario(tmp_path, **{
        "dataset": {"kind": "synthetic", "size": 6, "mean_related": 5.0, "seed": 2},
        "cache_fractions": [1 / 6],
        **overrides,
    })


class TestTraceCommand:
    def test_trace_to_stdout(self, tmp_path, capsys):
        cfg = trace_scenario(tmp_path)
        rc = cli.main(["trace", "--config", str(cfg)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) >= 2

    def test_trace_to_file(self, tmp_path, capsys):
        cfg = trace_scenario(tmp_path)
        out = tmp_path / "run"
        rc = cli.main(["trace", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert "iterates" in capsys.readouterr().out
        with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
        assert records[0] == list(TRACE_COLUMNS)
        assert len(records) >= 2

    def test_unconverged_trace_exits_zero_with_every_iterate(self, tmp_path, capsys,
                                                             monkeypatch):
        # only a failed solve exits 2; one stopped at its iteration cap
        # is a complete trace
        results = []
        real = experiments.cars_solve
        monkeypatch.setattr(experiments, "cars_solve",
                            lambda *a, **k: results.append(real(*a, **k)) or results[-1])
        cfg = trace_scenario(tmp_path, cars={"max_iter": 2})
        rc = cli.main(["trace", "--config", str(cfg)])
        assert rc == 0
        records = list(csv.reader(capsys.readouterr().out.splitlines()))
        [res] = results
        assert not res.converged and res.iterations == 2
        assert records[0] == list(TRACE_COLUMNS)
        assert [r[0] for r in records[1:]] == ["0", "1", "2"]
        assert [float(v) for v in records[-1][1:]] == list(res.trace[-1])

    def test_trace_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        fake = types.SimpleNamespace(message="subproblem failed at iteration 1")
        monkeypatch.setattr(experiments, "cars_solve", lambda *a, **k: fake)
        cfg = trace_scenario(tmp_path)
        rc = cli.main(["trace", "--config", str(cfg)])
        assert rc == 2
        assert "trace failed" in capsys.readouterr().err

    def test_trace_subproblem_failure_exits_two(self, tmp_path, capsys,
                                                y_step_fails_at_iteration_2):
        cfg = trace_scenario(tmp_path)
        rc = cli.main(["trace", "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "trace failed: subproblem failed at iteration 2: forced step failure")

    def test_trace_config_error_exits_one(self, tmp_path):
        assert cli.main(["trace", "--config", str(tmp_path / "absent.json")]) == 1


# configs whose numbers are out of range or not finite, and the message each
# gets; Python's json reads NaN and Infinity
BAD_VALUES = {
    "zipf-nan": ({"zipf_exponents": [float("nan")]},
                 "Zipf exponents must be finite and >= 0"),
    "zipf-infinity": ({"zipf_exponents": [float("inf")]},
                      "Zipf exponents must be finite and >= 0"),
    "geometric-session-nan": (
        {"session": {"total_requests": 400, "session_kind": "geometric",
                     "session_param": float("nan")}},
        "invalid config: session_param must be finite and >= 1"),
    "geometric-session-infinity": (
        {"session": {"total_requests": 400, "session_kind": "geometric",
                     "session_param": float("inf")}},
        "invalid config: session_param must be finite and >= 1"),
    "multiplier-step-string": ({"cars": {"multiplier_step": "abc"}},
                               "invalid config: multiplier_step must be a finite number > 0"),
    "multiplier-step-nan": ({"cars": {"multiplier_step": float("nan")}},
                            "invalid config: multiplier_step must be a finite number > 0"),
    "multiplier-step-negative": ({"cars": {"multiplier_step": -1.0}},
                                 "invalid config: multiplier_step must be a finite number > 0"),
    # JSON's true is not the number 1
    "list-size-true": ({"list_sizes": [True]}, "every list size must be a whole number >= 1"),
    "seed-true": ({"seed": True}, "seed must be a whole number >= 0"),
    "zipf-true": ({"zipf_exponents": [True]}, "Zipf exponents must be finite and >= 0"),
    "quality-true": ({"qualities": [True]}, "every quality floor must lie in [0, 1]"),
    "cache-fraction-true": ({"cache_fractions": [True]},
                            "every cache fraction must lie in (0, 1]"),
    "follow-prob-false": ({"follow_probs": [False]},
                          "every follow probability must lie in [0, 1)"),
    "synthetic-size-true": (
        {"dataset": {"kind": "synthetic", "size": True, "mean_related": 5.0, "seed": 2}},
        "synthetic size must be a whole number >= 0"),
    "synthetic-min-related-true": (
        {"dataset": {"kind": "synthetic", "size": 6, "min_related": True, "seed": 2}},
        "synthetic min_related must be a whole number >= 0"),
    "synthetic-seed-true": (
        {"dataset": {"kind": "synthetic", "size": 6, "mean_related": 5.0, "seed": True}},
        "synthetic seed must be a whole number >= 0"),
    "synthetic-mean-related-true": (
        {"dataset": {"kind": "synthetic", "size": 6, "mean_related": True, "seed": 2}},
        "synthetic mean_related must be a finite number"),
    "movielens-theta-false": (
        {"dataset": {"kind": "movielens", "path": "ratings.csv", "theta": False}},
        "movielens theta must be a finite number"),
    "max-iter-true": ({"cars": {"max_iter": True}},
                      "invalid config: max_iter must be a whole number >= 1"),
    "subproblem-max-iter-true": (
        {"cars": {"subproblem_max_iter": True}},
        "invalid config: subproblem_max_iter must be a whole number >= 1"),
    "multiplier-step-true": ({"cars": {"multiplier_step": True}},
                             "invalid config: multiplier_step must be a finite number > 0"),
    "total-requests-true": ({"session": {"total_requests": True}},
                            "invalid config: total_requests must be a whole number >= 1"),
    "session-param-true": ({"session": {"total_requests": 400, "session_param": True}},
                           "invalid config: session_param must be finite and >= 1"),
}


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_exits_one_with_message(tmp_path, capsys, command, case):
    override, message = BAD_VALUES[case]
    cfg = trace_scenario(tmp_path, policies=["norec", "myopic", "cars"], **override)
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: {message}"]
    assert not (tmp_path / "o").exists()


class TestPrepDatasetCommand:
    def test_prep_lastfm_outputs(self, tmp_path, capsys):
        src = lastfm_file(tmp_path)
        out = tmp_path / "prepped"
        rc = cli.main(["prep-dataset", "--lastfm", str(src), "--out", str(out)])
        assert rc == 0
        assert "similarity.txt" in capsys.readouterr().out
        u = load_matrix(out / "similarity.txt")
        assert np.asarray(u).shape == (6, 6)
        kept = (out / "kept_ids.txt").read_text(encoding="utf-8").splitlines()
        assert kept == [f"s{i}" for i in range(6)]
        prov = json.loads((out / "provenance.json").read_text(encoding="utf-8"))
        assert prov["kind"] == "lastfm"
        assert prov["source_sha256"] == file_sha256(src)

    def test_prep_movielens_outputs(self, tmp_path):
        rng = np.random.default_rng(8)
        src = tmp_path / "ratings.csv"
        rows = ["userId,movieId,rating,timestamp"]
        for user in range(1, 13):
            for item in rng.choice(np.arange(10, 30), size=14, replace=False):
                rows.append(f"{user},{item},{rng.integers(1, 11) * 0.5},0")
        src.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "prepped"
        rc = cli.main(
            ["prep-dataset", "--movielens", str(src), "--out", str(out),
             "--theta", "0.3", "--list-size", "2"]
        )
        assert rc == 0
        prov = json.loads((out / "provenance.json").read_text(encoding="utf-8"))
        assert prov["kind"] == "movielens"
        assert prov["source_sha256"] == file_sha256(src)

    def test_prep_bad_ratings_row_exits_one(self, tmp_path, capsys):
        src = tmp_path / "ratings.csv"
        src.write_text(SHORT_ROW_CSV, encoding="utf-8")
        rc = cli.main(["prep-dataset", "--movielens", str(src), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: movielens dataset: line 3: expected integer userId "
                       f"and movieId and a numeric rating, got '1,11'"]
        assert not (tmp_path / "o").exists()

    def test_prep_missing_input_exits_one(self, tmp_path, capsys):
        rc = cli.main(
            ["prep-dataset", "--lastfm", str(tmp_path / "absent.tsv"),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "cannot read input" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes,list_size", [(6, 5), (3, 4)])
    def test_prep_everything_pruned_exits_one(self, tmp_path, capsys,
                                              nodes, list_size):
        # degree nodes-1 in a complete graph cannot beat a floor of list_size
        src = lastfm_file(tmp_path, nodes=nodes)
        rc = cli.main(
            ["prep-dataset", "--lastfm", str(src), "--out", str(tmp_path / "o"),
             "--list-size", str(list_size)]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: lastfm dataset: ")
        assert not (tmp_path / "o").exists()

    def test_prepared_matrix_runs_like_raw_file(self, tmp_path):
        rng = np.random.default_rng(9)
        src = tmp_path / "triplets.tsv"
        src.write_text("".join(
            f"t{i}\tt{j}\t{rng.uniform(0.3, 1.0):.3f}\n"
            for i in range(30) for j in range(i + 1, 30) if rng.uniform() < 0.3
        ), encoding="utf-8")
        prepped = tmp_path / "prepped"
        rc = cli.main(["prep-dataset", "--lastfm", str(src), "--out", str(prepped),
                       "--list-size", "3"])
        assert rc == 0
        rows = {}
        for kind, path in (("lastfm", src), ("matrix", prepped / "similarity.txt")):
            cfg = write_scenario(tmp_path, dataset={"kind": kind, "path": str(path)},
                                 list_sizes=[3], qualities=[0.6, 0.75],
                                 policies=["norec", "myopic", "cars"],
                                 cars={"max_iter": 3})
            out = tmp_path / kind
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            rows[kind] = read_results(out / "results.csv")
            for r in rows[kind]:
                assert r["error"] == ""
                r.pop("wall_millis")
        assert rows["matrix"] == rows["lastfm"]
        assert {r["catalog_size"] for r in rows["matrix"]} == {"30"}

    def test_prep_requires_a_source(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["prep-dataset", "--out", str(tmp_path / "o")])
        assert exc.value.code == 1

    def test_prep_rejects_two_sources(self, tmp_path):
        src = lastfm_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["prep-dataset", "--lastfm", str(src), "--movielens", str(src),
                 "--out", str(tmp_path / "o")]
            )
        assert exc.value.code == 1


class TestReadme:
    """The README's CLI section describes the parser that ships."""

    def test_every_subcommand_shown(self):
        shown = {shlex.split(line)[1] for line in README_CLI_LINES}
        assert shown == {"run", "trace", "prep-dataset"}

    @pytest.mark.parametrize(
        "line", README_CLI_LINES,
        ids=[f"{i}-{shlex.split(line)[1]}" for i, line in enumerate(README_CLI_LINES)],
    )
    def test_command_line_parses(self, line):
        # optional arguments are shown in brackets; parse them too
        argv = shlex.split(line.replace("[", " ").replace("]", " "))
        assert argv[0] == "cacherec"
        args = cli._build_parser().parse_args(argv[1:])
        assert args.command == argv[1]

    def test_dataset_kinds_match_config(self):
        listed = readme_text().split("`dataset.kind` is one of", 1)[1].split("(", 1)[0]
        assert set(re.findall(r"`(\w+)`", listed)) == set(experiments._DATASET_KINDS)

    def test_cars_keys_match_config(self):
        listed = readme_text().split("The `cars` object accepts", 1)[1].split(";", 1)[0]
        assert set(re.findall(r"`(\w+)`", listed)) == set(experiments._CARS_KEYS)

    def test_example_config_runs(self, tmp_path, capsys):
        example = readme_text().split("```json", 1)[1].split("```", 1)[0]
        path = tmp_path / "scenario.json"
        path.write_text(example, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert "(6 rows, 0 failed)" in capsys.readouterr().out
        records = read_results(out / "results.csv")
        assert [r["error"] for r in records] == [""] * 6

    def test_module_map_names_are_exported(self):
        # each row's Contents cell names only what its module exports; the
        # cli row's `cacherec` is the console script
        rows = {}
        for line in readme_text().split("Module map", 1)[1].splitlines():
            cells = line.split("|")
            if len(cells) > 3 and cells[1].strip().startswith("`cacherec."):
                rows[cells[1].strip().strip("`")] = cells[2]
        modules = {m.name for m in pkgutil.iter_modules(cacherec.__path__)}
        assert set(rows) == {f"cacherec.{m}" for m in modules}
        unexported = {}
        for module, contents in rows.items():
            names = set(re.findall(r"`(\w+)`", contents)) - {"cacherec"}
            missing = names - set(importlib.import_module(module).__all__)
            if missing:
                unexported[module] = sorted(missing)
        assert unexported == {}


class TestParsing:
    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_run_requires_config(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run"])
        assert exc.value.code == 1

    def test_console_script_registered(self):
        # the declaration in pyproject.toml is the source of truth; installed
        # metadata, when an install exists, must agree with it
        declared = read_pyproject()["project"]["scripts"].get("cacherec")
        assert declared == "cacherec.cli:main"
        ep = EntryPoint(name="cacherec", value=declared, group="console_scripts")
        assert ep.load() is cli.main

        for installed in entry_points(group="console_scripts", name="cacherec"):
            assert installed.value == declared
            assert installed.dist.name == "cacherec"

    def test_distribution_version_matches_package(self):
        assert read_pyproject()["project"]["version"] == cacherec.__version__
