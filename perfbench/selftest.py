"""Tests of the benchmark itself: each check rejects a corrupted output,
and the command prints every metric with its unit and the counts.

    python3 perfbench/selftest.py

The last two tests run the command on sessions-ml for one round each,
about a minute in all.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _ring(k, n):
    """Binary similarity where each item relates to its next n+1 items."""
    u = np.zeros((k, k))
    for i in range(k):
        for d in range(1, n + 2):
            u[i, (i + d) % k] = 1.0
    return u


def _scenario():
    return {"list_sizes": [2], "zipf_exponents": [0.6], "qualities": [0.8],
            "cache_fractions": [0.1], "follow_probs": [0.8],
            "policies": ["norec", "myopic", "cars"],
            "session": {"total_requests": 20000, "session_kind": "fixed",
                        "session_param": 200}}


def _rows(k):
    """A results.csv that passes every check for `_scenario()`."""
    p0 = checks.zipf(k, 0.6)
    norec = float(p0[checks.top_c(p0, 2)].sum())
    base = {"grid_index": "0", "catalog_size": str(k), "error": ""}
    return [
        dict(base, policy="norec", analytic_chr=repr(norec), empirical_chr=repr(norec),
             mean_quality="0"),
        dict(base, policy="myopic", analytic_chr="0.5", empirical_chr="0.501",
             mean_quality="0.81"),
        dict(base, policy="cars", analytic_chr="0.52", empirical_chr="0.519",
             mean_quality="0.8"),
    ]


class CheckRejectsCorruptOutput(unittest.TestCase):
    def setUp(self):
        self.k, self.n, self.q = 8, 2, 0.8
        self.u = _ring(self.k, self.n)
        # mass 1/N on the first two related items: quality 1, feasible
        self.y = np.zeros((self.k, self.k))
        for i in range(self.k):
            self.y[i, (i + 1) % self.k] = self.y[i, (i + 2) % self.k] = 0.5
        self.p0 = checks.zipf(self.k, 0.6)

    def test_feasible_matrix_passes(self):
        self.assertEqual(checks.rec_matrix(self.y, self.n, self.u, self.q, "y"), [])

    def test_row_below_floor(self):
        y = self.y.copy()
        y[3] = 0.0
        y[3, 1] = y[3, 4] = 0.5           # item 1 is unrelated to item 3
        self.assertAlmostEqual(y[3].sum(), 1.0)
        bad = checks.rec_matrix(y, self.n, self.u, self.q, "y")
        self.assertTrue(any("quality below floor" in m for m in bad), bad)

    def test_row_sum_box_and_diagonal(self):
        for corrupt, what in ((lambda y: y.__setitem__((0, 1), 0.6), "row sum"),
                              (lambda y: y.__setitem__((2, 2), 1e-5), "diagonal")):
            y = self.y.copy()
            corrupt(y)
            bad = checks.rec_matrix(y, self.n, self.u, 0.0, "y")
            self.assertTrue(any(what in m for m in bad), bad)

    def test_myopic_row_not_optimal(self):
        x = np.ones(self.k)
        x[[3, 4]] = 0.0                   # items 3 and 4 are cached
        y = np.zeros((self.k, self.k))
        for i in range(self.k):
            rel = [(i + d) % self.k for d in range(1, self.n + 2)]
            rel.sort(key=lambda j: (x[j], j))
            y[i, rel[:2]] = 0.5
        # at floor 1 every row keeps to related items, cached ones first
        self.assertEqual(checks.myopic_rows(y, x, self.u, self.n, 1.0, "m"), [])
        worse = y.copy()
        worse[2] = 0.0
        worse[2, [3, 5]] = 0.5            # feasible, but skips cached item 4
        self.assertEqual(checks.rec_matrix(worse, self.n, self.u, 1.0, "m"), [])
        bad = checks.myopic_rows(worse, x, self.u, self.n, 1.0, "m")
        self.assertEqual(len(bad), 1)
        self.assertIn("row 2", bad[0])

    def test_chr_moved_by_1e6(self):
        x = np.ones(self.k)
        x[0] = 0.0
        cost = float(checks.stationary(self.y, self.p0, 0.8) @ x)
        self.assertEqual(checks.close(1.0 - cost, 1.0 - cost, checks.CHR_TOL, "chr"), [])
        self.assertTrue(checks.close(1.0 - cost + 1e-6, 1.0 - cost, checks.CHR_TOL, "chr"))

    def test_geometric_session_chr_is_the_mixed_chain_stationary(self):
        hit = np.zeros(self.k)
        hit[:2] = 1.0
        a, m = 0.8, 4.0
        got = checks.geometric_session_chr(self.y, self.p0, a, hit, m)
        # restarting with probability 1/m is a chain mixed with a(1 - 1/m)
        pi = checks.stationary(self.y, self.p0, a * (1.0 - 1.0 / m))
        self.assertAlmostEqual(got, float(pi @ hit), places=12)

    def test_sampling_checks(self):
        self.assertEqual(checks.binomial_hits(5000, 20000, 0.25, "h"), [])
        self.assertTrue(checks.binomial_hits(5600, 20000, 0.25, "h"))
        self.assertEqual(checks.served_quality(0.79, 10000, 0.8, "q"), [])
        self.assertTrue(checks.served_quality(0.7, 10000, 0.8, "q"))

    def test_results_rows(self):
        k = 20
        failed, msgs = checks.sweep_rows(_rows(k), _scenario(), k)
        self.assertEqual((failed, msgs), (set(), []))

        rows = _rows(k)
        rows[2]["error"] = "RuntimeError: subproblem failed"
        failed, msgs = checks.sweep_rows(rows, _scenario(), k)
        self.assertEqual(failed, {(0, "cars")})

        rows = _rows(k)
        rows[0]["analytic_chr"] = repr(float(rows[0]["analytic_chr"]) + 1e-6)
        failed, _ = checks.sweep_rows(rows, _scenario(), k)
        self.assertEqual(failed, {(0, "norec")})

        rows = _rows(k)
        rows[2]["analytic_chr"] = "0.49"          # cars below myopic
        failed, _ = checks.sweep_rows(rows, _scenario(), k)
        self.assertEqual(failed, {(0, "cars")})

        failed, _ = checks.sweep_rows(_rows(k)[:2], _scenario(), k)
        self.assertEqual(failed, {(0, "cars")})

        failed, _ = checks.sweep_rows(_rows(k), _scenario(), k + 1)
        self.assertEqual(failed, {(0, "norec"), (0, "myopic"), (0, "cars")})


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class Command(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def _metrics(self, trace, expected):
        p = _run(ROOT, "--workload", "sessions-ml", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
        self.assertEqual(p.returncode, 0, p.stderr)
        line = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(line["correct"], True)
        ops = len(WORKLOADS["sessions-ml"].ops)
        self.assertEqual(line["attempted"], ops * (2 if trace else 1))
        self.assertEqual(line["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()},
                         {m["name"]: m["unit"] for m in expected})
        return line["metrics"]

    def test_end_to_end_metrics(self):
        metrics = self._metrics(0, self.spec["end_to_end"])
        self.assertTrue(all(v["value"] > 0 for v in metrics.values()), metrics)

    def test_per_layer_metrics(self):
        metrics = self._metrics(1, self.spec["per_layer"])
        self.assertGreater(metrics["datasets.cf_fill_s"]["value"], 0)
        self.assertEqual(metrics["simulate.requests"]["value"],
                         3 * WORKLOADS["sessions-ml"].REQUESTS)

    def test_fails_without_the_program(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            p = _run(bare, "--workload", "cars-large", "--seed", "1", "--seconds", "1")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
