"""Tests for the convex simplex QP solver and its exact projections."""

import inspect

import numpy as np
import numpy.testing as npt
import pytest

from cacherec.qp import MAXITER, OPTIMAL, _project_capped, project_simplex, solve_qp

from oracles import qp_oracle


def simplex_qp(c, quad):
    """`solve_qp`'s ``(linear, quadratic)`` for ``min 0.5 v'Qv + c'v``, Q a matrix."""
    return c, (lambda v: quad @ v)


def simplex_oracle(c, quad):
    """Optimal objective over the simplex by active-set enumeration."""
    n = np.asarray(c).size
    ref, _ = qp_oracle(c=c, quad=quad, a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
                       lower=np.zeros(n))
    return ref


def project_row(v, n: int, i: int) -> np.ndarray:
    """`_project_capped` onto row i's polytope: caps 1/N, and 0 at the self index."""
    v = np.asarray(v, dtype=float)
    upper = np.full(v.size, 1.0 / n)
    upper[i] = 0.0
    return _project_capped(v, upper)[0]


def qp_objective(c, matvec, v: np.ndarray) -> float:
    return float(c @ v) + 0.5 * float(v @ matvec(v))


class TestProjectSimplex:
    def test_feasible_point_unchanged(self):
        v = np.array([0.2, 0.5, 0.3])
        npt.assert_allclose(project_simplex(v), v, atol=1e-12)

    def test_mass_concentrates(self):
        npt.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-12)

    def test_symmetric_excess_splits_evenly(self):
        npt.assert_allclose(project_simplex([0.6, 0.6]), [0.5, 0.5], atol=1e-12)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(0.0, 3.0, rng.integers(1, 12))
            p = project_simplex(v)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = project_simplex(rng.normal(0.0, 2.0, 8))
            npt.assert_allclose(project_simplex(p), p, atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = rng.normal(0.0, 2.0, 6)
            v = rng.normal(0.0, 2.0, 6)
            du = project_simplex(u) - project_simplex(v)
            assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12

    @pytest.mark.parametrize("v", [0.5, np.full((2, 2), 0.25)], ids=["scalar", "matrix"])
    def test_rejects_non_vector(self, v):
        with pytest.raises(ValueError, match="project_simplex expects a vector"):
            project_simplex(v)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_simplex([np.nan, 0.0])


class TestProjectRowPolytope:
    def test_feasible_row_unchanged(self):
        v = np.array([0.0, 0.5, 0.3, 0.2])
        npt.assert_allclose(project_row(v, 2, 0), v, atol=1e-12)

    def test_zero_diagonal_then_feasible(self):
        got = project_row(np.array([5.0, 0.5, 0.5]), 1, 0)
        npt.assert_allclose(got, [0.0, 0.5, 0.5], atol=1e-12)

    def test_uniform_excess_clips_to_thirds(self):
        got = project_row(np.ones(4), 2, 3)
        npt.assert_allclose(got, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)

    def test_feasibility_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            k = int(rng.integers(3, 10))
            n = int(rng.integers(1, k - 1))
            i = int(rng.integers(k))
            p = project_row(rng.normal(0.0, 2.0, k), n, i)
            assert abs(p.sum() - 1.0) <= 1e-10
            assert p[i] == 0.0
            assert np.all(p >= -1e-12)
            assert np.all(p <= 1.0 / n + 1e-12)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            k, n, i = 6, 2, 3
            u = rng.normal(0.0, 2.0, k)
            v = rng.normal(0.0, 2.0, k)
            pu = project_row(u, n, i)
            pv = project_row(v, n, i)
            npt.assert_allclose(project_row(pu, n, i), pu, atol=1e-10)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-10


class TestProjectCappedTotal:
    def test_any_total_scales_the_unit_projection(self):
        # onto sum T: T proj(v / T, upper / T); the shift reproduces the point
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 30))
            v = rng.normal(0.0, 1.0, k)
            upper = np.full(k, 1.0 / int(rng.integers(1, k + 1)))
            total = float(rng.uniform(0.01, 1.0)) * float(upper.sum())
            y, tau = _project_capped(v, upper, total)
            ref, _ = _project_capped(v / total, upper / total)
            npt.assert_allclose(y, total * ref, atol=1e-12)
            assert abs(float(y.sum()) - total) <= 1e-12
            npt.assert_allclose(np.clip(v - tau, 0.0, upper), y, atol=1e-12)

    def test_shift_at_the_top_of_its_range(self):
        # every entry at a bound: S equals the total for tau in [0, 4.5]
        y, tau = _project_capped(np.array([5.0, 0.0]), np.full(2, 0.5), 0.5)
        npt.assert_allclose(y, [0.5, 0.0], atol=1e-15)
        assert tau == 4.5
        y, tau = _project_capped(np.array([0.3, -1.0, 2.0]), np.full(3, 0.5), 0.0)
        assert not y.any() and tau == 2.0


class TestSolveQpExamples:
    def test_min_norm_over_simplex_is_uniform(self):
        quad = 2.0 * np.eye(4)
        sol = solve_qp(*simplex_qp(np.zeros(4), quad))
        assert sol.status == OPTIMAL
        npt.assert_allclose(sol.point, np.full(4, 0.25), atol=1e-6)
        npt.assert_allclose(sol.objective, simplex_oracle(np.zeros(4), quad), atol=1e-9)

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            solve_qp(*simplex_qp(np.array([3.0, 1.0, 2.0]), np.zeros((3, 3))))


class TestSolveQpStatuses:
    def test_optimal_meets_reported_residual(self):
        rng = np.random.default_rng(6)
        m = rng.normal(0.0, 1.0, (6, 6))
        c = rng.normal(0.0, 1.0, 6)
        sol = solve_qp(*simplex_qp(c, m.T @ m), tol=1e-8)
        assert sol.status == OPTIMAL
        assert sol.primal_residual <= 1e-8
        assert sol.stationarity_residual <= 1e-8 * (1.0 + abs(sol.objective))
        assert abs(float(sol.point.sum()) - 1.0) <= 1e-8
        assert sol.point.min() >= 0.0
        ref = simplex_oracle(c, m.T @ m)
        assert abs(sol.objective - ref) <= 1e-6 * (1.0 + abs(ref))

    def test_maxiter_reported(self):
        rng = np.random.default_rng(7)
        m = rng.normal(0.0, 1.0, (8, 8))
        sol = solve_qp(*simplex_qp(rng.normal(0.0, 1.0, 8), m.T @ m), tol=1e-12, max_iter=3)
        assert sol.status == MAXITER
        assert sol.iterations <= 3
        assert sol.message

    def test_defaults(self):
        sig = inspect.signature(solve_qp)
        assert sig.parameters["tol"].default == 1e-7
        assert sig.parameters["max_iter"].default == 50000


class TestSolveQpOperatorUse:
    @pytest.mark.parametrize("max_iter", [17, 50000])
    def test_one_product_per_step_and_fresh_residual(self, max_iter):
        rng = np.random.default_rng(11)
        m = rng.normal(0.0, 1.0, (7, 7))
        quad = m.T @ m
        # an operator norm of 0.4 puts the step near 2.4, so unless it is
        # halved twice the residual's scale min(step, 1) is 1
        quad *= 0.4 / np.linalg.norm(quad, 2)
        # a small linear term keeps the optimum off the vertices
        c = rng.normal(0.0, 0.05, 7)
        calls = 0

        def counted(v):
            nonlocal calls
            calls += 1
            return quad @ v

        sol = solve_qp(c, counted, tol=1e-10, max_iter=max_iter)
        assert sol.iterations > 10
        # one product at the start, 30 in the norm estimate, one per step
        assert calls <= sol.iterations + 31
        # recomputed from scratch at the returned point: a cached product
        # left over from another iterate would not match
        x = sol.point
        stat = float(np.abs(x - project_simplex(x - (c + quad @ x))).max())
        assert stat == pytest.approx(sol.stationarity_residual, rel=1e-9, abs=1e-15)
        f = float(c @ x) + 0.5 * float(x @ quad @ x)
        assert sol.objective == pytest.approx(f, rel=1e-12, abs=1e-15)


class TestSolveQpAgainstOracle:
    def test_random_qp_objective_sandwich(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            n = int(rng.integers(2, 6))
            m = rng.normal(0.0, 1.0, (n, n))
            q = m.T @ m + 1e-3 * np.eye(n)
            c = rng.normal(0.0, 1.0, n)
            problem = simplex_qp(c, q)
            sol = solve_qp(*problem, tol=1e-9)
            assert sol.status == OPTIMAL, trial
            ref = simplex_oracle(c, q)
            f_got = qp_objective(*problem, sol.point)
            assert f_got >= ref - 1e-7 * (1.0 + abs(ref)), trial
            assert f_got <= ref + 1e-6 * (1.0 + abs(ref)), trial
