"""Tests for the myopic LP policy and the alternating stationary-cost solver."""

import hashlib
import logging

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import linprog, minimize

from cacherec import (
    CarsConfig,
    CarsIterate,
    InfeasibleQualityError,
    OptimInputs,
    RecMatrix,
    RequestModel,
    SimilarityMatrix,
    anchored_similarity,
    cars_pi_step,
    cars_solve,
    cars_y_step,
    expected_cost,
    myopic_solve,
    quality_of,
    residual_c,
    stationary_direct,
    top_c_cache,
    top_n_similarity,
    validate_rec_matrix,
    zipf_popularity,
)
from cacherec import markov, optim
from cacherec.optim import _quality_row_prox
from cacherec.qp import _project_capped

from oracles import (
    augmented_lagrangian_ref,
    best_deterministic_cost,
    qp_oracle,
    row_lp_oracle,
    stationary_ref,
    transition_ref,
)


def make_inputs(k, n, rng, q=0.0, a=0.8, density=0.9):
    """Random feasible instance: dense similarity keeps every floor reachable."""
    u = rng.uniform(0.2, 1.0, (k, k))
    u[rng.uniform(size=(k, k)) > density] = 0.0
    u = np.maximum(u, u.T)
    np.fill_diagonal(u, 0.0)
    p0 = rng.uniform(0.1, 1.0, k)
    p0 /= p0.sum()
    x = rng.uniform(0.0, 1.0, k)
    model = RequestModel(p0, a, n)
    return OptimInputs(SimilarityMatrix(u), model, x, q)


def augmented_lagrangian(pi, y, lam, rho, inputs) -> float:
    """The penalized objective of `inputs`' stationary-cost problem."""
    m = inputs.model
    return augmented_lagrangian_ref(pi, y, lam, rho, inputs.cost, m.popularity, m.follow_prob)


def one_step_cost(y, inputs) -> float:
    p0 = np.asarray(inputs.model.popularity, dtype=float)
    a = inputs.model.follow_prob
    x = np.asarray(inputs.cost, dtype=float)
    yv = np.asarray(y, dtype=float)
    return float(p0 @ (a * yv @ x + (1.0 - a) * float(p0 @ x)))


class TestOptimInputs:
    @pytest.mark.parametrize("k,quality,match", [
        (4, 0.0, "similarity, model and cost sizes disagree"),
        (3, [0.1, 0.2], "quality must be scalar or length 3"),
        (3, 1.5, r"quality floors must lie in \[0, 1\]"),
    ], ids=["sizes", "quality-length", "quality-range"])
    def test_malformed_inputs_rejected(self, k, quality, match):
        u = SimilarityMatrix(np.ones((3, 3)) - np.eye(3))
        model = RequestModel(np.full(k, 1 / k), 0.5, 1)
        with pytest.raises(ValueError, match=match):
            OptimInputs(u, model, np.ones(3), quality)

    def test_scalar_quality_broadcasts(self):
        rng = np.random.default_rng(0)
        inp = make_inputs(4, 2, rng, q=0.3)
        assert inp.quality.shape == (4,)
        npt.assert_allclose(inp.quality, 0.3)

    def test_unreachable_floor_rejected_with_row(self):
        u = np.zeros((3, 3))
        u[0, 1] = u[1, 0] = 0.2
        u[1, 2] = u[2, 1] = 0.2
        u[0, 2] = u[2, 0] = 0.2
        model = RequestModel(np.full(3, 1 / 3), 0.5, 1)
        with pytest.raises(InfeasibleQualityError, match="row"):
            OptimInputs(SimilarityMatrix(u), model, np.ones(3), 0.9)

    def test_max_quality_is_mean_of_top_n(self):
        u = np.array([
            [0.0, 0.9, 0.5, 0.1],
            [0.9, 0.0, 0.3, 0.2],
            [0.5, 0.3, 0.0, 0.8],
            [0.1, 0.2, 0.8, 0.0],
        ])
        model = RequestModel(np.full(4, 0.25), 0.5, 2)
        inp = OptimInputs(SimilarityMatrix(u), model, np.ones(4), 0.0)
        npt.assert_allclose(inp.max_quality(), [0.7, 0.6, 0.65, 0.5])


class TestTopNSimilarity:
    @pytest.mark.parametrize("levels", [2, 3, 0])
    def test_matches_per_row_sort_with_lowest_index_ties(self, levels):
        # levels=2 gives binary similarities, 3 heavy ties, 0 continuous values
        rng = np.random.default_rng(levels)
        for _ in range(20):
            k = int(rng.integers(3, 40))
            n = int(rng.integers(1, k))
            u = rng.random((k, k))
            if levels:
                u = np.floor(u * levels) / (levels - 1)
            u = np.triu(u, 1)
            u = u + u.T
            model = RequestModel(np.full(k, 1.0 / k), 0.5, n)
            inputs = OptimInputs(SimilarityMatrix(u), model, np.ones(k))
            y = np.asarray(top_n_similarity(inputs))
            ref = np.zeros((k, k))
            for i in range(k):
                top = sorted((j for j in range(k) if j != i), key=lambda j: (-u[i, j], j))
                ref[i, top[:n]] = 1.0 / n
            npt.assert_array_equal(y, ref)


class TestMyopicSolve:
    def test_two_items_forced_swap(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = RequestModel(np.array([0.5, 0.5]), 0.7, 1)
        inp = OptimInputs(SimilarityMatrix(u), model, np.array([0.3, 0.9]), 0.5)
        y = myopic_solve(inp)
        npt.assert_allclose(np.asarray(y), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_cheapest_content_with_lowest_index_ties(self):
        u = np.ones((3, 3))
        np.fill_diagonal(u, 0.0)
        model = RequestModel(np.full(3, 1 / 3), 0.6, 1)
        inp = OptimInputs(SimilarityMatrix(u), model, np.array([1.0, 0.0, 1.0]), 0.0)
        y = np.asarray(myopic_solve(inp))
        expect = np.array([
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ])
        npt.assert_allclose(y, expect, atol=1e-9)

    def test_binding_quality_matches_row_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            probe = make_inputs(4, 2, rng, q=0.0, density=1.0)
            floor = 0.9 * float(probe.max_quality().min())
            inp = OptimInputs(probe.similarity, probe.model, probe.cost, floor)
            y = np.asarray(myopic_solve(inp))
            x = np.asarray(inp.cost, dtype=float)
            for i in range(4):
                ref_obj, _ = row_lp_oracle(
                    x, np.asarray(inp.similarity)[i], 2, float(inp.quality[i]), i
                )
                got = float(y[i] @ x)
                assert got <= ref_obj + 1e-8, (trial, i)
                assert got >= ref_obj - 1e-8, (trial, i)

    def test_output_is_valid_rec_matrix(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = int(rng.integers(3, 8))
            n = int(rng.integers(1, min(3, k - 1) + 1))
            inp = make_inputs(k, n, rng, q=0.3)
            y = myopic_solve(inp)
            assert validate_rec_matrix(y, 1e-5) == []
            assert np.all(quality_of(y, inp.similarity) >= inp.quality - 1e-5)

    def test_beats_top_n_similarity_one_step(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inp = make_inputs(6, 2, rng, q=0.0)
            ym = myopic_solve(inp)
            yt = top_n_similarity(inp)
            assert one_step_cost(ym, inp) <= one_step_cost(yt, inp) + 1e-10

    def test_joint_lp_equals_row_decomposition(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            k, n = 5, 2
            inp = make_inputs(k, n, rng, q=0.4, density=1.0)
            x = np.asarray(inp.cost, dtype=float)
            p0 = np.asarray(inp.model.popularity, dtype=float)
            a = inp.model.follow_prob
            u = np.asarray(inp.similarity, dtype=float)

            lin = (a * np.outer(p0, x)).ravel()
            res = linprog(
                lin,
                A_ub=-row_blocks(u), b_ub=-np.asarray(inp.quality, dtype=float),
                A_eq=row_blocks(np.ones((k, k))), b_eq=np.ones(k),
                bounds=rec_bounds(k, n), method="highs",
            )
            assert res.status == 0, (trial, res.message)
            joint = float(res.fun)
            y = np.asarray(myopic_solve(inp))
            per_row = float(lin @ y.ravel())
            assert abs(joint - per_row) <= 1e-8, trial

    def test_cost_scale_invariance(self):
        rng = np.random.default_rng(5)
        inp = make_inputs(6, 2, rng, q=0.3)
        scaled = OptimInputs(
            inp.similarity, inp.model, 7.5 * np.asarray(inp.cost), inp.quality
        )
        y1 = np.asarray(myopic_solve(inp))
        y2 = np.asarray(myopic_solve(scaled))
        npt.assert_allclose(y1, y2, atol=1e-9)


def anchored_instance(k, n, q, cached, seed):
    """Binary relatedness graph, Zipf popularity, unit cost outside the
    `cached` most popular contents (Zipf ranks content 0 first)."""
    u = anchored_similarity(k, 8.0, n + 1, seed=seed)
    x = np.ones(k)
    x[:cached] = 0.0
    return OptimInputs(u, RequestModel(zipf_popularity(k, 0.6), 0.8, n), x, q)


def three_level_instance():
    """Similarities and costs in {0, 0.5, 1}: ties in both."""
    rng = np.random.default_rng(17)
    k = 40
    u = np.triu(rng.choice([0.0, 0.5, 1.0], size=(k, k), p=[0.5, 0.3, 0.2]), 1)
    x = rng.choice([0.0, 0.5, 1.0], size=k)
    return OptimInputs(u + u.T, RequestModel(zipf_popularity(k, 0.8), 0.7, 3), x, 0.6)


class TestMyopicTieRule:
    """Myopic breaks one-step cost ties toward the lowest index, and that
    rule moves its long-run hit ratio; these digests make any change to
    the rule visible."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: anchored_instance(60, 4, 0.8, 6, seed=5),
         "01649bc0eaf5fd2f8262fa2824a77a41224521c5bc381d1f80e88a7e5ece2fc7"),
        (three_level_instance,
         "021521928ab8ab776223620f127ad805899022fb5d6131de0ca0dcf853daf508"),
    ], ids=["binary-anchored", "three-level"])
    def test_output_digest_pinned(self, make, digest):
        y = np.ascontiguousarray(np.asarray(myopic_solve(make())), dtype=float)
        assert hashlib.sha256(y.tobytes()).hexdigest() == digest


def similarities(rng, kind, shape):
    """Similarities of one of `ROW_KINDS`."""
    if kind == "continuous":
        return rng.uniform(0.0, 1.0, shape)
    if kind == "binary":
        return (rng.uniform(size=shape) < 0.4).astype(float)
    if kind == "three-level":
        return rng.choice([0.0, 0.5, 1.0], size=shape)
    return np.round(rng.uniform(0.0, 1.0, shape), 2)


def random_row(rng, kind):
    """One row LP: similarities of the given kind, self index, list size."""
    k = int(rng.integers(5, 61))
    n = int(rng.integers(1, min(6, k - 1) + 1))
    u = similarities(rng, kind, k)
    x = [rng.uniform(0.0, 1.0, k), (rng.uniform(size=k) < 0.3).astype(float),
         np.round(rng.uniform(0.0, 1.0, k), 1)][int(rng.integers(3))]
    i = int(rng.integers(k))
    u[i] = 0.0
    return x, u, n, i


def row_best_quality(u, n, i):
    return float(np.sort(np.delete(u, i))[::-1][:n].sum()) / n


def row_linprog(x, u, n, i, q):
    bounds = [(0.0, 0.0 if j == i else 1.0 / n) for j in range(x.size)]
    res = linprog(x, A_ub=-u[None, :], b_ub=[-q], A_eq=np.ones((1, x.size)),
                  b_eq=[1.0], bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.fun)


ROW_KINDS = ["continuous", "binary", "three-level", "two-decimal"]


def solve_row(x, u, n, i, q):
    """One row LP through the batched kernel."""
    return optim._solve_row_lps(x, u[None, :], n, np.array([q]), np.array([i]))[0]


def _row_greedy(x, u, n, self_idx, t, prefer_high_quality):
    r = x - t * u
    r[self_idx] = np.inf
    idx = np.arange(x.size)
    if prefer_high_quality:
        order = np.lexsort((idx, -u, r))
    else:
        order = np.lexsort((idx, r))
    return _selection(x, u, n, order[:n])


def _selection(x, u, n, sel):
    y = np.zeros(x.size)
    y[sel] = 1.0 / n
    return y, float(u[sel].sum()) / n, float(x[sel].sum()) / n


def _solve_row_lp(x, u, n, self_idx, q):
    """The per-row myopic solver that `_solve_row_lps` replaced: the same
    breakpoint walk, one row at a time over all K columns, each greedy a
    lexsort of the whole row."""
    y_cost, g_cost, _ = _row_greedy(x, u, n, self_idx, 0.0, False)
    if g_cost >= q - 1e-12:
        return y_cost
    y_lo, g_lo, c_lo = _row_greedy(x, u, n, self_idx, 0.0, True)
    if g_lo >= q:
        theta = (q - g_cost) / (g_lo - g_cost)
        return (1.0 - theta) * y_cost + theta * y_lo
    key = u.copy()
    key[self_idx] = -np.inf
    top = np.lexsort((np.arange(x.size), x, -key))[:n]
    y_hi, g_hi, c_hi = _selection(x, u, n, top)
    if g_hi < q - 1e-9 or g_hi <= g_lo:
        raise InfeasibleQualityError(
            f"row {self_idx}: quality floor {q} exceeds best attainable {g_hi:.6f}"
        )
    for _ in range(optim._ROW_WALK_STEPS):
        t = (c_hi - c_lo) / (g_hi - g_lo)
        y, g, c = _row_greedy(x, u, n, self_idx, t, True)
        if c - t * g >= c_lo - t * g_lo - 1e-12 * (c_hi + t * g_hi):
            break
        if g >= q:
            y_hi, g_hi, c_hi = y, g, c
        else:
            y_lo, g_lo, c_lo = y, g, c
    theta = min(1.0, (q - g_lo) / (g_hi - g_lo))
    return (1.0 - theta) * y_lo + theta * y_hi


def reference_myopic(inputs):
    """Myopic matrix from `_solve_row_lp`, row by row, or the error text."""
    u = np.asarray(inputs.similarity, dtype=float)
    x = np.asarray(inputs.cost, dtype=float)
    y = np.zeros(u.shape)
    try:
        for i in range(u.shape[0]):
            y[i] = _solve_row_lp(x, u[i], inputs.model.list_size, i, float(inputs.quality[i]))
    except InfeasibleQualityError as exc:
        return str(exc)
    return y


def batched_myopic(inputs):
    try:
        return np.asarray(myopic_solve(inputs))
    except InfeasibleQualityError as exc:
        return str(exc)


def battery_instance(rng, kind, cost_kind, floor_kind):
    """Random myopic instance: similarities of one of `ROW_KINDS`, dense or
    thinned, costs of one of `random_row`'s kinds, and one floor rule."""
    k = int(rng.integers(5, 121))
    n = int(rng.integers(1, min(6, k - 1) + 1))
    u = similarities(rng, kind, (k, k))
    if rng.uniform() < 0.7:  # else as drawn: continuous kinds stay dense
        u[rng.uniform(size=(k, k)) > rng.uniform(0.02, 1.0)] = 0.0
    np.fill_diagonal(u, 0.0)
    x = [rng.uniform(0.0, 1.0, k), (rng.uniform(size=k) < 0.3).astype(float),
         np.round(rng.uniform(0.0, 1.0, k), 1)][cost_kind]
    x[rng.integers(k)] = 0.0  # that row's own index is among the cheapest
    model = RequestModel(np.full(k, 1.0 / k), 0.8, n)
    best = OptimInputs(u, model, x).max_quality()
    q = [best, np.maximum(best - 1e-7, 0.0), rng.uniform(0.0, 1.0, k) * best,
         np.zeros(k)][floor_kind]
    return OptimInputs(u, model, x, q)


class TestMyopicMatchesRowReference:
    """`myopic_solve` is byte for byte the per-row solver it replaced."""

    def test_byte_identical_on_random_instances(self):
        rng = np.random.default_rng(60)
        cases = [(kind, c, f) for kind in ROW_KINDS for c in range(3) for f in range(4)]
        # `narrow` counts instances whose pools are narrower than their rows
        solved = few_zeros = narrow = 0
        for trial in range(336):
            inp = battery_instance(rng, *cases[trial % len(cases)])
            ref = reference_myopic(inp)
            got = batched_myopic(inp)
            if isinstance(ref, str):
                assert got == ref, trial
                continue
            assert isinstance(got, np.ndarray) and np.array_equal(got, ref), trial
            solved += 1
            u = np.asarray(inp.similarity)
            k, n = u.shape[0], inp.model.list_size
            few_zeros += int(np.any((u == 0.0).sum(axis=1) - 1 < n))
            narrow += int(n + 1 + (u > 0.0).sum(axis=1).max() < k)
        assert solved >= 300 and few_zeros >= 50 and narrow >= 100

    def test_byte_identical_in_small_blocks(self, monkeypatch):
        monkeypatch.setattr(optim, "_BLOCK_ENTRIES", 50)
        rng = np.random.default_rng(61)
        for trial in range(40):
            inp = battery_instance(rng, ROW_KINDS[trial % 4], trial % 3, 2)
            assert np.array_equal(batched_myopic(inp), reference_myopic(inp)), trial

    def test_byte_identical_on_continuous_costs_at_scale(self):
        # the vectors policy iteration would pass: continuous, on a sparse graph
        base = anchored_instance(757, 4, 0.8, 38, seed=3)
        x = np.random.default_rng(62).uniform(0.0, 1.0, 757)
        inp = OptimInputs(base.similarity, base.model, x, base.quality)
        assert np.array_equal(batched_myopic(inp), reference_myopic(inp))


def two_short_rows():
    """Rows 3 and 6 reach their best quality, 0.5, at t = 0 already, yet
    fall just short of a floor 5e-13 above it (within construction's
    1e-12 slack): both fail the walk's check that the high end beats the
    low end."""
    k = 8
    u = np.zeros((k, k))
    u[:, 6:] = 0.5
    u[6, 5] = 0.5
    np.fill_diagonal(u, 0.0)
    q = np.zeros(k)
    q[[3, 6]] = 0.5 + 5e-13
    return u, RequestModel(np.full(k, 1.0 / k), 0.8, 2), np.zeros(k), q


class TestMyopicInfeasibleRow:
    MESSAGE = "row {}: quality floor 0.5000000000005 exceeds best attainable 0.500000"

    @pytest.mark.parametrize("block_entries", [optim._BLOCK_ENTRIES, 20])
    def test_lowest_failing_row_is_named(self, monkeypatch, block_entries):
        monkeypatch.setattr(optim, "_BLOCK_ENTRIES", block_entries)
        u, model, x, q = two_short_rows()
        with pytest.raises(InfeasibleQualityError) as err:
            myopic_solve(OptimInputs(u, model, x, q))
        assert str(err.value) == self.MESSAGE.format(3)
        q[3] = 0.0
        with pytest.raises(InfeasibleQualityError) as err:
            myopic_solve(OptimInputs(u, model, x, q))
        assert str(err.value) == self.MESSAGE.format(6)


class TestRowLp:
    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_matches_linprog(self, kind):
        rng = np.random.default_rng(ROW_KINDS.index(kind) + 40)
        for trial in range(100):
            x, u, n, i = random_row(rng, kind)
            best = row_best_quality(u, n, i)
            q = [best, best - 1e-7, rng.uniform(0.0, best)][trial % 3]
            y = solve_row(x, u, n, i, q)
            assert abs(y.sum() - 1.0) <= 1e-12, trial
            assert y.min() >= 0.0 and y.max() <= 1.0 / n + 1e-15 and y[i] == 0.0, trial
            assert float(u @ y) >= q - 1e-9, trial
            assert abs(float(x @ y) - row_linprog(x, u, n, i, q)) <= 1e-9, trial

    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_unreachable_floor_raises(self, kind):
        rng = np.random.default_rng(ROW_KINDS.index(kind) + 50)
        for _ in range(20):
            x, u, n, i = random_row(rng, kind)
            q = row_best_quality(u, n, i) + 1e-6
            with pytest.raises(InfeasibleQualityError):
                solve_row(x, u, n, i, q)

    def test_equal_similarities_raise(self):
        u = np.full(6, 0.5)
        u[2] = 0.0
        with pytest.raises(InfeasibleQualityError):
            solve_row(np.linspace(0.0, 1.0, 6), u, 2, 2, 0.7)

    def test_few_walk_steps_per_binding_row(self, monkeypatch):
        # The per-row solver made at most 6 greedy calls per binding row
        # here: two at t = 0, then at most 4 walk steps. One block solves
        # all 200 rows. The cost-only greedy at t = 0 needs no `_first_n`
        # call, so the calls are the second t = 0 greedy over the binding
        # rows, the high end over the rows still short of their floor,
        # then one per walk step over the rows still walking; a row that
        # walks at a step walked at every earlier one, so the calls after
        # the first two bound every row's steps.
        rows = []
        first_n = optim._first_n

        def counted(key, *rest):
            rows.append(key.shape[0])
            return first_n(key, *rest)

        monkeypatch.setattr(optim, "_first_n", counted)
        myopic_solve(anchored_instance(200, 4, 0.8, 10, seed=7))
        assert rows[0] == 200 and rows[1] >= 100
        assert len(rows) - 2 <= 4


class TestResidual:
    def test_zero_at_stationary_point(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            v = rng.uniform(0.0, 1.0, (k, k))
            np.fill_diagonal(v, 0.0)
            v /= v.sum(axis=1, keepdims=True)
            n = int(rng.integers(1, k))
            y = RecMatrix(np.minimum(v, 1.0 / n), n) if np.all(v <= 1.0 / n) else None
            if y is None:
                continue
            p0 = rng.uniform(0.1, 1.0, k)
            p0 /= p0.sum()
            m = RequestModel(p0, float(rng.uniform(0.1, 0.9)), n)
            pi = stationary_direct(y, m)
            c = residual_c(pi, y, m)
            assert np.abs(c).max() <= 1e-10

    def test_zero_follow_probability_reduces_to_popularity(self):
        p0 = np.array([0.2, 0.3, 0.5])
        m = RequestModel(p0, 0.0, 1)
        y = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        c = residual_c(p0, y, m)
        npt.assert_allclose(c, 0.0, atol=1e-15)

    def test_small_instance_arithmetic(self):
        m = RequestModel(np.array([0.5, 0.5]), 0.5, 1)
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = residual_c(np.array([1.0, 0.0]), y, m)
        npt.assert_allclose(c, [0.75, -0.75], atol=1e-15)

    @pytest.mark.parametrize("wrapped", [True, False])
    def test_matches_dense_formula(self, wrapped):
        rng = np.random.default_rng(7)
        inputs = make_inputs(60, 3, rng, q=0.5)
        y = top_n_similarity(inputs)
        m = inputs.model
        p0 = np.asarray(m.popularity)
        a = m.follow_prob
        for _ in range(5):
            pi = rng.random(60)
            dense = pi - a * (np.asarray(y).T @ pi) - (1.0 - a) * pi.sum() * p0
            c = residual_c(pi, y if wrapped else np.array(y), m)
            assert np.abs(c - dense).max() <= 1e-15


class TestAugmentedLagrangian:
    def setup_method(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        self.model = RequestModel(np.array([0.5, 0.5]), 0.5, 1)
        self.inp = OptimInputs(
            SimilarityMatrix(u), self.model, np.array([1.0, 0.0]), 0.0
        )
        self.y = np.array([[0.0, 1.0], [1.0, 0.0]])

    def test_penalty_vanishes_at_stationary_point(self):
        pi = stationary_direct(RecMatrix(self.y, 1), self.model)
        f = augmented_lagrangian(pi, self.y, np.array([3.0, -2.0]), 5.0, self.inp)
        npt.assert_allclose(f, float(np.asarray(pi) @ [1.0, 0.0]), atol=1e-9)

    def test_zero_multiplier_zero_penalty_is_plain_cost(self):
        pi = np.array([0.3, 0.7])
        f = augmented_lagrangian(pi, self.y, np.zeros(2), 0.0, self.inp)
        npt.assert_allclose(f, 0.3, atol=1e-15)

    def test_direct_arithmetic(self):
        f = augmented_lagrangian(
            np.array([1.0, 0.0]), self.y, np.array([1.0, 1.0]), 2.0, self.inp
        )
        npt.assert_allclose(f, 2.125, atol=1e-12)


class TestCarsPiStep:
    def test_rec_matrix_nonzeros_give_bare_array_result(self):
        rng = np.random.default_rng(19)
        inp = make_inputs(40, 3, rng, q=0.3)
        y = RecMatrix(0.4 * np.asarray(top_n_similarity(inp))
                      + 0.6 * np.asarray(myopic_solve(inp)), 3)
        lam = rng.normal(0.0, 0.5, 40)
        held = vars(y)["nonzeros"]  # taken at construction
        bare = cars_pi_step(np.array(y), lam, 1.0, inp, max_iter=200)
        kept = cars_pi_step(y, lam, 1.0, inp, max_iter=200)
        assert y.nonzeros is held
        assert np.asarray(kept).tobytes() == np.asarray(bare).tobytes()
        again = cars_pi_step(y, lam, 1.0, inp, max_iter=200)
        assert np.asarray(again).tobytes() == np.asarray(bare).tobytes()

    def test_large_penalty_recovers_stationary(self):
        rng = np.random.default_rng(7)
        inp = make_inputs(5, 2, rng, q=0.0)
        y = myopic_solve(inp)
        pi = cars_pi_step(y, np.zeros(5), 1e6, inp)
        ref = stationary_direct(y, inp.model)
        npt.assert_allclose(np.asarray(pi), np.asarray(ref), atol=1e-4)

    def test_zero_penalty_is_cheapest_vertex(self):
        rng = np.random.default_rng(8)
        inp = make_inputs(4, 1, rng, q=0.0)
        x = np.asarray(inp.cost, dtype=float)
        y = myopic_solve(inp)
        pi = cars_pi_step(y, np.zeros(4), 1e-12, inp)
        expect = np.zeros(4)
        expect[int(np.argmin(x))] = 1.0
        npt.assert_allclose(np.asarray(pi), expect, atol=1e-5)

    def test_no_recommendations_drives_to_popularity(self):
        rng = np.random.default_rng(9)
        inp = make_inputs(4, 1, rng, q=0.0, a=0.0)
        y = myopic_solve(inp)
        pi = cars_pi_step(y, np.zeros(4), 1e6, inp)
        npt.assert_allclose(
            np.asarray(pi), np.asarray(inp.model.popularity), atol=1e-4
        )

    @pytest.mark.parametrize("seed", [21, 22, 23, 24])
    def test_matches_kkt_oracle_with_multiplier(self, seed):
        # Q and the linear term are built densely here, from P itself, and
        # the oracle enumerates active sets. Every row of Y blends two
        # random N-subsets, so it has more than N nonzeros and Y is not
        # symmetric: applying P where P^T belongs fails this test.
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(5, 9)), 2
        inp = make_inputs(k, n, rng, q=0.0, a=float(rng.uniform(0.5, 0.9)))
        y = np.zeros((k, k))
        for i in range(k):
            others = np.array([j for j in range(k) if j != i])
            theta = rng.uniform(0.2, 0.8)
            y[i, rng.choice(others, n, replace=False)] += theta / n
            y[i, rng.choice(others, n, replace=False)] += (1.0 - theta) / n
        assert np.count_nonzero(y) > k * n
        assert not np.array_equal(y != 0.0, (y != 0.0).T)
        lam = rng.normal(0.0, 0.5, k)
        rho = float(rng.uniform(0.5, 5.0))
        p0 = np.asarray(inp.model.popularity, dtype=float)
        a = inp.model.follow_prob
        p = transition_ref(y, p0, a)
        eye = np.eye(k)
        quad = rho * (eye - p) @ (eye - p.T)
        lin = np.asarray(inp.cost, dtype=float) + lam - p @ lam
        ref_obj, ref_pi = qp_oracle(c=lin, quad=quad, a_eq=np.ones((1, k)),
                                    b_eq=np.array([1.0]), lower=np.zeros(k))
        pi = np.asarray(cars_pi_step(RecMatrix(y, n), lam, rho, inp, tol=1e-11))
        npt.assert_allclose(pi, ref_pi, atol=1e-6)
        obj = 0.5 * float(pi @ quad @ pi) + float(lin @ pi)
        assert abs(obj - ref_obj) <= 1e-9 * (1.0 + abs(ref_obj))


def binding_instance(rng, k, n):
    """Dense instance whose floors sit at 90 % of the poorest row's best."""
    probe = make_inputs(k, n, rng, q=0.0, density=1.0)
    floor = 0.9 * float(probe.max_quality().min())
    return OptimInputs(probe.similarity, probe.model, probe.cost, floor)


def record_row_visits(monkeypatch):
    """Record each row the recommendation step's descent visits, with the
    row it returns."""
    real = optim._quality_row_prox
    visits = []

    def prox(w, u_row, q_floor, n, i, sigma0=0.0):
        out = real(w, u_row, q_floor, n, i, sigma0)
        visits.append((int(i), out[0]))
        return out

    monkeypatch.setattr(optim, "_quality_row_prox", prox)
    return visits


def sweep_changes(visits, y0, pi):
    """Largest change of ``s = Y^T pi`` and of an entry of Y in each sweep
    of recorded row visits from `y0`; every sweep visits the rows of
    positive `pi`."""
    per_sweep = int(np.count_nonzero(pi > 0.0))
    assert len(visits) % per_sweep == 0
    y = np.array(y0, dtype=float)
    s_moves, y_moves = [], []
    for start in range(0, len(visits), per_sweep):
        before = y.copy()
        for i, row in visits[start:start + per_sweep]:
            y[i] = row
        s_moves.append(float(np.abs((y - before).T @ pi).max()))
        y_moves.append(float(np.abs(y - before).max()))
    return s_moves, y_moves


def row_blocks(w):
    """K x K^2 matrix whose row i applies ``w[i]`` to row i of a flattened Y."""
    k = w.shape[0]
    out = np.zeros((k, k * k))
    for i in range(k):
        out[i, i * k:(i + 1) * k] = w[i]
    return out


def rec_bounds(k, n):
    """Entry bounds of a flattened Y: [0, 1/N], zero on the diagonal."""
    return [(0.0, 0.0 if i == j else 1.0 / n) for i in range(k) for j in range(k)]


def y_step_reference(pi, lam, rho, inputs, y0):
    """The recommendation step solved by SLSQP over all K^2 entries of Y."""
    pv = np.asarray(pi, dtype=float)
    u = np.asarray(inputs.similarity, dtype=float)
    a = inputs.model.follow_prob
    k = pv.size

    def fun(v):
        return augmented_lagrangian(pv, v.reshape(k, k), lam, rho, inputs)

    def jac(v):
        c = residual_c(pv, v.reshape(k, k), inputs.model)
        return -a * np.outer(pv, lam + rho * c).ravel()

    sums, floors = row_blocks(np.ones((k, k))), row_blocks(u)
    q = np.asarray(inputs.quality, dtype=float)
    res = minimize(
        fun, np.asarray(y0, dtype=float).ravel(), jac=jac, method="SLSQP",
        bounds=rec_bounds(k, inputs.model.list_size),
        constraints=[
            {"type": "eq", "fun": lambda v: sums @ v - 1.0, "jac": lambda v: sums},
            {"type": "ineq", "fun": lambda v: floors @ v - q, "jac": lambda v: floors},
        ],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert res.success, res.message
    return res.x.reshape(k, k)


class TestQualityRowProx:
    def test_matches_qp_oracle_with_binding_floor(self):
        rng = np.random.default_rng(16)
        for trial in range(24):
            k = int(rng.integers(3, 8))
            n = int(rng.integers(1, k))
            i = int(rng.integers(k))
            u = rng.uniform(0.0, 1.0, k)
            u[i] = 0.0
            upper = np.full(k, 1.0 / n)
            upper[i] = 0.0
            w = rng.normal(0.0, 1.0, k)
            plain, sigma = _quality_row_prox(w, u, 0.0, n, i)
            assert sigma == 0.0
            best = float(np.sort(u)[::-1][:n].sum()) / n
            got = float(u @ plain)
            if best - got < 1e-6:
                continue
            q = got + float(rng.uniform(0.1, 0.9)) * (best - got)
            y, sigma = _quality_row_prox(w, u, q, n, i)
            ref_obj, _ = qp_oracle(
                c=-w, quad=np.eye(k), a_eq=np.ones((1, k)), b_eq=np.array([1.0]),
                g=u[None, :], h=np.array([q]), lower=np.zeros(k), upper=upper,
            )
            obj = 0.5 * float(y @ y) - float(w @ y)
            assert abs(obj - ref_obj) <= 1e-9, (trial, obj - ref_obj)
            assert sigma > 0.0
            assert abs(float(y.sum()) - 1.0) <= 1e-12
            assert y.min() >= 0.0 and np.all(y <= upper)
            assert float(u @ y) >= q - 1e-9

    @staticmethod
    def _check_against_oracle(w, u, q, n, i):
        k = w.size
        upper = np.full(k, 1.0 / n)
        upper[i] = 0.0
        y, sigma = _quality_row_prox(w, u, q, n, i)
        ref_obj, _ = qp_oracle(
            c=-w, quad=np.eye(k), a_eq=np.ones((1, k)), b_eq=np.array([1.0]),
            g=u[None, :], h=np.array([q]), lower=np.zeros(k), upper=upper,
        )
        obj = 0.5 * float(y @ y) - float(w @ y)
        assert abs(obj - ref_obj) <= 1e-9, obj - ref_obj
        assert abs(float(y.sum()) - 1.0) <= 1e-12
        assert y.min() >= 0.0 and np.all(y <= upper)
        assert float(u @ y) >= q - 1e-12
        return y, sigma

    def test_two_valued_rows_match_qp_oracle(self):
        # binding rows whose similarities take two values: 0/1 and alpha/beta
        rng = np.random.default_rng(26)
        checked = tied = 0
        for trial in range(20):
            k = int(rng.integers(4, 8))
            n = int(rng.integers(1, k - 1))
            i = int(rng.integers(k))
            lo, hi = (0.0, 1.0) if trial % 2 else tuple(np.sort(rng.uniform(0.1, 0.9, 2)))
            u = np.where(rng.uniform(size=k) < 0.5, hi, lo)
            u[i] = 0.0
            if trial % 4 < 2:
                w = rng.normal(0.0, 1.0, k)
            else:  # few levels a cap apart: ties at the cut
                w = rng.integers(-3, 3, k) / n
            got = float(u @ _quality_row_prox(w, u, 0.0, n, i)[0])
            best = float(np.sort(u)[::-1][:n].sum()) / n
            if best - got < 1e-6:
                continue
            q = got + float(rng.uniform(0.1, 1.0)) * (best - got)
            y, sigma = self._check_against_oracle(w, u, q, n, i)
            assert sigma > 0.0, trial
            assert abs(float(u @ y) - q) <= 1e-12, trial
            checked += 1
            tied += trial % 4 >= 2
        assert checked >= 12 and tied >= 4

    def test_two_valued_edge_floors_match_qp_oracle(self):
        n = 4
        w = np.array([0.0, 0.9, -0.2, 0.4, 0.6, 0.1, 0.3])
        # q = 1 with five related items: the alpha-block gets no mass
        u = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        y, sigma = self._check_against_oracle(w, u, 1.0, n, 0)
        assert sigma > 0.0 and y[1] == 0.0
        # a floor at the beta-block's capacity: both related items at the cap
        u = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        y, sigma = self._check_against_oracle(w, u, 0.5, n, 0)
        assert sigma > 0.0
        npt.assert_allclose(y[[2, 5]], 0.25, atol=1e-15)
        # no candidate at alpha: the alpha entries lie far below the cut,
        # so every candidate carries beta and the plain projection meets q
        u = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        w_far = np.where(u > 0.0, w, -10.0)
        y, sigma = self._check_against_oracle(w_far, u, 1.0, n, 0)
        assert sigma == 0.0
        # alpha = 0.2 < beta = 0.7 with ties at the cut w_(4) - 1/4
        u = np.array([0.0, 0.2, 0.7, 0.2, 0.7, 0.2, 0.2])
        w_tied = np.array([0.0, 0.5, 0.25, 0.5, 0.0, 0.25, 0.5])
        y, sigma = self._check_against_oracle(w_tied, u, 0.4, n, 0)
        assert sigma > 0.0 and abs(float(u @ y) - 0.4) <= 1e-12

    def test_binding_binary_row_needs_few_projections(self, monkeypatch):
        # rows of a 0/1 similarity at cars-large's scale: K = 757, N = 4,
        # 12 related items, floor 0.8
        rng = np.random.default_rng(27)
        k, n = 757, 4
        calls = []
        real = optim._project_capped
        monkeypatch.setattr(optim, "_project_capped",
                            lambda *args: calls.append(1) or real(*args))
        most = 0
        for _ in range(40):
            i = int(rng.integers(k))
            u = np.zeros(k)
            u[rng.choice(np.delete(np.arange(k), i), 12, replace=False)] = 1.0
            upper = np.full(k, 1.0 / n)
            upper[i] = 0.0
            w = rng.normal(0.0, 1.0, k)
            calls.clear()
            y, sigma = _quality_row_prox(w, u, 0.8, n, i)
            assert sigma > 0.0
            most = max(most, len(calls))
            ref, _ = _full_length_row_prox(w, u, 0.8, upper)
            assert np.abs(y - ref).max() <= 1e-12
        assert most <= 3

    @pytest.mark.parametrize("n", [48, 49])
    def test_caps_rounded_down_take_one_more_candidate(self, n):
        # 49 is the first N with N fl(1/N) < 1: N entries at the cap then
        # leave 1 - N c > 0 of the row's mass, so an entry lying exactly at
        # the cut w_(N) - c must stay a candidate and carry a share. At
        # N = 48 the caps hold the whole row and that entry gets nothing.
        c = 1.0 / n
        k = n + 3
        i = k - 1
        w = np.full(k, -3.0)
        w[:n] = 0.0
        w[n] = -c
        u = np.zeros(k)
        u[n + 1] = 1.0
        y, sigma = _quality_row_prox(w, u, 0.0, n, i)
        assert (y[n] > 0.0) == (n * c < 1.0)
        assert sigma == 0.0 and y[i] == 0.0 and y.min() >= 0.0 and y.max() <= c
        assert abs(float(y.sum()) - 1.0) <= 1e-15
        # the QP is strictly convex and symmetric in the N tied entries, so
        # they share one value, and the oracle solves for their total
        ref_obj, _ = qp_oracle(
            c=-w[n - 1:i], quad=np.diag([1.0 / n, 1.0, 1.0]), a_eq=np.ones((1, 3)),
            b_eq=np.array([1.0]), lower=np.zeros(3), upper=np.array([n * c, c, c]),
        )
        assert abs(0.5 * float(y @ y) - float(w @ y) - ref_obj) <= 1e-12

    def test_roundoff_boundary_takes_no_search(self, caplog, monkeypatch):
        # targets spread over thousands carry errors near 1e-12, so a floor
        # within 2e-11 of the plain projection's quality sits where the
        # block shifts and the plain projection may disagree on whether it
        # binds; such a 0/1 row still takes at most 3 projections. Sums of
        # about 50 such entries hold to 1e-9, not 1e-12.
        rng = np.random.default_rng(29)
        k, n = 120, 4
        calls = []
        real = optim._project_capped
        monkeypatch.setattr(optim, "_project_capped",
                            lambda *args: calls.append(1) or real(*args))
        boundary = 0
        for _ in range(60):
            u = np.zeros(k)
            u[rng.choice(np.arange(1, k), 15, replace=False)] = 1.0
            upper = np.full(k, 1.0 / n)
            upper[0] = 0.0
            w = -89.0 + rng.normal(0.0, 0.02, k)
            w[rng.choice(np.flatnonzero(u > 0.0))] = 5500.0
            w[rng.choice(np.flatnonzero((u == 0.0) & (upper > 0.0)))] = 5500.0 + rng.normal()
            plain = real(w, upper)[0]
            q = float(u @ plain) + float(rng.uniform(-2e-11, 2e-11))
            calls.clear()
            with caplog.at_level(logging.WARNING, logger="cacherec"):
                y, sigma = _quality_row_prox(w, u, q, n, 0)
            assert len(calls) <= 3
            assert float(u @ y) >= q - 1e-9 and abs(float(y.sum()) - 1.0) <= 1e-9
            assert np.abs(y - plain).max() <= 1e-9
            boundary += sigma == 0.0 and float(u @ plain) < q - 1e-12
        assert caplog.records == []
        assert boundary >= 5


def _full_length_row_prox(w, u_row, q_floor, upper, sigma0=0.0):
    """`_quality_row_prox` without its candidate set: every projection
    runs over all K entries."""
    y = _project_capped(w, upper)[0]
    got = float(u_row @ y)
    if got >= q_floor - 1e-12:
        return y, 0.0

    def slope(yr):
        f = (yr > 0.0) & (yr < upper)
        m = int(np.count_nonzero(f))
        if m == 0:
            return 0.0
        uf = u_row[f]
        return max(float(uf @ uf) - float(uf.sum()) ** 2 / m, 0.0)

    spread = float(np.ptp(w)) + float(upper.max()) + 1.0
    land = 1e-12 * max(1.0, abs(q_floor))
    sg_lo, sg_hi = 0.0, None
    y_lo, y_hi = y, None
    if sigma0 > 0.0:
        sg = sigma0
    else:
        sl = slope(y)
        sg = (q_floor - got) / sl if sl > 1e-12 else 1e-3 * spread
    for _ in range(optim._ROW_NEWTON_STEPS):
        y2 = _project_capped(w + sg * u_row, upper)[0]
        got2 = float(u_row @ y2)
        if abs(got2 - q_floor) <= land:
            return y2, sg
        if got2 < q_floor:
            sg_lo, y_lo = sg, y2
        else:
            sg_hi, y_hi = sg, y2
        sl = slope(y2)
        prop = sg + (q_floor - got2) / sl if sl > 1e-12 else None
        if sg_hi is None:
            sg = prop if (prop is not None and prop > sg) else 4.0 * sg + 1e-3 * spread
        elif prop is None or not (sg_lo < prop < sg_hi):
            sg = 0.5 * (sg_lo + sg_hi)
        else:
            sg = prop
    if y_hi is None:
        budget = 1.0
        sg_hi = sg
        y_hi = np.zeros_like(w)
        for j in np.argsort(-u_row):
            give = min(upper[j], budget)
            y_hi[j] = give
            budget -= give
            if budget <= 0.0:
                break
    gl = float(u_row @ y_lo)
    gh = float(u_row @ y_hi)
    if gh - gl <= 0.0 or gh < q_floor:
        return y_hi, sg_hi
    gamma = min(max((q_floor - gl) / (gh - gl), 0.0), 1.0)
    return (1.0 - gamma) * y_lo + gamma * y_hi, sg_lo + gamma * (sg_hi - sg_lo)


def _y_step_row(rng, k, n, u_kind, w_kind):
    """A recommendation-step row: zero cap and similarity on the diagonal."""
    i = int(rng.integers(k))
    if u_kind == "sparse":
        u = np.where(rng.uniform(size=k) < min(0.5, 8.0 / k), rng.uniform(0.1, 1.0, k), 0.0)
    elif u_kind == "continuous":
        u = rng.uniform(0.0, 1.0, k)
    elif u_kind == "binary":
        u = (rng.uniform(size=k) < min(0.5, 8.0 / k)).astype(float)
    elif u_kind == "two-level":  # alpha < beta, both positive
        alpha = float(rng.uniform(0.05, 0.5))
        u = np.where(rng.uniform(size=k) < 0.3, alpha + float(rng.uniform(0.1, 0.5)), alpha)
    else:
        u = rng.choice([0.0, 0.5, 1.0], k)
    u[i] = 0.0
    upper = np.full(k, 1.0 / n)
    upper[i] = 0.0
    if w_kind == "normal":
        w = rng.normal(0.0, 1.0, k)
    else:  # few levels a cap apart: ties at the cut w_(N) - 1/N
        w = rng.integers(-3, 3, k) / n
    return w, u, upper, i


class TestRowProxCandidates:
    def test_matches_full_length_solve(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        binding = slack = 0
        for k, rows in ((6, 800), (12, 800), (120, 800), (757, 300)):
            for _ in range(rows):
                n = int(rng.integers(1, min(6, k - 1) + 1))
                w, u, upper, i = _y_step_row(
                    rng, k, n,
                    rng.choice(["sparse", "continuous", "levels", "binary", "two-level"]),
                    rng.choice(["normal", "levels"]),
                )
                plain = float(u @ _project_capped(w, upper)[0])
                best = float(np.sort(u)[::-1][:n].sum()) / n
                if best - plain > 1e-6 and rng.uniform() < 0.7:
                    q = plain + float(rng.uniform(0.05, 1.0)) * (best - plain)
                else:
                    q = plain * float(rng.uniform(0.0, 1.0))
                sigma0 = float(rng.exponential()) if rng.uniform() < 0.3 else 0.0
                ref, ref_sigma = _full_length_row_prox(w, u, q, upper, sigma0)
                y, sigma = _quality_row_prox(w, u, q, n, i, sigma0)
                worst = max(worst, float(np.abs(y - ref).max()))
                binding += ref_sigma > 0.0
                slack += ref_sigma == 0.0
        assert worst <= 1e-12
        assert binding >= 1000 and slack >= 500

    def test_projections_run_on_candidates_only(self, monkeypatch):
        rng = np.random.default_rng(24)
        k, n, i = 757, 4, 3
        u = np.zeros(k)
        u[rng.choice(np.delete(np.arange(k), i), 8, replace=False)] = rng.uniform(0.3, 1.0, 8)
        upper = np.full(k, 1.0 / n)
        upper[i] = 0.0
        w = rng.normal(0.0, 1.0, k)
        q = 0.9 * float(np.sort(u)[::-1][:n].sum()) / n
        ref, _ = _full_length_row_prox(w, u, q, upper)
        cut = np.sort(np.delete(w, i))[-n] - 1.0 / n
        size = int(np.count_nonzero(((w > cut) | (u > 0.0)) & (upper > 0.0)))
        lengths = []
        real = optim._project_capped
        monkeypatch.setattr(optim, "_project_capped",
                            lambda v, cap: lengths.append(v.size) or real(v, cap))
        y, sigma = _quality_row_prox(w, u, q, n, i)
        assert sigma > 0.0 and len(lengths) >= 2
        assert set(lengths) == {size} and size < 3 * (n + 8)
        assert np.abs(y - ref).max() <= 1e-12

    def test_similar_item_below_the_cut_gets_mass(self):
        # item 7 lies far below the cut w_(2) - 1/2 = 0.5, yet the floor
        # needs 0.3 of its similarity: y = (0.35, 0.35, 0, ..., 0.3 at 7)
        k, n = 20, 2
        w = np.zeros(k)
        w[:2] = 1.0
        w[7] = -5.0
        u = np.zeros(k)
        u[7] = 1.0
        upper = np.full(k, 1.0 / n)
        upper[19] = 0.0
        y, sigma = _quality_row_prox(w, u, 0.3, n, 19)
        want = np.zeros(k)
        want[[0, 1, 7]] = 0.35, 0.35, 0.3
        npt.assert_allclose(y, want, atol=1e-12)
        assert sigma > 0.0
        ref, _ = _full_length_row_prox(w, u, 0.3, upper)
        assert np.abs(y - ref).max() <= 1e-12


    def test_out_of_reach_floor_falls_back_on_the_whole_row(self):
        # two related items cannot carry a floor of 0.9 at N = 4: the
        # greedy maximal-quality row also fills unrelated entries, which
        # may lie outside the candidates
        rng = np.random.default_rng(25)
        k, n = 120, 4
        for _ in range(20):
            w, u, upper, i = _y_step_row(rng, k, n, "sparse", "normal")
            u[:] = 0.0
            u[rng.choice(np.flatnonzero(upper > 0.0), 2, replace=False)] = 1.0
            ref, ref_sigma = _full_length_row_prox(w, u, 0.9, upper)
            y, sigma = _quality_row_prox(w, u, 0.9, n, i)
            assert y.tobytes() == ref.tobytes()
            assert sigma == ref_sigma
            assert float(u @ y) == 0.5


class TestCarsYStep:
    def test_no_worse_than_start_or_general_qp(self):
        rng = np.random.default_rng(17)
        for trial in range(4):
            k = int(rng.integers(6, 11))
            inp = binding_instance(rng, k, 2)
            pi = rng.uniform(0.2, 1.0, k)
            pi /= pi.sum()
            lam = rng.normal(0.0, 0.5, k)
            rho = float(rng.uniform(0.5, 4.0))
            y0 = top_n_similarity(inp)
            y = cars_y_step(pi, lam, rho, inp, y0)
            ref = y_step_reference(pi, lam, rho, inp, y0)
            assert validate_rec_matrix(ref, 1e-9, 2) == [], trial
            assert np.all(quality_of(ref, inp.similarity) >= inp.quality - 1e-9), trial
            f = augmented_lagrangian(pi, y, lam, rho, inp)
            f0 = augmented_lagrangian(pi, y0, lam, rho, inp)
            f_opt = augmented_lagrangian(pi, ref, lam, rho, inp)
            assert f <= f0 + 1e-12, trial
            assert f >= f_opt - 1e-12, (trial, f - f_opt)
            assert f - f_opt <= 1e-3 * (f0 - f_opt), (trial, f - f_opt, f0 - f_opt)
            at_floor = np.abs(quality_of(y, inp.similarity) - inp.quality) <= 1e-9
            assert at_floor.any(), trial

    def test_output_feasible(self):
        rng = np.random.default_rng(18)
        for trial in range(10):
            k = int(rng.integers(4, 12))
            n = int(rng.integers(1, 3))
            inp = binding_instance(rng, k, n)
            pi = rng.uniform(0.0, 1.0, k)
            pi[rng.uniform(size=k) < 0.3] = 0.0  # rows without mass keep y0
            pi /= pi.sum()
            y = cars_y_step(pi, rng.normal(0.0, 1.0, k), float(rng.uniform(0.1, 5.0)), inp)
            assert validate_rec_matrix(y, 1e-9) == [], trial
            assert np.all(quality_of(y, inp.similarity) >= inp.quality - 1e-6), trial

    def test_start_below_a_floor_is_rejected(self):
        # row i starts below its floor and has no stationary mass, so the
        # descent would skip it and return it short: the start is rejected
        rng = np.random.default_rng(26)
        for trial in range(6):
            k = int(rng.integers(5, 12))
            n = int(rng.integers(1, 3))
            inp = binding_instance(rng, k, n)
            u, q = np.asarray(inp.similarity), inp.quality
            i = int(rng.integers(k))
            y0 = np.array(top_n_similarity(inp))
            y0[i] = 0.0
            y0[i, np.argsort(u[i] + np.eye(k)[i], kind="stable")[:n]] = 1.0 / n
            assert float(u[i] @ y0[i]) < q[i] - 1e-6, trial
            pi = rng.uniform(0.2, 1.0, k)
            pi[i] = 0.0
            pi /= pi.sum()
            with pytest.raises(InfeasibleQualityError, match=rf"^row {i}: .* below its floor"):
                cars_y_step(pi, rng.normal(0.0, 0.5, k), 1.0, inp, RecMatrix(y0, n))

    def test_descent_stops_on_the_change_of_s(self, monkeypatch):
        # Y moves by more than the stop tolerance in the last sweep, s does
        # not: the descent stops on s = Y^T pi, after the first sweep that
        # leaves it within _Y_STOP
        monkeypatch.setattr(optim, "_Y_SWEEPS", 60)
        rng = np.random.default_rng(30)
        inp = binding_instance(rng, 8, 2)
        pi = rng.uniform(0.2, 1.0, 8)
        pi /= pi.sum()
        y0 = top_n_similarity(inp)
        visits = record_row_visits(monkeypatch)
        cars_y_step(pi, rng.normal(0.0, 0.5, 8), 2.0, inp, y0)
        s_moves, y_moves = sweep_changes(visits, np.asarray(y0), pi)
        assert len(s_moves) < 60
        assert all(d > optim._Y_STOP for d in s_moves[:-1])
        assert s_moves[-1] <= optim._Y_STOP < y_moves[-1]

    def test_single_support_matches_reduced_problem(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            k, n = 5, 2
            inp = make_inputs(k, n, rng, q=0.35, density=1.0)
            a = inp.model.follow_prob
            p0 = np.asarray(inp.model.popularity, dtype=float)
            u = np.asarray(inp.similarity, dtype=float)
            r = int(rng.integers(k))
            pi = np.zeros(k)
            pi[r] = 1.0
            lam = rng.normal(0.0, 0.5, k)
            rho = 2.0
            y = np.asarray(cars_y_step(pi, lam, rho, inp))
            assert validate_rec_matrix(y, 1e-5, n) == []

            d = pi - (1.0 - a) * p0
            quad = (a * a * rho) * np.eye(k)
            lin = -a * (lam + rho * d)
            upper = np.full(k, 1.0 / n)
            upper[r] = 0.0
            ref_obj, _ = qp_oracle(
                c=lin, quad=quad,
                a_eq=np.ones((1, k)), b_eq=np.array([1.0]),
                g=u[r][None, :], h=np.array([float(inp.quality[r])]),
                lower=np.zeros(k), upper=upper,
            )
            got = float(lin @ y[r]) + 0.5 * float(y[r] @ quad @ y[r])
            assert got <= ref_obj + 1e-6 * (1.0 + abs(ref_obj)), trial

    def test_constant_objective_returns_feasible(self):
        rng = np.random.default_rng(11)
        inp = make_inputs(5, 2, rng, q=0.3)
        pi = np.full(5, 0.2)
        y = cars_y_step(pi, np.zeros(5), 1e-12, inp)
        assert validate_rec_matrix(y, 1e-5) == []
        assert np.all(quality_of(y, inp.similarity) >= inp.quality - 1e-5)

    def test_two_items_forced_swap(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = RequestModel(np.array([0.4, 0.6]), 0.5, 1)
        inp = OptimInputs(SimilarityMatrix(u), model, np.array([1.0, 0.0]), 0.2)
        y = cars_y_step(np.array([0.9, 0.1]), np.array([0.3, -0.1]), 3.0, inp)
        npt.assert_allclose(np.asarray(y), [[0.0, 1.0], [1.0, 0.0]], atol=1e-7)


class TestSolverWarnings:
    def test_logger_silent_by_default(self):
        handlers = logging.getLogger("cacherec").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_pi_step_at_step_cap_warns(self, caplog):
        inp = make_inputs(5, 2, np.random.default_rng(19), q=0.0)
        y = myopic_solve(inp)
        with caplog.at_level(logging.WARNING, logger="cacherec"):
            cars_pi_step(y, np.zeros(5), 1e6, inp, max_iter=2)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "stationary step" in caplog.records[0].getMessage()

    def test_y_step_warns_only_at_sweep_cap(self, caplog, monkeypatch):
        rng = np.random.default_rng(20)
        inp = binding_instance(rng, 8, 2)
        lam = rng.normal(0.0, 0.5, 8)
        single = np.zeros(8)
        single[3] = 1.0  # one row to visit: the second sweep moves nothing
        with caplog.at_level(logging.WARNING, logger="cacherec"):
            cars_y_step(single, lam, 2.0, inp)
        assert caplog.records == []
        full = rng.uniform(0.2, 1.0, 8)
        pi = full / full.sum()
        visits = record_row_visits(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="cacherec"):
            cars_y_step(pi, lam, 2.0, inp)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        msg = caplog.records[0].getMessage()
        assert "block descent stopped" in msg and "change of Y^T pi" in msg
        # the warning reports the last sweep's change of s = Y^T pi, the
        # measure its stop rule tests
        s_moves, _ = sweep_changes(visits, np.asarray(top_n_similarity(inp)), pi)
        assert len(s_moves) == optim._Y_SWEEPS
        sweeps, s_change, stop = caplog.records[0].args
        assert (sweeps, stop) == (optim._Y_SWEEPS, optim._Y_STOP)
        assert s_change > stop
        assert s_change == pytest.approx(s_moves[-1], rel=1e-9, abs=1e-15)

    def test_row_newton_search_at_step_cap_warns(self, caplog, monkeypatch):
        rng = np.random.default_rng(28)
        k, n = 30, 3
        u = rng.uniform(0.0, 1.0, k)
        u[0] = 0.0
        w = rng.normal(0.0, 1.0, k)
        with caplog.at_level(logging.WARNING, logger="cacherec"):
            exact, _ = _quality_row_prox(w, u, 0.9, n, 0)
        assert caplog.records == []
        monkeypatch.setattr(optim, "_ROW_NEWTON_STEPS", 1)
        with caplog.at_level(logging.WARNING, logger="cacherec"):
            y, _ = _quality_row_prox(w, u, 0.9, n, 0)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "floor multiplier search stopped" in caplog.records[0].getMessage()
        assert abs(float(u @ y) - 0.9) <= 1e-12 and abs(float(y.sum()) - 1.0) <= 1e-12
        assert np.abs(y - exact).max() > 1e-9  # the blend is not the projection

    def test_row_walk_at_step_cap_warns(self, caplog, monkeypatch):
        monkeypatch.setattr(optim, "_ROW_WALK_STEPS", 0)
        rng = np.random.default_rng(21)
        u = rng.uniform(0.0, 1.0, 30)
        u[0] = 0.0
        with caplog.at_level(logging.WARNING, logger="cacherec"):
            y = solve_row(rng.uniform(0.0, 1.0, 30), u, 3, 0, 0.9)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "breakpoint walk stopped" in caplog.records[0].getMessage()
        assert float(u @ y) >= 0.9 - 1e-12


class TestCarsSolve:
    def test_two_items_exact(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = RequestModel(np.array([0.3, 0.7]), 0.6, 1)
        inp = OptimInputs(SimilarityMatrix(u), model, np.array([1.0, 0.0]), 0.5)
        res = cars_solve(inp)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        npt.assert_allclose(np.asarray(res.best_y), swap, atol=1e-9)
        pi = stationary_direct(RecMatrix(swap, 1), model)
        npt.assert_allclose(res.best_cost, expected_cost(pi, inp.cost), atol=1e-9)

    def test_beats_best_deterministic_matrix(self):
        rng = np.random.default_rng(12)
        inp = make_inputs(4, 1, rng, q=0.0)
        res = cars_solve(inp)
        ref = best_deterministic_cost(
            np.asarray(inp.cost), np.asarray(inp.model.popularity),
            inp.model.follow_prob,
        )
        assert res.best_cost <= ref + 1e-4

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            inp = make_inputs(6, 2, rng, q=0.4)
            y0 = top_n_similarity(inp)
            res = cars_solve(inp, CarsConfig(y0=y0))
            pi0 = stationary_direct(y0, inp.model)
            assert res.best_cost <= expected_cost(pi0, inp.cost) + 1e-12
            assert res.best_cost == pytest.approx(min(it.actual_cost for it in res.trace))
            assert np.all(np.isfinite(res.trace))

    def test_output_constraints_and_traces(self):
        rng = np.random.default_rng(14)
        inp = make_inputs(5, 2, rng, q=0.45, density=1.0)
        res = cars_solve(inp, CarsConfig(max_iter=8))
        assert validate_rec_matrix(res.best_y, 1e-5) == []
        assert np.all(quality_of(res.best_y, inp.similarity) >= inp.quality - 1e-5)
        assert all(isinstance(it, CarsIterate) for it in res.trace)
        assert res.iterations == len(res.trace) - 1 >= 1
        assert res.trace[0].residual_sq == res.trace[0].lambda_norm == 0.0
        costs = [it.actual_cost for it in res.trace]
        assert res.best_index == int(np.argmin(costs))
        assert res.best_cost == pytest.approx(costs[res.best_index])

    def test_best_cost_matches_lu_where_the_fixed_point_runs(self, monkeypatch):
        # K=400 with about N nonzeros per row: every stationary solve in
        # cars_solve takes the fixed point through Y's nonzeros.
        k = 400
        p0 = zipf_popularity(k, 0.6)
        x = np.ones(k)
        x[sorted(top_c_cache(p0, 20).cached)] = 0.0
        inp = OptimInputs(anchored_similarity(k, 8.0, 4, seed=3),
                          RequestModel(p0, 0.8, 4), x, 0.8)
        y0 = myopic_solve(inp)
        lu_calls = []
        monkeypatch.setattr(markov, "stationary_direct",
                            lambda y, m: lu_calls.append(1) or stationary_direct(y, m))
        res = cars_solve(inp, CarsConfig(y0=y0, max_iter=2, subproblem_max_iter=50))
        assert lu_calls == []
        lu_cost = expected_cost(stationary_direct(res.best_y, inp.model), x)
        assert abs(res.best_cost - lu_cost) <= 1e-12

    def test_bare_array_warm_start_matches_rec_matrix(self):
        rng = np.random.default_rng(13)
        inp = make_inputs(6, 2, rng, q=0.4)
        y0 = top_n_similarity(inp)
        bare = cars_solve(inp, CarsConfig(y0=np.array(y0), max_iter=3))
        wrapped = cars_solve(inp, CarsConfig(y0=y0, max_iter=3))
        assert isinstance(bare.best_y, RecMatrix)
        assert np.asarray(bare.best_y).tobytes() == np.asarray(wrapped.best_y).tobytes()
        assert bare.trace == wrapped.trace

    def test_converged_flag_on_easy_instance(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = RequestModel(np.array([0.5, 0.5]), 0.4, 1)
        inp = OptimInputs(SimilarityMatrix(u), model, np.array([0.0, 1.0]), 0.0)
        res = cars_solve(inp)
        assert res.converged
        assert res.iterations <= 30

    def test_multiplier_step_switch_accepted(self):
        rng = np.random.default_rng(15)
        inp = make_inputs(4, 1, rng, q=0.0)
        res = cars_solve(inp, CarsConfig(multiplier_step=1.0, max_iter=6))
        assert np.all(np.isfinite(res.trace))

    def test_rejects_bad_config(self):
        for caps in ({"max_iter": 0}, {"max_iter": 2.5},
                     {"subproblem_max_iter": 0}, {"subproblem_max_iter": 100.5}):
            with pytest.raises(ValueError, match="max_iter must be a whole number >= 1"):
                CarsConfig(**caps)
        for step in ("abc", float("nan"), float("inf"), -1.0, 0.0):
            with pytest.raises(ValueError, match="multiplier_step must be a finite number > 0"):
                CarsConfig(multiplier_step=step)
        # the penalty weight and the accuracy targets are constants
        for knob in ("rho", "acc1", "acc2", "subproblem_tol"):
            with pytest.raises(TypeError):
                CarsConfig(**{knob: 1.0})

    def test_subproblem_failure_returns_earlier_iterate(self, y_step_fails_at_iteration_2):
        rng = np.random.default_rng(16)
        inp = make_inputs(6, 2, rng, q=0.4)
        y0 = top_n_similarity(inp)
        res = cars_solve(inp, CarsConfig(y0=y0, max_iter=5))
        assert res.message == "subproblem failed at iteration 2: forced step failure"
        assert not res.converged
        assert res.iterations == 1
        assert len(res.trace) == 2
        assert res.best_index == int(np.argmin([it.actual_cost for it in res.trace]))
        earlier = [y0, y_step_fails_at_iteration_2[0]][res.best_index]
        assert res.best_y is earlier
        assert res.best_cost == res.trace[res.best_index].actual_cost

    @staticmethod
    def _k60_inputs():
        k = 60
        p0 = zipf_popularity(k, 0.8)
        x = np.ones(k)
        x[sorted(top_c_cache(p0, 5).cached)] = 0.0
        u = anchored_similarity(k, 8.0, 5, seed=3)
        return OptimInputs(u, RequestModel(p0, 0.8, 4), x, 0.8)

    def test_warm_start_below_the_floors_is_rejected(self):
        # 1/4 on each row's first four other indices: most rows' quality
        # is far below 0.8, and a solve from there would return it as best
        inp = self._k60_inputs()
        k = inp.size
        y0 = np.zeros((k, k))
        for i in range(k):
            y0[i, [j for j in range(5) if j != i][:4]] = 0.25
        short = np.flatnonzero(quality_of(y0, inp.similarity) < 0.8 - 1e-6)
        assert short.size > 0
        with pytest.raises(InfeasibleQualityError,
                           match=rf"^row {short[0]}: the warm start has quality"):
            cars_solve(inp, CarsConfig(y0=RecMatrix(y0, 4)))

    def test_warm_start_of_another_list_size_is_rejected(self):
        # 1/2 on two related items per row meets every floor of 0.5, but
        # its entries exceed the model's cap 1/4
        base = self._k60_inputs()
        inp = OptimInputs(base.similarity, base.model, base.cost, 0.5)
        u = np.asarray(inp.similarity)
        y0 = np.zeros_like(u)
        for i in range(inp.size):
            y0[i, np.flatnonzero(u[i] > 0.0)[:2]] = 0.5
        assert np.all(quality_of(y0, u) >= 0.5)
        with pytest.raises(ValueError, match="warm start has list size 2, the model 4"):
            cars_solve(inp, CarsConfig(y0=RecMatrix(y0, 2)))
