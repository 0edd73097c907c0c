"""Stationary solves and chain metrics."""

import logging
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

import cacherec.markov as markov
from cacherec import (
    RecMatrix,
    RequestModel,
    SimilarityMatrix,
    cache_hit_ratio,
    expected_cost,
    quality_of,
    stationary,
    stationary_direct,
)

from oracles import power_ref, stationary_ref, transition_ref


def random_rec_matrix(k: int, n: int, rng) -> RecMatrix:
    """N random off-diagonal picks per row at weight 1/N each."""
    y = np.zeros((k, k))
    for i in range(k):
        cols = rng.choice([j for j in range(k) if j != i], size=n, replace=False)
        y[i, cols] = 1.0 / n
    return RecMatrix(y, list_size=n)


SWAP = RecMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), list_size=1)


class TestStationaryDirect:
    def test_a_zero_returns_popularity(self):
        p0 = np.array([0.3, 0.2, 0.5])
        m = RequestModel(p0, 0.0, 1)
        y = random_rec_matrix(3, 1, np.random.default_rng(2))
        pi = stationary_direct(y, m)
        assert np.abs(np.asarray(pi) - p0).max() <= 1e-12

    def test_symmetric_two_state(self):
        m = RequestModel([0.5, 0.5], 0.8, 1)
        pi = stationary_direct(SWAP, m)
        assert_allclose(np.asarray(pi), [0.5, 0.5], atol=1e-14)

    def test_three_cycle_frozen_value(self):
        # deterministic cycle 0 -> 1 -> 2 -> 0 at a=0.5, p0=[0.5,0.3,0.2];
        # reference computed independently by a replace-row linear solve
        # and confirmed by power iteration: [27/70, 12/35, 19/70]
        y = RecMatrix(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float),
                      list_size=1)
        m = RequestModel([0.5, 0.3, 0.2], 0.5, 1)
        pi = stationary_direct(y, m)
        assert_allclose(np.asarray(pi), [27 / 70, 12 / 35, 19 / 70], atol=1e-12)

    def test_stationarity_residual_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(3, 12))
            n = int(rng.integers(1, min(4, k)))
            y = random_rec_matrix(k, n, rng)
            p0 = rng.random(k) + 0.01
            p0 /= p0.sum()
            a = float(rng.random() * 0.95)
            m = RequestModel(p0, a, n)
            pi = np.asarray(stationary_direct(y, m))
            step = a * (pi @ np.asarray(y)) + (1 - a) * p0
            assert np.abs(pi - step).max() <= 1e-10

    def test_matches_replace_row_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            k = int(rng.integers(3, 30))
            y = random_rec_matrix(k, 2, rng) if k > 2 else SWAP
            p0 = rng.random(k) + 0.01
            p0 /= p0.sum()
            m = RequestModel(p0, 0.85, 2)
            pi = np.asarray(stationary_direct(y, m))
            p = transition_ref(np.asarray(y), p0, 0.85)
            assert np.abs(pi - stationary_ref(p)).max() <= 1e-12
            assert np.abs(pi - power_ref(p)).max() <= 1e-10

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_in_place_system_matches_eye_minus_ay_lu(self, seed):
        # The system is assembled in place; pin its output bit for bit
        # against the same LU applied to an explicitly built I - a Y^T.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(20, 60))
        # a writable array, so that writing into the caller's Y would show
        y = np.array(random_rec_matrix(k, 3, rng))
        y_before = y.copy()
        p0 = rng.random(k) + 0.01
        p0 /= p0.sum()
        a = 0.8
        pi = np.asarray(stationary_direct(y, RequestModel(p0, a, 3)))
        ref = scipy.linalg.lu_solve(
            scipy.linalg.lu_factor(np.eye(k) - a * y.T), (1.0 - a) * p0
        )
        ref /= ref.sum()
        ref = np.where(np.abs(ref) < 1e-15, np.abs(ref), ref)
        assert_array_equal(pi, ref)
        assert_array_equal(y, y_before)


def _solve_logged(caplog, y, m):
    """`stationary`'s result and its one DEBUG record's (path, steps, bound)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cacherec"):
        pi = np.asarray(stationary(y, m))
    (record,) = [r for r in caplog.records if r.name == "cacherec"]
    assert record.levelno == logging.DEBUG
    return pi, record.args


@pytest.fixture
def fixed_point_only(monkeypatch):
    """Make `stationary` take the fixed point whatever the size."""
    monkeypatch.setattr(markov, "_FIXED_POINT_RATIO", np.inf)


class TestStationary:
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.8, 0.95])
    @pytest.mark.parametrize("k", [5, 60, 400, 757])
    def test_agrees_with_lu_on_sparse_matrices(self, k, a, monkeypatch):
        rng = np.random.default_rng(k)
        y = random_rec_matrix(k, 3, rng)
        p0 = rng.random(k) + 0.01
        p0 /= p0.sum()
        m = RequestModel(p0, a, 3)
        ref = np.asarray(stationary_direct(y, m))
        assert np.abs(np.asarray(stationary(y, m)) - ref).max() <= 1e-13
        monkeypatch.setattr(markov, "_FIXED_POINT_RATIO", np.inf)
        assert np.abs(np.asarray(stationary(y, m)) - ref).max() <= 1e-13

    def test_popularity_with_zero_entries(self, fixed_point_only):
        rng = np.random.default_rng(11)
        k = 12
        y = random_rec_matrix(k, 2, rng)
        p0 = rng.random(k)
        p0[[0, 3, 4, 9]] = 0.0
        p0 /= p0.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            m = RequestModel(p0, 0.8, 2)
        pi = np.asarray(stationary(y, m))
        assert pi.min() >= 0.0
        assert abs(pi.sum() - 1.0) <= 1e-14
        assert np.abs(pi - np.asarray(stationary_direct(y, m))).max() <= 1e-13

    def test_a_zero_returns_popularity_exactly(self):
        rng = np.random.default_rng(12)
        k = 9
        p0 = rng.random(k) + 0.01
        p0 /= p0.sum()
        m = RequestModel(p0, 0.0, 2)
        assert_array_equal(stationary(random_rec_matrix(k, 2, rng), m), m.popularity.values)

    def test_rec_matrix_nonzeros_give_bare_array_result(self, fixed_point_only):
        # a RecMatrix holds its nonzeros from construction; the result must
        # not depend on it
        rng = np.random.default_rng(15)
        k = 300
        v = (0.3 * random_rec_matrix(k, 4, rng).values
             + 0.7 * random_rec_matrix(k, 4, rng).values)
        y = RecMatrix(v, list_size=4)
        p0 = rng.random(k) + 0.01
        p0 /= p0.sum()
        m = RequestModel(p0, 0.8, 4)
        held = vars(y)["nonzeros"]
        pi = np.asarray(stationary(y, m))
        assert y.nonzeros is held
        assert pi.tobytes() == np.asarray(stationary(v, m)).tobytes()
        assert pi.tobytes() == np.asarray(stationary(y, m)).tobytes()

    @pytest.mark.parametrize("ratio", [0.0, np.inf])
    def test_caller_y_unchanged(self, ratio, monkeypatch):
        monkeypatch.setattr(markov, "_FIXED_POINT_RATIO", ratio)
        rng = np.random.default_rng(13)
        k = 40
        y = np.array(random_rec_matrix(k, 3, rng))
        y_before = y.copy()
        p0 = rng.random(k) + 0.01
        p0 /= p0.sum()
        stationary(y, RequestModel(p0, 0.8, 3))
        assert_array_equal(y, y_before)

    @pytest.mark.parametrize("k,dense,a,lu_calls", [
        (400, True, 0.8, 1),
        (757, False, 0.99, 1),
        (757, False, 0.8, 0),
    ])
    def test_path_choice(self, k, dense, a, lu_calls, monkeypatch):
        calls = []
        real = markov.stationary_direct
        monkeypatch.setattr(markov, "stationary_direct",
                            lambda y, m: calls.append(1) or real(y, m))
        rng = np.random.default_rng(14)
        y = (1.0 - np.eye(k)) / (k - 1) if dense else random_rec_matrix(k, 4, rng)
        p0 = rng.random(k) + 0.01
        p0 /= p0.sum()
        m = RequestModel(p0, a, 4)
        pi = np.asarray(stationary(y, m))
        assert len(calls) == lu_calls
        assert np.abs(pi - np.asarray(real(y, m))).max() <= 1e-13

    def test_cap_ends_a_roundoff_stall(self, caplog, fixed_point_only):
        # A fast-mixing 3-state chain at a = 0.999: the exact error is
        # below 1e-50 after 1000 steps, yet roundoff leaves the iteration
        # alternating between two vectors 7.8e-16 apart in l1, far above
        # the (1-a)/a * 1e-14 = 1e-17 the a-posteriori bound needs. Only
        # the a-priori cap can stop it.
        y = RecMatrix(np.array([
            [0.0, 0.7213932625264456, 0.2786067374735543],
            [0.29067051747137657, 0.0, 0.7093294825286235],
            [0.047949326173274194, 0.9520506738267258, 0.0],
        ]), list_size=1)
        a = 0.999
        m = RequestModel([0.6116858647705994, 0.26525008932065475, 0.12306404590874587], a, 1)
        pi, (path, steps, bound) = _solve_logged(caplog, y, m)
        assert path == "fixed point"
        assert 2.0 * a**steps <= 1e-14 < 2.0 * a ** (steps - 1)
        assert bound == pytest.approx(2.0 * a**steps)
        assert np.abs(pi - np.asarray(stationary_direct(y, m))).sum() <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            stationary(SWAP, RequestModel([0.2, 0.3, 0.5], 0.5, 1))

    def test_logs_one_debug_line_per_solve(self, caplog):
        rng = np.random.default_rng(15)
        p0 = rng.random(757) + 0.01
        p0 /= p0.sum()
        sparse = random_rec_matrix(757, 4, rng)
        _, (path, steps, bound) = _solve_logged(caplog, sparse, RequestModel(p0, 0.8, 4))
        assert path == "fixed point"
        assert 0 < steps <= math.ceil(math.log(0.5e-14) / math.log(0.8))
        assert bound <= 1e-14
        _, (path, steps, bound) = _solve_logged(caplog, SWAP, RequestModel([0.5, 0.5], 0.8, 1))
        assert (path, steps) == ("lu", 0)
        assert bound <= 1e-14
        _, (path, steps, bound) = _solve_logged(caplog, SWAP, RequestModel([0.5, 0.5], 0.0, 1))
        assert (path, steps, bound) == ("popularity", 0, 0.0)

    def test_silent_at_default_level(self, capsys, caplog):
        rng = np.random.default_rng(16)
        p0 = rng.random(757) + 0.01
        p0 /= p0.sum()
        stationary(random_rec_matrix(757, 4, rng), RequestModel(p0, 0.8, 4))
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        assert not [r for r in caplog.records if r.name == "cacherec"]


def model_with_zero_popularity(k, rng, a=0.8, n=3):
    """Random popularity with a few zero entries, and its request model."""
    p0 = rng.random(k)
    p0[[0, 3, k - 1]] = 0.0
    p0 /= p0.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return RequestModel(p0, a, n)


class TestChain:
    @pytest.mark.parametrize("wrapped", [True, False])
    def test_products_match_dense_transition_matrix(self, wrapped):
        rng = np.random.default_rng(21)
        k = 50
        y = random_rec_matrix(k, 3, rng)
        m = model_with_zero_popularity(k, rng)
        p = transition_ref(np.asarray(y), m.popularity.values, m.follow_prob)
        p_vec, pt_vec = markov._chain(y if wrapped else np.array(y), m)
        for _ in range(5):
            v = rng.random(k)
            assert np.abs(p_vec(v) - p @ v).max() <= 1e-15
            assert np.abs(pt_vec(v) - p.T @ v).max() <= 1e-15


class TestVerified:
    """The normalization and check that both stationary solvers end in."""

    def setup_method(self):
        rng = np.random.default_rng(22)
        self.y = random_rec_matrix(30, 3, rng)
        self.m = model_with_zero_popularity(30, rng)

    @pytest.mark.parametrize("scale,message", [
        (0.0, r"^stationary test produced an invalid distribution \(sum=0\.0\)$"),
        (np.nan, r"^stationary test produced an invalid distribution \(sum=nan\)$"),
    ], ids=["zero", "nan"])
    def test_rejects_a_vector_without_mass(self, scale, message):
        _, pt_vec = markov._chain(self.y, self.m)
        with pytest.raises(np.linalg.LinAlgError, match=message):
            markov._verified(scale * np.ones(30), pt_vec, "test")

    @pytest.mark.parametrize("solution,message", [
        (lambda system, b: np.zeros_like(b),
         r"^stationary LU solve \(a=0\.8\) produced an invalid distribution \(sum=0\.0\)$"),
        (lambda system, b: b, r"exceeds 1e-10 after the LU solve \(a=0\.8\)$"),
    ], ids=["zero", "non-stationary"])
    def test_lu_result_is_checked(self, solution, message, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", solution)
        with pytest.raises(np.linalg.LinAlgError, match=message):
            stationary_direct(self.y, self.m)

    def test_zero_fixed_point_result_is_rejected(self, monkeypatch, fixed_point_only):
        monkeypatch.setattr(markov, "_chain", lambda y, m: (None, np.zeros_like))
        with pytest.raises(np.linalg.LinAlgError, match=r"^stationary fixed point \(2 steps\) "
                           r"produced an invalid distribution \(sum=0\.0\)$"):
            stationary(self.y, self.m)

    def test_unconverged_fixed_point_result_is_rejected(self, monkeypatch, fixed_point_only):
        # a tolerance of 1 stops the iteration long before it is stationary
        monkeypatch.setattr(markov, "_FIXED_POINT_TOL", 1.0)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"exceeds 1e-10 after the fixed point \(\d+ steps\)$"):
            stationary(self.y, self.m)


class TestExpectedCost:
    def test_all_ones(self):
        assert expected_cost([0.2, 0.3, 0.5], np.ones(3)) == pytest.approx(1.0)

    def test_all_zeros(self):
        assert expected_cost([0.2, 0.3, 0.5], np.zeros(3)) == 0.0

    def test_dot_product(self):
        assert expected_cost([0.2, 0.3, 0.5], [1, 0, 1]) == pytest.approx(0.7)

    def test_monotone_in_cost(self):
        rng = np.random.default_rng(6)
        pi = rng.random(8)
        pi /= pi.sum()
        x = rng.random(8)
        base = expected_cost(pi, x)
        for i in range(8):
            bumped = x.copy()
            bumped[i] += 0.3
            assert expected_cost(pi, bumped) >= base


class TestCacheHitRatio:
    def test_everything_cached(self):
        m = RequestModel([0.5, 0.5], 0.8, 1)
        assert cache_hit_ratio(SWAP, m, {0, 1}) == pytest.approx(1.0)

    def test_nothing_cached(self):
        m = RequestModel([0.5, 0.5], 0.8, 1)
        assert cache_hit_ratio(SWAP, m, set()) == pytest.approx(0.0)

    def test_a_zero_reads_popularity_mass(self):
        m = RequestModel([0.4, 0.35, 0.25], 0.0, 1)
        y = random_rec_matrix(3, 1, np.random.default_rng(8))
        assert cache_hit_ratio(y, m, {0}) == pytest.approx(0.4)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            k = int(rng.integers(3, 10))
            y = random_rec_matrix(k, 1, rng)
            p0 = rng.random(k) + 0.01
            p0 /= p0.sum()
            m = RequestModel(p0, float(rng.random() * 0.95), 1)
            c = int(rng.integers(0, k + 1))
            cached = set(rng.choice(k, size=c, replace=False).tolist())
            assert 0.0 <= cache_hit_ratio(y, m, cached) <= 1.0

    def test_matches_lu_cost_where_the_fixed_point_runs(self, monkeypatch):
        rng = np.random.default_rng(17)
        k = 757
        y = random_rec_matrix(k, 4, rng)
        p0 = rng.random(k) + 0.01
        p0 /= p0.sum()
        m = RequestModel(p0, 0.8, 4)
        cached = set(rng.choice(k, size=38, replace=False).tolist())
        x = np.ones(k)
        x[sorted(cached)] = 0.0
        lu_calls = []
        monkeypatch.setattr(markov, "stationary_direct",
                            lambda y, m: lu_calls.append(1) or stationary_direct(y, m))
        chr_ = cache_hit_ratio(y, m, cached)
        assert lu_calls == []
        assert abs(chr_ - (1.0 - expected_cost(stationary_direct(y, m), x))) <= 1e-12

    def test_out_of_range_ids_rejected(self):
        m = RequestModel([0.5, 0.5], 0.8, 1)
        with pytest.raises(ValueError, match="catalog"):
            cache_hit_ratio(SWAP, m, {5})


@pytest.mark.parametrize("call", [
    lambda: expected_cost([0.5, 0.5], np.ones(3)),
    lambda: quality_of(SWAP, SimilarityMatrix(np.zeros((3, 3)))),
], ids=["expected_cost", "quality_of"])
def test_dimension_mismatch_rejected(call):
    with pytest.raises(ValueError, match="dimension mismatch"):
        call()


class TestQualityOf:
    def test_fully_similar_support(self):
        u = SimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(quality_of(SWAP, u), [1.0, 1.0])

    def test_zero_similarity_support(self):
        u = SimilarityMatrix(np.zeros((2, 2)))
        assert_array_equal(quality_of(SWAP, u), [0.0, 0.0])

    def test_row_dot_product(self):
        y = RecMatrix(np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]),
                      list_size=2)
        u = SimilarityMatrix(np.array([[0.0, 1.0, 0.4],
                                       [1.0, 0.0, 0.4],
                                       [1.0, 0.4, 0.0]]))
        assert quality_of(y, u)[0] == pytest.approx(0.7)
