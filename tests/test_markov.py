"""Transition construction, stationary solves, and chain metrics."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from cacherec import (
    RecMatrix,
    RequestModel,
    SimilarityMatrix,
    build_transition,
    cache_hit_ratio,
    expected_cost,
    quality_of,
    stationary_direct,
    stationary_power,
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


class TestBuildTransition:
    def test_a_zero_collapses_to_popularity(self):
        m = RequestModel([0.3, 0.7], 0.0, 1)
        p = build_transition(SWAP, m)
        assert_allclose(p, [[0.3, 0.7], [0.3, 0.7]], atol=1e-15)

    def test_a_near_one_approaches_y(self):
        m = RequestModel([0.5, 0.5], 0.999, 1)
        p = build_transition(SWAP, m)
        assert_allclose(p, np.asarray(SWAP), atol=2e-3)

    def test_direct_evaluation(self):
        m = RequestModel([0.5, 0.5], 0.8, 1)
        p = build_transition(SWAP, m)
        assert_allclose(p, [[0.1, 0.9], [0.9, 0.1]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for k, n in [(5, 1), (8, 3), (20, 4)]:
            y = random_rec_matrix(k, n, rng)
            p0 = rng.random(k)
            m = RequestModel(p0 / p0.sum(), 0.7, n)
            p = build_transition(y, m)
            assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12

    def test_dimension_mismatch(self):
        m = RequestModel([0.2, 0.3, 0.5], 0.5, 1)
        with pytest.raises(ValueError, match="mismatch"):
            build_transition(SWAP, m)

    def test_matches_reference_assembly(self):
        rng = np.random.default_rng(1)
        y = random_rec_matrix(6, 2, rng)
        p0 = rng.random(6)
        p0 /= p0.sum()
        m = RequestModel(p0, 0.6, 2)
        assert_allclose(build_transition(y, m),
                        transition_ref(np.asarray(y), p0, 0.6), atol=1e-14)


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
            ref = stationary_ref(transition_ref(np.asarray(y), p0, 0.85))
            assert np.abs(pi - ref).max() <= 1e-12

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


class TestStationaryPower:
    def test_identity_fixed_point(self):
        pi = stationary_power(np.eye(2))
        assert_allclose(np.asarray(pi), [0.5, 0.5], atol=1e-15)

    def test_rank_one_chain_converges_to_row(self):
        r = np.array([0.2, 0.3, 0.5])
        p = np.tile(r, (3, 1))
        pi = stationary_power(p)
        assert_allclose(np.asarray(pi), r, atol=1e-14)

    def test_non_convergence_reports_residual(self):
        # period-2 chain {0} <-> {1,2}: the uniform start oscillates
        # between [2/3,1/6,1/6] and [1/3,1/3,1/3] forever
        p = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(RuntimeError, match="final l1 change"):
            stationary_power(p, tol=1e-12, max_iter=50)

    def test_cross_oracle_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k = int(rng.integers(3, 15))
            y = random_rec_matrix(k, 1, rng)
            p0 = rng.random(k) + 0.05
            p0 /= p0.sum()
            a = float(rng.random() * 0.9)
            m = RequestModel(p0, a, 1)
            p = build_transition(y, m)
            tol = 1e-11
            direct = np.asarray(stationary_direct(y, m))
            power = np.asarray(stationary_power(p, tol=tol, max_iter=100000))
            assert np.abs(direct - power).max() <= 10 * tol
            assert np.abs(direct - power_ref(p)).max() <= 1e-10


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

    def test_out_of_range_ids_rejected(self):
        m = RequestModel([0.5, 0.5], 0.8, 1)
        with pytest.raises(ValueError, match="catalog"):
            cache_hit_ratio(SWAP, m, {5})


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
