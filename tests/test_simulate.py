"""Tests for the Monte-Carlo session simulator and Madow list sampling."""

import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from cacherec import (
    CachePlacement,
    RecMatrix,
    RequestModel,
    SessionConfig,
    SimilarityMatrix,
    cache_hit_ratio,
    sample_rec_list,
    simulate,
    stationary_direct,
    top_c_cache,
    zipf_popularity,
)


# the largest follow probability below 1: a uniform from the generator
# falls below it unless it is exactly 1 - 2**-53, so every seeded stream
# used here follows on every request after a session's first
ALWAYS = float(np.nextafter(1.0, 0.0))


def swap_instance(a=0.6):
    y = RecMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    u = SimilarityMatrix(np.array([[0.0, 0.7], [0.3, 0.0]]))
    m = RequestModel(np.array([0.6, 0.4]), a, 1)
    return y, u, m


class TestTopCCache:
    def test_empty(self):
        c = top_c_cache(zipf_popularity(4, 0.7), 0)
        assert c.cached == frozenset()

    def test_full(self):
        c = top_c_cache(zipf_popularity(4, 0.7), 4)
        assert c.cached == frozenset({0, 1, 2, 3})

    def test_picks_most_popular(self):
        c = top_c_cache(np.array([0.5, 0.2, 0.3]), 2)
        assert c.cached == frozenset({0, 2})

    def test_ties_break_to_lowest_index(self):
        c = top_c_cache(np.full(4, 0.25), 2)
        assert c.cached == frozenset({0, 1})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            top_c_cache(np.full(4, 0.25), 5)


class TestSampleRecList:
    def test_saturated_row_is_deterministic(self):
        rng = np.random.default_rng(0)
        y = np.array([0.0, 0.5, 0.0, 0.5])
        for _ in range(50):
            picks = sample_rec_list(y, 2, rng)
            npt.assert_array_equal(np.sort(picks), [1, 3])

    def test_zero_mass_never_sampled(self):
        rng = np.random.default_rng(1)
        y = np.array([0.0, 0.4, 0.35, 0.25])
        for _ in range(400):
            assert 0 not in sample_rec_list(y, 2, rng)

    def test_threshold_rounded_onto_table_end_stays_on_mass(self):
        # start u = 1 - 2**-53 makes the last threshold u + 1 round to 2,
        # the table's end; the pick must be the last item with mass
        class TopStart:
            def random(self):
                return ALWAYS

        picks = sample_rec_list(np.array([0.5, 0.5, 0.0]), 2, TopStart())
        npt.assert_array_equal(picks, [0, 1])

    def test_returns_n_distinct(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(4, 12))
            n = int(rng.integers(1, 4))
            y = rng.uniform(0.1, 1.0, k)
            y[int(rng.integers(k))] = 0.0
            y = np.minimum(y / y.sum(), 1.0 / n)
            y += (1.0 - y.sum()) * (y > 0) / (y > 0).sum()
            if y.max() > 1.0 / n + 1e-12:
                continue
            picks = sample_rec_list(y, n, rng)
            assert picks.size == n
            assert np.unique(picks).size == n

    def test_marginals_match_inclusion_probabilities(self):
        rng = np.random.default_rng(3)
        y = np.array([0.4, 0.35, 0.25, 0.0]) / 1.0
        n = 2
        y = y / y.sum()
        draws = 200_000
        counts = np.zeros(4)
        for _ in range(draws):
            counts[sample_rec_list(y, n, rng)] += 1
        freq = counts / draws
        z = n * y
        sigma = np.sqrt(np.maximum(z * (1 - z), 1e-12) / draws)
        assert np.all(np.abs(freq - z) <= 3.0 * sigma + 1e-9)

    def test_seeded_draws_are_pinned(self):
        # sha256 of 2000 seeded draws; a faster sampler must draw the same lists
        rng = np.random.default_rng(77)
        rows = []
        for k, n in ((12, 2), (12, 3), (12, 4), (7, 1), (30, 4)):
            w = rng.uniform(0.5, 1.0, k)
            w[int(rng.integers(k))] = 0.0
            rows.append((w / w.sum(), n))
        rows.append((np.array([0.0, 0.5, 0.0, 0.5]), 2))
        rng = np.random.default_rng(2000)
        digest = hashlib.sha256()
        for i in range(2000):
            y, n = rows[i % len(rows)]
            digest.update(sample_rec_list(y, n, rng).astype(np.int64).tobytes())
        assert digest.hexdigest() == (
            "e9915e2cf1bb5db99a94335a486a05cbd87fad8983fc496fff5b4f19e39f2c6c"
        )

    @pytest.mark.parametrize("y,n", [
        (np.array([0.125, 0.125, 0.125, 0.125, 0.0, 0.0, 0.125, 0.125, 0.125, 0.125]), 4),
        (np.array([0.0, 0.5, 0.0, 0.5]), 2),
        (np.array([0.0, 0.0, 1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0]), 3),
        (np.array([0.0, 0.2, 0.2, 0.2, 0.2, 0.2, 0.0]), 1),
        (np.array([0.5, 0.5, 0.0]), 2),
    ])
    def test_batch_equals_single_calls(self, y, n):
        single, batch = np.random.default_rng(31), np.random.default_rng(31)
        lists = np.array([sample_rec_list(y, n, single) for _ in range(3000)])
        got = sample_rec_list(y, n, batch, size=3000)
        assert got.shape == (3000, n) and got.dtype == lists.dtype
        assert got.tobytes() == lists.tobytes()
        assert batch.random() == single.random()

    def test_batch_end_of_table_rule_per_draw(self):
        class Starts:
            def random(self, size):
                return np.resize([ALWAYS, 0.25], size)

        got = sample_rec_list(np.array([0.5, 0.5, 0.0]), 2, Starts(), size=4)
        npt.assert_array_equal(got, [[0, 1]] * 4)

    def test_infeasible_marginals_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="infeasible inclusion"):
            sample_rec_list(np.array([0.9, 0.1, 0.0]), 2, rng)
        with pytest.raises(ValueError, match="infeasible inclusion"):
            sample_rec_list(np.array([0.3, 0.3, 0.3]), 2, rng)
        with pytest.raises(ValueError, match="infeasible inclusion"):
            sample_rec_list(np.array([0.3, 0.3, 0.3]), 2, rng, size=10)


class TestSimulate:
    def test_no_follow_matches_popularity_mass(self):
        y, u, m0 = swap_instance()
        m = RequestModel(m0.popularity, 0.0, 1)
        cache = CachePlacement(frozenset({0}), 1)
        cfg = SessionConfig(total_requests=40_000, session_param=200, seed=5)
        metrics = simulate(y, m, cache, u, cfg)
        p_hit = float(np.asarray(m.popularity)[0])
        sigma = np.sqrt(p_hit * (1 - p_hit) / metrics.requests)
        assert abs(metrics.empirical_chr - p_hit) <= 3.0 * sigma

    def test_everything_cached_hits_always(self):
        y, u, m = swap_instance()
        cache = CachePlacement(frozenset({0, 1}), 2)
        cfg = SessionConfig(total_requests=2_000, seed=6)
        metrics = simulate(y, m, cache, u, cfg)
        assert metrics.empirical_chr == 1.0
        assert metrics.hits == metrics.requests

    def test_matches_analytic_hit_ratio(self):
        y, u, m = swap_instance(a=0.8)
        cache = CachePlacement(frozenset({0}), 1)
        cfg = SessionConfig(total_requests=40_000, session_param=200, seed=7)
        metrics = simulate(y, m, cache, u, cfg)
        analytic = cache_hit_ratio(y, m, cache.cached)
        sigma = np.sqrt(analytic * (1 - analytic) / metrics.requests)
        assert abs(metrics.empirical_chr - analytic) <= 3.0 * sigma

    def test_deterministic_given_seed(self):
        y, u, m = swap_instance()
        cache = CachePlacement(frozenset({0}), 1)
        cfg = SessionConfig(total_requests=5_000, seed=8)
        m1 = simulate(y, m, cache, u, cfg)
        m2 = simulate(y, m, cache, u, cfg)
        assert m1.hits == m2.hits
        npt.assert_array_equal(m1.per_content_counts, m2.per_content_counts)
        assert m1.mean_quality_served == m2.mean_quality_served

    def test_seed_changes_stream(self):
        y, u, m = swap_instance()
        cache = CachePlacement(frozenset({0}), 1)
        a = simulate(y, m, cache, u, SessionConfig(total_requests=5_000, seed=9))
        b = simulate(y, m, cache, u, SessionConfig(total_requests=5_000, seed=10))
        assert not np.array_equal(a.per_content_counts, b.per_content_counts)

    def test_counts_sum_to_requests(self):
        y, u, m = swap_instance()
        cache = CachePlacement(frozenset({0}), 1)
        metrics = simulate(y, m, cache, u, SessionConfig(total_requests=3_333, seed=11))
        assert int(metrics.per_content_counts.sum()) == 3_333
        assert metrics.requests == 3_333

    def test_hits_and_follows_agree_with_counts(self):
        y, u, m = swap_instance(a=0.98)
        cache = CachePlacement(frozenset({0}), 1)
        cfg = SessionConfig(total_requests=600, session_param=2, seed=14)
        metrics = simulate(y, m, cache, u, cfg)
        assert metrics.hits == metrics.per_content_counts[0]
        # a session's first request is never a follow: at most one of the
        # two requests in each of the 300 sessions follows a recommendation
        assert 0 < metrics.followed <= 300

    def test_quality_served_averages_similarity_of_follows(self):
        y, u, m = swap_instance(a=0.9)
        cache = CachePlacement(frozenset({0}), 1)
        metrics = simulate(y, m, cache, u, SessionConfig(total_requests=20_000, seed=12))
        # every followed transition scores u[0,1]=0.7 or u[1,0]=0.3
        assert 0.3 <= metrics.mean_quality_served <= 0.7
        assert metrics.followed > 0

    def test_geometric_sessions_accepted(self):
        y, u, m = swap_instance()
        cache = CachePlacement(frozenset({0}), 1)
        cfg = SessionConfig(total_requests=4_000, session_kind="geometric",
                            session_param=5, seed=13)
        metrics = simulate(y, m, cache, u, cfg)
        assert metrics.requests == 4_000

    def test_bad_session_config_rejected(self):
        with pytest.raises(ValueError, match="total_requests"):
            SessionConfig(total_requests=0)
        with pytest.raises(ValueError, match="session_kind"):
            SessionConfig(total_requests=10, session_kind="poisson")


def cycle_instance(k, a=ALWAYS, quality=0.75):
    """N=1 recommender that always shows i+1 mod k after i."""
    y = RecMatrix(np.roll(np.eye(k), 1, axis=1), 1)
    u = SimilarityMatrix(quality * np.asarray(y))
    m = RequestModel(zipf_popularity(k, 0.8), a, 1)
    return y, u, m


class TestLockstep:
    def test_cycle_visits_every_content_once_per_session(self):
        # row k-1 follows to column 0; its own last column has zero mass
        k = 9
        y, u, m = cycle_instance(k)
        cfg = SessionConfig(total_requests=50 * k, session_param=k, seed=20)
        metrics = simulate(y, m, CachePlacement(frozenset(), 0), u, cfg)
        npt.assert_array_equal(metrics.per_content_counts, np.full(k, 50))
        assert metrics.followed == 50 * (k - 1)
        assert metrics.mean_quality_served == 0.75

    def test_threshold_rounded_onto_row_end_stays_in_row(self, monkeypatch):
        # the largest uniform below 1 puts every follow threshold N*(i + v)
        # on row i's end after rounding; the follow must still be i+1
        class EdgeStream:
            def __init__(self, seed):
                self.calls = 0

            def random(self, size):
                # openers, then (v, follow coin) at every position
                self.calls += 1
                top = self.calls > 1 and self.calls % 2 == 0
                return np.full(size, ALWAYS if top else 0.0)

        monkeypatch.setattr(np.random, "default_rng", EdgeStream)
        k = 9
        y, u, m = cycle_instance(k, a=0.5)
        cfg = SessionConfig(total_requests=20 * k, session_param=k)
        metrics = simulate(y, m, CachePlacement(frozenset(), 0), u, cfg)
        npt.assert_array_equal(metrics.per_content_counts, np.full(k, 20))
        assert metrics.followed == 20 * (k - 1)

    def test_follow_law_is_row_of_y(self):
        # sessions of two requests: an opener from p0, then a follow from y
        k, n = 6, 2
        w = np.array([0.5, 0.3, 0.2])
        vals = np.zeros((k, k))
        for i in range(k):
            vals[i, [(i + 1) % k, (i + 2) % k, (i + 4) % k]] = w
        y = RecMatrix(vals, n)
        p0 = np.asarray(zipf_popularity(k, 0.9))
        m = RequestModel(p0, ALWAYS, n)
        u = SimilarityMatrix(np.asarray(vals) > 0)
        total = 200_000
        cfg = SessionConfig(total_requests=total, session_param=2, seed=21)
        metrics = simulate(y, m, CachePlacement(frozenset(), 0), u, cfg)
        freq = metrics.per_content_counts / total
        # per session, opener and follow land on j together with mass
        # p0_j + (p0 Y)_j, and never both (zero diagonal)
        mass = p0 + p0 @ vals
        sigma = np.sqrt(mass * (1.0 - mass) / (total / 2)) / 2
        assert np.all(np.abs(freq - mass / 2) <= 5.0 * sigma)

    @pytest.mark.parametrize("length,total", [(1, 10), (7, 7), (7, 100), (200, 4001)])
    def test_every_later_request_follows(self, length, total):
        y, u, m = cycle_instance(5)
        cfg = SessionConfig(total_requests=total, session_param=length, seed=22)
        metrics = simulate(y, m, CachePlacement(frozenset(), 0), u, cfg)
        assert metrics.followed == total - -(-total // length)

    @pytest.mark.parametrize("total", [1, 7, 4001])
    def test_geometric_sessions_cut_to_total(self, total):
        y, u, m = cycle_instance(5)
        cfg = SessionConfig(total_requests=total, session_kind="geometric",
                            session_param=5, seed=23)
        metrics = simulate(y, m, CachePlacement(frozenset(), 0), u, cfg)
        assert metrics.requests == total
        assert metrics.per_content_counts.shape == (5,)
        assert int(metrics.per_content_counts.sum()) == total
        assert metrics.followed <= total - 1

    def test_zero_mass_columns_never_followed_at_scale(self):
        # no row puts mass on the last column; u scores 1 only on
        # zero-mass entries, so any follow onto one lifts the mean quality
        k, n = 2000, 4
        w = np.array([0.24, 0.22, 0.2, 0.18, 0.16])
        vals = np.zeros((k, k))
        rows = np.arange(k)[:, None]
        vals[rows, (rows + 1 + 7 * np.arange(w.size)) % (k - 1)] = w
        y = RecMatrix(vals, n)
        sim = (vals == 0.0).astype(float)
        np.fill_diagonal(sim, 0.0)
        u = SimilarityMatrix(sim)
        m = RequestModel(zipf_popularity(k, 0.6), ALWAYS, n)
        cfg = SessionConfig(total_requests=1_001_000, session_param=1001, seed=24)
        metrics = simulate(y, m, CachePlacement(frozenset(), 0), u, cfg)
        assert metrics.followed == 1_000_000
        assert metrics.mean_quality_served == 0.0


class TestEmpiricalDistribution:
    def test_single_step_sessions_recover_popularity(self):
        y, u, _ = swap_instance()
        p0 = np.array([0.6, 0.4])
        m = RequestModel(p0, 0.9, 1)
        cache = CachePlacement(frozenset({0}), 1)
        cfg = SessionConfig(total_requests=40_000, session_param=1, seed=16)
        metrics = simulate(y, m, cache, u, cfg)
        emp = metrics.per_content_counts / metrics.requests
        assert np.abs(emp - p0).sum() <= 0.02

    def test_long_sessions_recover_stationary(self):
        y, u, m = swap_instance(a=0.8)
        cache = CachePlacement(frozenset({0}), 1)
        cfg = SessionConfig(total_requests=40_000, session_param=200, seed=17)
        metrics = simulate(y, m, cache, u, cfg)
        emp = metrics.per_content_counts / metrics.requests
        pi = np.asarray(stationary_direct(y, m))
        assert np.abs(emp - pi).sum() <= 0.02

    def test_near_deterministic_alternation(self):
        y, u, _ = swap_instance()
        m = RequestModel(np.array([0.9, 0.1]), 0.98, 1)
        cache = CachePlacement(frozenset({0}), 1)
        cfg = SessionConfig(total_requests=40_000, session_param=400, seed=18)
        metrics = simulate(y, m, cache, u, cfg)
        emp = metrics.per_content_counts / metrics.requests
        npt.assert_allclose(emp, [0.5, 0.5], atol=0.02)
