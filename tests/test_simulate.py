"""Tests for the Monte-Carlo session simulator and Madow list sampling."""

import hashlib
import importlib

import numpy as np
import numpy.testing as npt
import pytest

from cacherec import (
    CachePlacement,
    RecMatrix,
    RequestModel,
    SessionConfig,
    SimilarityMatrix,
    SimMetrics,
    cache_hit_ratio,
    sample_rec_list,
    simulate,
    stationary_direct,
    top_c_cache,
    zipf_popularity,
)
from cacherec.simulate import _GuideTable
from oracles import simulate_ref

# the module itself: the package re-exports its function `simulate` under
# the module's name
simulate_module = importlib.import_module("cacherec.simulate")

# the largest follow probability below 1: a uniform from the generator
# falls below it unless it is exactly 1 - 2**-53, so every seeded stream
# used here follows on every request after a session's first
ALWAYS = float(np.nextafter(1.0, 0.0))


class Stub:
    """A generator stand-in whose every uniform is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


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
        picks = sample_rec_list(np.array([0.5, 0.5, 0.0]), 2, Stub(ALWAYS))
        npt.assert_array_equal(picks, [0, 1])

    def test_threshold_past_last_positive_entry_stays_on_mass(self):
        # item 6's cumulative mass is 2.9999999999999996 and the pinned end
        # 3.0 is zero-mass item 7's; the last threshold u + 2 falls between
        y = np.array([0.07081176729193278, 0.24009752955077382, 0.10856145381584567,
                      0.04937852569287146, 0.16874357106542445, 0.23668751237404914,
                      0.12571964020910262, 0.0])
        picks = sample_rec_list(y, 3, Stub(0.9999999999999996))
        npt.assert_array_equal(picks, [2, 5, 6])

    def test_capped_entry_rescaled_past_one_is_repaired(self, monkeypatch):
        # the row sums 1e-7 short of 1, so rescaling lifts item 0's
        # inclusion mass past 1 and thresholds 0 and 1 both pick it
        repaired = []
        dedupe = simulate_module._dedupe
        monkeypatch.setattr(simulate_module, "_dedupe",
                            lambda picks, y: repaired.append(picks.tolist()) or dedupe(picks, y))
        picks = sample_rec_list([0.5, 0.25, 0.2499999, 0.0], 2, Stub(0.0))
        npt.assert_array_equal(picks, [0, 1])
        assert repaired == [[0, 0]]

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
        lists = sample_rec_list(y, n, rng, size=draws)
        freq = np.bincount(lists.ravel(), minlength=4) / draws
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

    @pytest.mark.parametrize("cached", [-1, 2])
    def test_cached_ids_outside_catalog_rejected(self, cached):
        y, u, m = swap_instance()
        cache = CachePlacement(frozenset({cached}), 1)
        with pytest.raises(ValueError, match="cached ids must index the catalog"):
            simulate(y, m, cache, u, SessionConfig(total_requests=100, seed=15))

    def test_entries_above_one_over_list_size_rejected(self):
        # a list-size-2 matrix: under list size 3, row 0's 0.5 would be an
        # inclusion mass of 1.5, which no list of 3 distinct items has
        y = RecMatrix(np.array([[0.0, 0.5, 0.3, 0.2],
                                [0.5, 0.0, 0.5, 0.0],
                                [0.5, 0.5, 0.0, 0.0],
                                [0.5, 0.0, 0.5, 0.0]]), 2)
        u = SimilarityMatrix(np.ones((4, 4)) - np.eye(4))
        cache = CachePlacement(frozenset({1}), 1)
        cfg = SessionConfig(total_requests=1_000, seed=16)
        p0 = np.full(4, 0.25)
        assert simulate(y, RequestModel(p0, 0.9, 2), cache, u, cfg).requests == 1_000
        with pytest.raises(ValueError, match="infeasible inclusion marginals"):
            simulate(y, RequestModel(p0, 0.9, 3), cache, u, cfg)

    def test_bad_session_config_rejected(self):
        with pytest.raises(ValueError, match="total_requests"):
            SessionConfig(total_requests=0)
        with pytest.raises(ValueError, match="session_kind"):
            SessionConfig(total_requests=10, session_kind="poisson")
        with pytest.raises(ValueError, match="total_requests"):
            SessionConfig(total_requests=2000.5)
        with pytest.raises(ValueError, match="fixed session_param"):
            SessionConfig(total_requests=10, session_param=50.7)
        for bad in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="session_param must be finite and >= 1"):
                SessionConfig(total_requests=10, session_kind="geometric", session_param=bad)
        # a geometric session_param is a mean, and a whole float is a count
        cfg = SessionConfig(total_requests=10.0, session_kind="geometric", session_param=50.7)
        assert cfg.total_requests == 10 and isinstance(cfg.total_requests, int)

    def test_popularity_draw_past_last_positive_item_stays_on_mass(self, monkeypatch):
        # p0 sums to 0.9999999999999999 = 1 - 2**-53, and the pin 1.0 is
        # zero-popularity item 5's; every opener's uniform is that sum
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Stub(ALWAYS))
        p0 = np.array([0.19175634591705681, 0.05771549572758195, 0.059000743722290326,
                       0.40975952244159397, 0.2817678921914769, 0.0])
        with pytest.warns(UserWarning, match="exact zeros"):
            m = RequestModel(p0, 0.0, 1)
        y, u, _ = cycle_instance(p0.size)
        metrics = simulate(y, m, CachePlacement(frozenset(), 0), u, SessionConfig(10, "fixed", 1))
        npt.assert_array_equal(metrics.per_content_counts, [0, 0, 0, 0, 10, 0])
        ref = simulate_ref(y, p0, 0.0, 1, (), u, 10, "fixed", 1, 0)
        npt.assert_array_equal(ref["per_content_counts"], metrics.per_content_counts)


def simulate_two_contents_under_three():
    y, u, _ = swap_instance()
    m = RequestModel(np.full(3, 1 / 3), 0.5, 1)
    return simulate(y, m, CachePlacement(frozenset(), 0), u, SessionConfig(10))


@pytest.mark.parametrize("make,match", [
    (lambda: CachePlacement(frozenset({0, 1}), 1), "placement holds 2 contents, capacity is 1"),
    (lambda: SimMetrics(3, 0, 0.0, 0.0, np.array([1, 1])), "counts must sum to the request count"),
    (simulate_two_contents_under_three, "matrix sizes disagree with the model"),
], ids=["placement", "metrics", "simulate"])
def test_malformed_input_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


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
            """One flat stream served by draw index, however calls split it:
            the openers, then at each position a block of v (all ALWAYS)
            and a block of follow coins (all 0.0)."""

            def __init__(self, seed):
                self.drawn = 0

            def random(self, size):
                idx = np.arange(self.drawn, self.drawn + size)
                self.drawn += size
                after = idx - sessions
                # every position runs all `sessions` sessions here
                top = (after >= 0) & (after // sessions % 2 == 0)
                return np.where(top, ALWAYS, 0.0)

        monkeypatch.setattr(np.random, "default_rng", EdgeStream)
        k = 9
        sessions = 20
        y, u, m = cycle_instance(k, a=0.5)
        cfg = SessionConfig(total_requests=sessions * k, session_param=k)
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


def random_instance(k, n, a, fractional, seed):
    """Each row spreads its mass over 5n+1 or more other contents, one of
    them with mass 1e-9; the similarity is 0/1 or fractional."""
    rng = np.random.default_rng(seed)
    vals = np.zeros((k, k))
    for i in range(k):
        others = np.delete(np.arange(k), i)
        support = rng.choice(others, size=int(rng.integers(5 * n + 1, k)), replace=False)
        w = rng.uniform(0.2, 1.0, support.size)
        w[0] = 1e-9
        vals[i, support] = w / w.sum()
    sim = rng.random((k, k)) if fractional else (rng.random((k, k)) < 0.5).astype(float)
    np.fill_diagonal(sim, 0.0)
    p0 = np.asarray(zipf_popularity(k, 0.8))[rng.permutation(k)]
    return RecMatrix(vals, n), SimilarityMatrix(sim), RequestModel(p0 / p0.sum(), a, n)


class TestGuideTable:
    def assert_matches_searchsorted(self, cum, keys):
        got = _GuideTable(cum).search(keys)
        npt.assert_array_equal(got, np.searchsorted(cum, keys, side="right"))

    @pytest.mark.parametrize("masses", [
        np.array([0.0, 0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0]),
        np.array([1.0]),
        np.array([0.0, 1.0, 0.0]),
        np.full(7, 1.0 / 7.0),
        np.arange(1, 3001, dtype=float) ** -1.2,
        np.r_[1e6, np.full(2999, 1e-9)],
        np.r_[np.full(2999, 1e-9), 1e6],
    ])
    def test_matches_searchsorted_on_adversarial_tables(self, masses):
        cum = np.cumsum(masses / masses.sum())
        cum[-1] = 1.0
        rng = np.random.default_rng(40)
        keys = np.concatenate([
            cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
            [0.0, np.nextafter(1.0, 0.0), 1.0, 5e-324],
            rng.random(5000), rng.random(500) * 1e-6,
        ])
        self.assert_matches_searchsorted(cum, keys)

    def test_matches_searchsorted_on_stacked_rows(self):
        # row i's table at offset 4*i, keys 4*(i + v) with v up to 1 - 2**-53
        rng = np.random.default_rng(41)
        rows = [np.cumsum(rng.dirichlet(np.full(int(rng.integers(1, 9)), 0.3))) * 4.0
                for _ in range(200)]
        for i, row in enumerate(rows):
            row[-1] = 4.0
            row += 4.0 * i
        cum = np.concatenate(rows)
        src = rng.integers(0, 200, 20_000)
        v = np.r_[rng.random(19_998), 0.0, ALWAYS]
        self.assert_matches_searchsorted(cum, 4 * (src + v))
        self.assert_matches_searchsorted(cum, np.r_[cum, np.nextafter(cum, 0.0), 801.0])

    def test_one_heavy_item_bisects_in_twelve_passes(self):
        # 2999 light items share a few buckets; bisection still bounds the work
        cum = np.cumsum(np.r_[0.999, np.full(2999, 0.001 / 2999)])
        cum[-1] = 1.0
        table = _GuideTable(cum)
        assert 1 <= table.passes <= 12
        keys = np.r_[np.linspace(0.0, ALWAYS, 10_001), cum]
        npt.assert_array_equal(table.search(keys), np.searchsorted(cum, keys, side="right"))


class TestMatchesPositionLoop:
    """`simulate` equals the position-by-position loop in `oracles`, field for field."""

    @pytest.mark.parametrize("kind,param,total", [
        ("fixed", 1, 97), ("fixed", 7, 1000), ("fixed", 200, 4001),
        ("geometric", 1, 300), ("geometric", 4, 5003), ("geometric", 37.5, 2999),
    ])
    @pytest.mark.parametrize("a", [0.0, 0.5, 0.8, ALWAYS])
    @pytest.mark.parametrize("fractional", [False, True])
    def test_fields_equal(self, kind, param, total, a, fractional):
        seed = 1000 + total
        k, n = 31, 1 + total % 4
        y, u, m = random_instance(k, n, a, fractional, seed)
        cache = top_c_cache(m.popularity, 5)
        cfg = SessionConfig(total_requests=total, session_kind=kind, session_param=param,
                            seed=seed)
        got = simulate(y, m, cache, u, cfg)
        ref = simulate_ref(y, m.popularity, a, n, cache.cached, u, total, kind, param, seed)
        npt.assert_array_equal(got.per_content_counts, ref["per_content_counts"])
        for name in ("requests", "hits", "empirical_chr", "followed", "mean_quality_served"):
            assert getattr(got, name) == ref[name], name


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
