"""Tests for the similarity/popularity input pipeline."""

import hashlib
import logging
import os
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from cacherec import (
    RatingsTable,
    SimilarityMatrix,
    anchored_similarity,
    binarize,
    cf_fill,
    cosine_similarity,
    load_lastfm_triplets,
    load_movielens_csv,
    prepare_lastfm,
    prepare_movielens,
    symmetrize_max,
    zipf_popularity,
)
from cacherec.datasets import _read_rating_rows, prune_with_stats
from cacherec.experiments import ConfigError, ScenarioConfig, _similarity_for
from oracles import cf_fill_ref

MOVIELENS_CSV = os.environ.get("MOVIELENS_CSV", "data/ml-latest-small/ratings.csv")


def table(rows, scale=(0.5, 5.0)):
    users, items, ratings = zip(*rows)
    return RatingsTable(
        np.asarray(users), np.asarray(items), np.asarray(ratings, dtype=float), scale
    )


def tie_heavy_rows(seed):
    """Seeded (user, item, rating) rows whose similarities tie often.

    Ratings take three levels on the half-point grid and every item has a
    power-of-two number of raters, so each mean, centred rating and dot
    product is exact in binary floating point: any correct implementation
    computes the same similarities bit for bit, ties included. About a
    third of the items copy an earlier item's ratings and tie with it
    exactly, and sparse users rate fewer items than k.
    """
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(4, 25))
    n_items = int(rng.integers(3, 17))
    levels = rng.choice(np.arange(1, 11) * 0.5, size=3, replace=False)
    user_ids = rng.choice(1000, size=n_users, replace=False)
    item_ids = rng.choice(1000, size=n_items, replace=False)
    powers = [c for c in (1, 2, 4, 8, 16) if c <= n_users]
    columns = []
    for _ in range(n_items):
        if columns and rng.random() < 0.3:
            columns.append(columns[rng.integers(len(columns))])
            continue
        raters = rng.choice(n_users, size=rng.choice(powers), replace=False)
        columns.append([(int(u), float(rng.choice(levels))) for u in raters])
    return [(int(user_ids[u]), int(item_ids[i]), value)
            for i, column in enumerate(columns) for u, value in column]


def write_ratings(path, text):
    """Write `text` to `path` as UTF-8 with its line endings kept."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def read_outcome(read, path):
    """The columns' values and dtypes that `read` returns, or its error text."""
    try:
        t = read(path)
    except ValueError as exc:
        return str(exc)
    return [(a.tolist(), a.dtype) for a in (t.user_ids, t.item_ids, t.ratings)]


def row_reader_ran(records):
    return [r for r in records if "row reader" in r.getMessage()]


# k runs over 1..11 across the seeds
TIE_HEAVY = [(seed, 1 + seed % 11) for seed in range(44)]
# sha256 over the concatenated cf_fill outputs on TIE_HEAVY, recorded with
# the per-user lexsort that the rank-table fill replaced (numpy 2.4)
TIE_HEAVY_SHA256 = "248ae70c61d55fa4654f74ab9d226472f52d7028d3e1c75037a50bf073ef7d19"


def comments_only(tmp_path):
    path = tmp_path / "sim.tsv"
    path.write_text("# idA\tidB\tscore\n\n# no pairs\n")
    return load_lastfm_triplets(path)


@pytest.mark.parametrize("make,match", [
    (lambda tmp_path: RatingsTable(np.array([1, 2]), np.array([10]), np.array([3.0, 4.0])),
     "user, item and rating columns must align"),
    (comments_only, "similarity file is empty"),
], ids=["ratings-columns", "triplets-comments-only"])
def test_malformed_input_rejected(tmp_path, make, match):
    with pytest.raises(ValueError, match=match):
        make(tmp_path)


class TestRatingsTable:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            table([(1, 10, 3.0), (1, 10, 4.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            RatingsTable(np.array([]), np.array([]), np.array([]))

    def test_out_of_scale_rejected(self):
        with pytest.raises(ValueError, match="ratings"):
            table([(1, 10, 6.0)])

    def test_nan_rating_rejected(self):
        with pytest.raises(ValueError, match="ratings"):
            table([(1, 10, 3.0), (1, 20, np.nan)])

    def test_users_items_sorted_unique(self):
        t = table([(2, 20, 3.0), (1, 20, 2.0), (1, 10, 4.0)])
        npt.assert_array_equal(t.users, [1, 2])
        npt.assert_array_equal(t.items, [10, 20])

    BIG = np.iinfo(np.int64).max
    SMALL = np.iinfo(np.int64).min

    @pytest.mark.parametrize("rows", [
        [("u1", "a", 3.0), ("u2", "a", 4.0), ("u1", "b", 2.0)],
        [(-5, -1, 3.0), (-5, 1, 4.0), (5, -1, 2.0)],
        [(BIG, BIG, 3.0), (BIG, SMALL, 4.0), (SMALL, BIG, 2.0), (SMALL, SMALL, 1.0),
         (BIG - 1, BIG, 5.0)],
    ], ids=["strings", "negative", "int64-limits"])
    def test_distinct_pairs_accepted_and_duplicate_rejected(self, rows):
        t = table(rows)
        assert t.ratings.size == len(rows)
        with pytest.raises(ValueError, match="duplicate"):
            table(rows + [rows[-1][:2] + (1.5,)])


class TestCfFill:
    def test_complete_table_unchanged(self):
        t = table([(u, it, float(u + it)) for u in (1, 2) for it in (1, 2)],
                  scale=(0.5, 5.0))
        out = cf_fill(t)
        npt.assert_allclose(out, [[2.0, 3.0], [3.0, 4.0]])

    def test_single_user_two_items_unchanged(self):
        t = table([(1, 10, 2.0), (1, 20, 5.0)])
        out = cf_fill(t)
        npt.assert_allclose(out, [[2.0], [5.0]])

    def test_one_hole_nearest_neighbor_fixture(self):
        # items A=10, B=20, C=30 over users 1,2,3; C unrated by user 1.
        # Centered vectors: A=[-1,0,1], B=[1,0,-1], C=[-1/2,1/2] on users
        # 2,3. Co-rated cosines: sim(A,B)=-1, sim(A,C)=+1/sqrt(2),
        # sim(B,C)=-1/sqrt(2). With k=1 the hole copies user 1's rating
        # of A: (sim(A,C)*1)/|sim(A,C)| = 1.
        t = table([
            (1, 10, 1.0), (2, 10, 2.0), (3, 10, 3.0),
            (1, 20, 3.0), (2, 20, 2.0), (3, 20, 1.0),
            (2, 30, 1.0), (3, 30, 2.0),
        ])
        from cacherec.datasets import _item_item_similarity

        r = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        observed = np.array([[1, 1, 1], [1, 1, 1], [0, 1, 1]], dtype=bool)
        sim, means = _item_item_similarity(r, observed)
        npt.assert_array_equal(means, [2.0, 2.0, 1.5])
        npt.assert_allclose(sim[0, 1], -1.0, atol=1e-12)
        npt.assert_allclose(sim[0, 2], 0.7071067811865476, atol=1e-12)
        npt.assert_allclose(sim[1, 2], -0.7071067811865476, atol=1e-12)

        out = cf_fill(t, k=1)
        expect = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        npt.assert_allclose(out, expect, atol=1e-12)

    def test_no_computable_neighbor_falls_back_to_item_mean(self):
        # users 1,2 rate disjoint items except a shared anchor with
        # identical centered values, leaving zero-weight neighborhoods
        t = table([
            (1, 10, 4.0), (1, 20, 2.0),
            (2, 10, 4.0), (2, 30, 3.0),
        ])
        out = cf_fill(t, k=2)
        # item 20 unrated by user 2: its only co-rated partner is item 10
        # whose centered vector is all zeros, so weight 0 -> mean of 20
        assert out[1, 1] == pytest.approx(2.0)
        # item 30 unrated by user 1: same reasoning -> mean of 30
        assert out[2, 0] == pytest.approx(3.0)

    def test_single_item_rejected(self):
        with pytest.raises(ValueError, match="two items"):
            cf_fill(table([(1, 10, 3.0), (2, 10, 4.0)]))

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            cf_fill(table([(1, 10, 3.0), (1, 20, 4.0), (2, 10, 2.0)]), k)

    @pytest.mark.parametrize("seed,k", TIE_HEAVY)
    def test_matches_pairwise_oracle_on_ties(self, seed, k):
        rows = tie_heavy_rows(seed)
        npt.assert_allclose(cf_fill(table(rows), k), cf_fill_ref(rows, k), rtol=0, atol=1e-12)

    def test_tie_heavy_outputs_pinned(self):
        digest = hashlib.sha256()
        for seed, k in TIE_HEAVY:
            digest.update(cf_fill(table(tie_heavy_rows(seed)), k).tobytes())
        assert digest.hexdigest() == TIE_HEAVY_SHA256


class TestCosineSimilarity:
    def test_duplicated_item_scores_one(self):
        m = np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0], [4.0, 1.0, 1.0]])
        s = cosine_similarity(m)
        npt.assert_allclose(s[0, 1], 1.0, atol=1e-12)
        assert s[0, 0] == 0.0

    def test_orthogonal_centered_vectors_score_zero(self):
        m = np.array([[1.0, 3.0, 2.0, 2.0], [2.0, 2.0, 1.0, 3.0]])
        s = cosine_similarity(m)
        npt.assert_allclose(s[0, 1], 0.0, atol=1e-12)

    def test_antiparallel_scores_minus_one(self):
        m = np.array([[1.0, 3.0], [3.0, 1.0]])
        s = cosine_similarity(m)
        npt.assert_allclose(s[0, 1], -1.0, atol=1e-12)

    def test_constant_item_scores_zero_everywhere(self):
        m = np.array([[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
        s = cosine_similarity(m)
        npt.assert_allclose(s[0, 1], 0.0, atol=1e-12)


class TestBinarize:
    def test_strictly_above_threshold_kept(self):
        s = np.array([[0.0, 0.61], [0.61, 0.0]])
        u = np.asarray(binarize(s, 0.6))
        npt.assert_array_equal(u, [[0.0, 1.0], [1.0, 0.0]])

    def test_exact_threshold_dropped(self):
        s = np.array([[0.0, 0.6], [0.6, 0.0]])
        u = np.asarray(binarize(s, 0.6))
        npt.assert_array_equal(u, np.zeros((2, 2)))

    def test_all_zero_stays_zero(self):
        u = np.asarray(binarize(np.zeros((3, 3)), 0.6))
        npt.assert_array_equal(u, np.zeros((3, 3)))

    def test_diagonal_forced_zero(self):
        s = np.full((3, 3), 0.9)
        u = np.asarray(binarize(s, 0.6))
        npt.assert_array_equal(np.diag(u), np.zeros(3))


class TestSymmetrizeMax:
    def test_elementwise_max(self):
        s = np.array([[0.0, 0.8], [0.3, 0.0]])
        npt.assert_allclose(symmetrize_max(s), [[0.0, 0.8], [0.8, 0.0]])


class TestPrune:
    def test_all_rows_above_floor_unchanged(self):
        u = SimilarityMatrix(np.ones((4, 4)) - np.eye(4))
        out, mapping, sweeps = prune_with_stats(u, 2)
        npt.assert_array_equal(np.asarray(out), np.asarray(u))
        assert mapping == {0: 0, 1: 1, 2: 2, 3: 3}
        assert sweeps == 0

    def test_everything_pruned_is_an_error(self):
        u = SimilarityMatrix(np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ValueError, match="whole catalog"):
            prune_with_stats(u, 2)

    def test_cascading_removal_reaches_fixpoint(self):
        # content 3 hangs off a triangle: dropping it must not strand
        # the others, but content 4 only relates to 3 and dies with it
        u = np.zeros((5, 5))
        for i, j in [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (3, 4)]:
            u[i, j] = u[j, i] = 1.0
        out, mapping, sweeps = prune_with_stats(SimilarityMatrix(u), 2)
        assert sorted(mapping) == [0, 1, 2, 3]
        assert np.asarray(out).sum(axis=1).min() > 2
        assert sweeps >= 1

    def test_output_rows_always_exceed_floor(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(6, 15))
            u = (rng.uniform(size=(k, k)) < 0.4).astype(float)
            u = np.maximum(u, u.T)
            np.fill_diagonal(u, 0.0)
            try:
                out, _, _ = prune_with_stats(SimilarityMatrix(u), 2)
            except ValueError:
                continue
            assert np.asarray(out).sum(axis=1).min() > 2


def synthetic_catalog(list_size, **dataset):
    """The `synthetic` kind's catalog at one list size, as the sweep builds it."""
    cfg = ScenarioConfig(dataset=dict(kind="synthetic", **dataset), list_sizes=(list_size,))
    return np.asarray(_similarity_for(cfg, list_size))


class TestSyntheticSimilarity:
    """The `synthetic` dataset kind: an anchored graph in which every
    content has more relations than the list size."""

    def test_complete_graph_at_max_mean(self):
        u = synthetic_catalog(2, size=6, mean_related=5.0, seed=0)
        npt.assert_array_equal(u, np.ones((6, 6)) - np.eye(6))

    def test_deterministic_for_fixed_seed(self):
        u = synthetic_catalog(3, size=30, mean_related=6.0, seed=42)
        npt.assert_array_equal(u, synthetic_catalog(3, size=30, mean_related=6.0, seed=42))
        npt.assert_array_equal(u, np.asarray(anchored_similarity(30, 6.0, 4, seed=42)))
        assert not np.array_equal(u, synthetic_catalog(3, size=30, mean_related=6.0, seed=43))

    def test_mean_degree_near_target(self):
        # the extra pairs make up the whole deficit, so the mean is exact
        k, rbar = 120, 8.0
        for seed in range(15):
            u = synthetic_catalog(4, size=k, mean_related=rbar, seed=seed)
            assert np.array_equal(u, u.T)
            assert set(np.unique(u)) <= {0.0, 1.0}
            assert u.sum(axis=1).mean() == rbar

    def test_min_row_sum_respected(self):
        for n in (1, 4, 9):
            u = synthetic_catalog(n, size=40, mean_related=10.0, seed=1)
            assert u.sum(axis=1).min() > n
        u = synthetic_catalog(2, size=40, mean_related=10.0, min_related=7, seed=1)
        assert u.sum(axis=1).min() >= 7
        # without mean_related the mean defaults to the floor
        npt.assert_array_equal(synthetic_catalog(4, size=40, seed=1),
                               synthetic_catalog(4, size=40, mean_related=5.0, seed=1))

    def test_unreachable_floor_errors(self):
        def message(mean, floor, size, n):
            return re.escape(f"synthetic dataset: mean_related {mean} must lie in "
                             f"[floor {floor}, size {size}) at list size {n}")

        with pytest.raises(ConfigError, match=message(2, 6, 100, 5)):
            synthetic_catalog(5, size=100, mean_related=2.0, seed=0)
        with pytest.raises(ConfigError, match=message(4.5, 7, 100, 2)):
            synthetic_catalog(2, size=100, mean_related=4.5, min_related=7, seed=0)
        # a catalog too small for the floor, with the mean left at its default
        with pytest.raises(ConfigError, match=message(5, 5, 4, 4)):
            synthetic_catalog(4, size=4)
        with pytest.raises(ConfigError, match=message(10, 3, 10, 2)):
            synthetic_catalog(2, size=10, mean_related=10.0)

    @pytest.mark.parametrize("list_size,dataset,digest", [
        (4, dict(size=60, mean_related=6.0, min_related=5, seed=3),
         "fab9a483566a4fe3b7e09cff42c5f046fa618710ac413e07b0b1f74b919a15a6"),
        (2, dict(size=40, mean_related=7.5, min_related=3, seed=11),
         "005eb1d47d8970f5c3aab3c713b0e0ccaf8b738ba28cf4a90cfd749e31be21cb"),
        (2, dict(size=30, min_related=4, seed=1),
         "eaa40c91e0a87356ae1ff9f6c3ebd44a7a9f98b1212fc29e3b5fe4e6e10c314a"),
    ])
    def test_min_related_catalog_pinned(self, list_size, dataset, digest):
        # sha256 of the float64 matrices that configs with `min_related`
        # gave in release 1.1.0
        u = synthetic_catalog(list_size, **dataset)
        assert u.dtype == np.float64
        assert hashlib.sha256(u.tobytes()).hexdigest() == digest


class TestAnchoredSimilarity:
    def test_floor_mean_and_symmetry(self):
        k, rbar, floor = 90, 6.0, 4
        u = np.asarray(anchored_similarity(k, rbar, floor, seed=3))
        assert np.array_equal(u, u.T)
        assert set(np.unique(u)) <= {0.0, 1.0}
        assert np.diag(u).max() == 0.0
        assert u.sum(axis=1).min() >= floor
        assert abs(u.sum(axis=1).mean() - rbar) <= 1.0

    def test_deterministic(self):
        u1 = np.asarray(anchored_similarity(50, 5.0, 3, seed=7))
        u2 = np.asarray(anchored_similarity(50, 5.0, 3, seed=7))
        npt.assert_array_equal(u1, u2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            anchored_similarity(10, 2.0, 5, seed=0)
        with pytest.raises(ValueError):
            anchored_similarity(10, 1.0, 12, seed=0)


class TestZipfPopularity:
    def test_zero_exponent_uniform(self):
        npt.assert_allclose(np.asarray(zipf_popularity(5, 0.0)), np.full(5, 0.2))

    def test_two_items_unit_exponent(self):
        npt.assert_allclose(np.asarray(zipf_popularity(2, 1.0)), [2 / 3, 1 / 3])

    def test_three_items_half_exponent(self):
        npt.assert_allclose(
            np.asarray(zipf_popularity(3, 0.5)), [0.4377, 0.3095, 0.2528], atol=1e-4
        )

    def test_nonincreasing_and_normalized(self):
        for s in (0.0, 0.4, 0.8, 1.5):
            p = np.asarray(zipf_popularity(41, s))
            assert np.all(np.diff(p) <= 1e-15)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            zipf_popularity(3, -0.1)


class TestLoaders:
    def test_movielens_csv_round_trip(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text(
            "userId,movieId,rating,timestamp\n"
            "1,10,4.0,100\n"
            "1,20,2.5,101\n"
            "2,10,3.0,102\n"
        )
        t = load_movielens_csv(path)
        npt.assert_array_equal(t.users, [1, 2])
        npt.assert_array_equal(t.items, [10, 20])
        assert t.ratings.size == 3

    def test_movielens_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user,item\n1,2\n")
        with pytest.raises(ValueError, match="expected columns"):
            load_movielens_csv(path)

    def test_movielens_columns_found_by_header(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("timestamp,rating,movieId,userId\n0,4.0,10,1\n\n0,2.5,20,2\n")
        t = load_movielens_csv(path)
        npt.assert_array_equal(t.user_ids, [1, 2])
        npt.assert_array_equal(t.item_ids, [10, 20])
        npt.assert_array_equal(t.ratings, [4.0, 2.5])

    @pytest.mark.parametrize("bad", ["1,11", "1,11,x,0", "one,11,4.0,0"],
                             ids=["short-row", "rating-not-a-number", "user-not-an-integer"])
    def test_movielens_bad_row_names_its_line(self, tmp_path, bad):
        path = tmp_path / "ratings.csv"
        path.write_text(f"userId,movieId,rating,timestamp\n1,10,4.0,0\n{bad}\n")
        with pytest.raises(ValueError, match="^line 3: "):
            load_movielens_csv(path)

    @pytest.mark.parametrize("text", [
        "userId,movieId,rating,timestamp\n1,10,4.0,100\n1,20,2.5,101\n2,10,3.0,102\n",
        "timestamp,rating,movieId,userId\n0,4.0,10,1\n0,2.5,20,2\n",
        "userId,movieId,rating,timestamp\n1,10,4.0,0\n\n\n2,20,2.5,0\n",
        "userId,movieId,rating,timestamp,tag\n1,10,4.0,0,x\n2,20,2.5,0,y,z\n",
        "userId,movieId,rating,timestamp\r\n1,10,4.0,0\r\n2,20,2.5,0\r\n",
        "userId,movieId,rating,timestamp\n 1 ,\t10, 4.0 ,0\n2 , 20,2.5\t,0\n",
        'userId,movieId,rating,"note\n5,6,3,"\n1,10,4.0,0\n',
    ], ids=["round-trip", "header-reordered", "blank-lines", "extra-columns", "crlf",
            "whitespace-padded", "quoted-newline-in-header"])
    def test_numpy_pass_matches_row_reader(self, tmp_path, caplog, text):
        path = write_ratings(tmp_path / "ratings.csv", text)
        with caplog.at_level(logging.DEBUG, logger="cacherec"):
            fast = read_outcome(load_movielens_csv, path)
        assert not row_reader_ran(caplog.records)
        assert fast == read_outcome(_read_rating_rows, path)
        assert fast[0][1] == fast[1][1] == np.int64 and fast[2][1] == np.float64

    @pytest.mark.parametrize("row, expected", [
        ("1_0,10,4.0,0", [10]),
        ("12345678901234567890,10,4.0,0", [12345678901234567890]),
        ('1,10,4.0,"a,b"', [1]),
        ('1,10,4.0,"a\n2,20,3.0,"', [1]),
        ("1,10,4.0,#0", [1]),
        ("1,10#,4.0,0", "line 2: "),
        ("\u0661,10,4.0,0", [1]),
        ("\u0761,10,4.0,0", "line 2: "),
        ("\x1c1,10,4.0,5", "line 2: "),
        ("1,10,4.0\x1f,5", "line 2: "),
    ], ids=["underscore", "20-digit-id", "quoted-comma", "quoted-newline", "hash-unused",
            "hash-in-id", "arabic-indic-digit", "non-ascii-letter", "file-separator",
            "unit-separator"])
    def test_odd_rows_read_as_the_row_reader_reads_them(self, tmp_path, row, expected):
        path = write_ratings(tmp_path / "ratings.csv",
                             f"userId,movieId,rating,timestamp\n{row}\n")
        outcome = read_outcome(load_movielens_csv, path)
        assert outcome == read_outcome(_read_rating_rows, path)
        if isinstance(expected, str):
            assert outcome.startswith(expected)
        else:
            assert outcome[0][0] == expected

    @pytest.mark.parametrize("text", ["userId,movieId,rating,timestamp\n",
                                      "userId,movieId,rating\r\n\r\n\n"],
                             ids=["header-only", "blank-lines-only"])
    def test_header_only_is_empty_without_warning(self, tmp_path, text):
        path = write_ratings(tmp_path / "ratings.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^ratings table is empty$"):
                load_movielens_csv(path)

    @pytest.mark.parametrize("rows, message", [
        ("1,10,4.0\n1,10,3.0\n", "duplicate (user, item) pairs"),
        ("1,10,4.0\n1,20,5.5\n", "ratings must lie in [0.5, 5.0]"),
        ("1,10,nan\n", "ratings must lie in [0.5, 5.0]"),
    ], ids=["duplicate", "out-of-scale", "nan"])
    def test_table_errors_raise_from_numpy_pass(self, tmp_path, caplog, rows, message):
        path = write_ratings(tmp_path / "ratings.csv", "userId,movieId,rating\n" + rows)
        with caplog.at_level(logging.DEBUG, logger="cacherec"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_movielens_csv(path)
        assert not row_reader_ran(caplog.records)

    def test_fallback_logs_one_debug_line_naming_numpy_error(self, tmp_path, caplog):
        path = write_ratings(tmp_path / "ratings.csv",
                             "userId,movieId,rating\n1,10,4.0\n1_0,20,2.5\n")
        with caplog.at_level(logging.DEBUG, logger="cacherec"):
            t = load_movielens_csv(path)
        npt.assert_array_equal(t.user_ids, [1, 10])
        assert len(caplog.records) == 1
        record = caplog.records[0]
        assert record.levelno == logging.DEBUG
        assert row_reader_ran([record])
        assert "ValueError: could not convert string '1_0'" in record.getMessage()

    def test_lastfm_triplets_symmetrized(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("a\tb\t0.9\nb\ta\t0.4\n# comment\nb\tc\t0.2\n")
        s, ids = load_lastfm_triplets(path)
        assert ids == ["a", "b", "c"]
        npt.assert_allclose(s[0, 1], 0.9)
        npt.assert_allclose(s[1, 0], 0.9)
        npt.assert_allclose(s[1, 2], 0.2)

    def test_lastfm_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("a\tb\n")
        with pytest.raises(ValueError, match="line 1"):
            load_lastfm_triplets(path)

    def test_lastfm_non_numeric_score_names_its_line(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("a\tb\t0.5\nb\tc\thigh\n")
        with pytest.raises(ValueError, match="^line 2: score 'high' is not a number"):
            load_lastfm_triplets(path)

    def test_prepare_lastfm_pipeline(self, tmp_path):
        path = tmp_path / "sim.tsv"
        lines = []
        ids = [f"s{i}" for i in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                lines.append(f"{ids[i]}\t{ids[j]}\t0.8")
        path.write_text("\n".join(lines) + "\n")
        u, kept, prov = prepare_lastfm(path, list_size=4)
        assert u.size == 6
        assert kept == ids
        assert prov["kind"] == "lastfm"
        assert prov["catalog_size"] == 6

    def test_prepare_movielens_deterministic(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "ratings.csv"
        rows = ["userId,movieId,rating,timestamp"]
        for u in range(1, 13):
            for it in rng.choice(np.arange(10, 30), size=14, replace=False):
                rows.append(f"{u},{it},{rng.integers(1, 11) * 0.5},0")
        path.write_text("\n".join(rows) + "\n")
        u1, ids1, prov1 = prepare_movielens(path, theta=0.3, list_size=2)
        u2, ids2, prov2 = prepare_movielens(path, theta=0.3, list_size=2)
        npt.assert_array_equal(np.asarray(u1), np.asarray(u2))
        assert ids1 == ids2
        assert prov1["catalog_size"] == prov2["catalog_size"]

    def test_prepare_logs_stage_seconds(self, tmp_path, caplog):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("userId,movieId,rating\n" + "".join(
            f"{u},{it},{1 + (u * it) % 5}\n" for u in range(1, 9) for it in range(10, 16)
        ))
        triplets = tmp_path / "sim.tsv"
        triplets.write_text("".join(f"s{i}\ts{j}\t0.8\n" for i in range(6) for j in range(i)))
        with caplog.at_level(logging.DEBUG, logger="cacherec"):
            prepare_movielens(ratings, theta=-1.0, list_size=2)
            prepare_lastfm(triplets, list_size=2)
        stages = [re.findall(r"(\w+) [\d.]+ s", r.getMessage()) for r in caplog.records]
        assert stages == [["load", "fill", "similarity", "prune"],
                          ["load", "similarity", "prune"]]
        assert all(r.levelno == logging.DEBUG for r in caplog.records)


@pytest.mark.skipif(
    not os.path.exists(MOVIELENS_CSV),
    reason="MovieLens ratings file not present",
)
class TestMovieLensCharacterization:
    def test_catalog_size_band(self):
        u, kept, prov = prepare_movielens(MOVIELENS_CSV)
        assert 848 <= prov["catalog_size"] <= 1272  # 1060 +/- 20%
