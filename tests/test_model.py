"""Domain type construction, validation, and immutability checks."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from cacherec import (
    CostVector,
    PopularityVector,
    RecMatrix,
    RequestModel,
    SimilarityMatrix,
    StationaryVector,
    Violation,
    validate_rec_matrix,
)


class TestSimilarityMatrix:
    def test_valid(self):
        u = SimilarityMatrix(np.array([[0.0, 0.5], [1.0, 0.0]]))
        assert u.size == 2

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            SimilarityMatrix(np.array([[0.1, 0.5], [1.0, 0.0]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SimilarityMatrix(np.array([[0.0, 1.5], [1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SimilarityMatrix(np.zeros((2, 3)))

    def test_values_read_only(self):
        u = SimilarityMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            u.values[0, 1] = 0.5


class TestPopularityVector:
    def test_valid(self):
        p = PopularityVector([0.3, 0.7])
        assert p.size == 2

    def test_sum_enforced_tightly(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PopularityVector([0.3, 0.7 + 1e-9])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            PopularityVector([-0.1, 1.1])

    def test_exact_zero_warns_but_constructs(self):
        with pytest.warns(UserWarning, match="non-ergodic"):
            p = PopularityVector([0.0, 1.0])
        assert p.values[0] == 0.0


class TestCostVector:
    def test_valid(self):
        x = CostVector([0.0, 1.0, 2.5])
        assert x.size == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostVector([-1.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CostVector([np.inf, 0.0])


class TestValidateRecMatrix:
    def test_k2_n1_swap_is_clean(self):
        # the unique feasible point at K=2, N=1
        assert validate_rec_matrix([[0, 1], [1, 0]], list_size=1) == []

    def test_diagonal_violation_reported(self):
        out = validate_rec_matrix([[0.5, 0.5], [1, 0]], list_size=1)
        kinds = {(v.kind, v.row) for v in out}
        assert ("diagonal", 0) in kinds

    def test_box_violation_reported(self):
        y = [[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
        out = validate_rec_matrix(y, list_size=2)
        assert any(v.kind == "box" and v.row == 0 and v.col == 1 for v in out)
        assert any(abs(v.magnitude - 0.1) < 1e-12 for v in out if v.kind == "box")

    def test_row_sum_violation_reported(self):
        y = [[0.0, 0.9], [1.0, 0.0]]
        out = validate_rec_matrix(y, list_size=1)
        assert any(v.kind == "row_sum" and v.row == 0 for v in out)

    def test_negative_entry_reported(self):
        y = [[0.0, 1.1, -0.1], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        out = validate_rec_matrix(y, tol=1e-6, list_size=1)
        assert any(v.kind == "negative" for v in out)

    def test_tolerance_is_respected(self):
        y = np.array([[0.0, 1.0 + 5e-7], [1.0, 0.0]])
        assert validate_rec_matrix(y, tol=1e-6, list_size=1) == []
        assert validate_rec_matrix(y, tol=1e-8, list_size=1) != []

    def test_bare_array_requires_list_size(self):
        with pytest.raises(ValueError, match="list_size"):
            validate_rec_matrix(np.eye(2))


def _reference_violations(v, tol, n):
    """`validate_rec_matrix`'s checks as scans over every entry of `v`."""
    out = []
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        return [Violation("shape", None, None, 0.0)]
    cap = 1.0 / n
    for i, j in zip(*np.nonzero(~np.isfinite(v))):
        out.append(Violation("nonfinite", int(i), int(j), np.inf))
    diag = np.abs(np.diag(v))
    for i in np.flatnonzero(diag > tol):
        out.append(Violation("diagonal", int(i), int(i), float(diag[i])))
    over = v - cap
    for i, j in zip(*np.nonzero(over > tol)):
        out.append(Violation("box", int(i), int(j), float(over[i, j])))
    neg = -v
    for i, j in zip(*np.nonzero(neg > tol)):
        out.append(Violation("negative", int(i), int(j), float(neg[i, j])))
    row_err = np.abs(v.sum(axis=1) - 1.0)
    for i in np.flatnonzero(row_err > tol):
        out.append(Violation("row_sum", int(i), None, float(row_err[i])))
    return out


class TestValidateRecMatrixFastPath:
    @staticmethod
    def _feasible(rng, k, n):
        v = np.zeros((k, k))
        for i in range(k):
            others = np.delete(np.arange(k), i)
            v[i, rng.choice(others, n, replace=False)] = 1.0 / n
        return v

    def test_matches_entrywise_scans(self):
        rng = np.random.default_rng(21)
        kinds = ("diagonal", "box", "negative", "row_sum", "nonfinite")
        seen = set()
        for trial in range(600):
            k = int(rng.integers(3, 12))
            n = int(rng.integers(1, k))
            v = self._feasible(rng, k, n)
            tol = float(rng.choice([1e-9, 1e-6, 1e-3]))
            picked = rng.choice(kinds, int(rng.integers(0, 4)), replace=False)
            for kind in picked:
                i, j = (int(t) for t in rng.integers(k, size=2))
                bump = float(rng.choice([0.5 * tol, 2.0 * tol, rng.uniform(0.0, 0.5)]))
                if kind == "diagonal":
                    v[i, i] += bump
                elif kind == "box":
                    v[i, j] = 1.0 / n + bump
                elif kind == "negative":
                    v[i, j] = -bump
                elif kind == "row_sum":
                    v[i] *= 1.0 + bump
                else:
                    v[i, j] = rng.choice([np.nan, np.inf, -np.inf])
            got = validate_rec_matrix(v, tol, n)
            assert got == _reference_violations(v, tol, n), (trial, picked)
            seen.update(b.kind for b in got)
        assert seen == set(kinds)

    def test_nan_does_not_hide_other_violations(self):
        v = np.array([[0.0, 1.0, np.nan], [2.0, 0.0, -1.0], [0.5, 0.5, 0.0]])
        got = validate_rec_matrix(v, 1e-6, 1)
        assert got == _reference_violations(v, 1e-6, 1)
        assert [b.kind for b in got] == ["nonfinite", "box", "negative"]

    def test_nonfinite_entry_is_a_violation(self):
        # every comparison with NaN is False, so no bound check can see it
        v = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [np.nan, 0.5, 0.0]]
        assert validate_rec_matrix(v, 1e-6, 2) == [Violation("nonfinite", 2, 0, np.inf)]
        with pytest.raises(ValueError, match="nonfinite violation at row 2, col 0"):
            RecMatrix(v, list_size=2)

    def test_shape_and_empty(self):
        assert validate_rec_matrix(np.zeros((2, 3)), 1e-6, 1) == [
            Violation("shape", None, None, 0.0)
        ]
        assert validate_rec_matrix(np.zeros((0, 0)), 1e-6, 1) == []


class TestRecMatrix:
    def test_valid_constructs_and_is_frozen(self):
        y = RecMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), list_size=1)
        assert y.size == 2
        with pytest.raises(ValueError):
            y.values[0, 0] = 1.0

    def test_invalid_rejected_with_violation_text(self):
        with pytest.raises(ValueError, match="diagonal"):
            RecMatrix(np.array([[0.5, 0.5], [1.0, 0.0]]), list_size=1)

    def test_eps_feas_default_allows_solver_noise(self):
        y = np.array([[0.0, 1.0 + 5e-7], [1.0, 0.0]])
        RecMatrix(y, list_size=1)  # within the default 1e-6

    def test_numpy_coercion(self):
        y = RecMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), list_size=1)
        assert_array_equal(np.asarray(y), y.values)

    def test_nonzeros_taken_once_in_row_major_order(self):
        rng = np.random.default_rng(22)
        v = np.zeros((9, 9))
        for i in range(9):
            v[i, rng.choice(np.delete(np.arange(9), i), 3, replace=False)] = 1.0 / 3.0
        y = RecMatrix(v, list_size=3)
        rows, cols, vals = y.nonzeros
        flat = v.ravel()
        nz = np.flatnonzero(flat)
        assert_array_equal(rows, nz // 9)
        assert_array_equal(cols, nz % 9)
        assert vals.tobytes() == flat[nz].tobytes()
        assert y.nonzeros is y.nonzeros
        for a in y.nonzeros:
            with pytest.raises(ValueError):
                a[0] = 0


class TestRequestModel:
    def test_valid(self):
        m = RequestModel([0.3, 0.7], 0.5, 1)
        assert m.size == 2
        assert m.follow_prob == 0.5

    def test_follow_prob_one_rejected(self):
        with pytest.raises(ValueError, match="0 <= a < 1"):
            RequestModel([0.3, 0.7], 1.0, 1)

    def test_follow_prob_just_below_one_accepted(self):
        m = RequestModel([0.3, 0.7], 0.999, 1)
        assert m.follow_prob == 0.999

    def test_list_size_must_be_below_catalog(self):
        with pytest.raises(ValueError, match="smaller than the catalog"):
            RequestModel([0.3, 0.7], 0.5, 2)

    def test_popularity_coerced(self):
        m = RequestModel(np.array([0.5, 0.5]), 0.0, 1)
        assert isinstance(m.popularity, PopularityVector)


class TestStationaryVector:
    def test_valid(self):
        pi = StationaryVector([0.25, 0.75])
        assert pi.size == 2

    def test_tiny_negative_within_tol_accepted(self):
        StationaryVector(np.array([-1e-12, 1.0 + 1e-12]))

    def test_sum_violation_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            StationaryVector([0.25, 0.25])


@pytest.mark.parametrize("make,match", [
    (lambda: SimilarityMatrix(np.array([[0.0, np.nan], [1.0, 0.0]])),
     "similarity entries must be finite"),
    (lambda: PopularityVector(np.full((2, 2), 0.25)), "popularity must be a vector"),
    (lambda: PopularityVector([np.nan, 1.0]), "popularity entries must be finite"),
    (lambda: CostVector(np.ones((2, 2))), "cost must be a vector"),
    (lambda: RecMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), list_size=0),
     "list size must be >= 1"),
    (lambda: RequestModel([0.3, 0.7], 0.5, 0), "list size must be >= 1"),
    (lambda: StationaryVector(np.full((2, 2), 0.25)), "stationary distribution must be a vector"),
    (lambda: StationaryVector([-0.1, 1.1]), "stationary entries must be >= 0"),
], ids=["similarity-nonfinite", "popularity-matrix", "popularity-nonfinite", "cost-matrix",
        "rec-list-size", "model-list-size", "stationary-matrix", "stationary-negative"])
def test_malformed_input_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


WRAPPERS = [
    lambda: SimilarityMatrix(np.array([[0.0, 0.5], [1.0, 0.0]])),
    lambda: PopularityVector([0.3, 0.7]),
    lambda: CostVector([1.0, 0.0]),
    lambda: RecMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), list_size=1),
    lambda: StationaryVector([0.25, 0.75]),
]


@pytest.mark.parametrize(
    "make", WRAPPERS, ids=["similarity", "popularity", "cost", "rec", "stationary"]
)
class TestArrayProtocol:
    def test_array_copies_and_is_writable(self, make):
        w = make()
        before = w.values.copy()
        a = np.array(w)
        assert not np.shares_memory(a, w.values)
        a[...] = -1.0
        assert_array_equal(w.values, before)
        assert_array_equal(np.array(w, dtype=np.float32), w.values.astype(np.float32))

    def test_asarray_does_not_copy(self, make):
        w = make()
        assert np.asarray(w) is w.values
        assert np.array(w, copy=False) is w.values
        assert not np.asarray(w).flags.writeable
        assert w.size == w.values.shape[0]
