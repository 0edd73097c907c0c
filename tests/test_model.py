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
