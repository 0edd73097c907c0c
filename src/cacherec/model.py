"""Domain types for the cache-aware recommendation problem.

All numeric payloads are dense ``numpy`` arrays wrapped in small frozen
dataclasses that validate their invariants once, at construction time.
Every type is immutable afterwards (the wrapped arrays are marked
read-only), so instances are safe to share across threads.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SimilarityMatrix",
    "PopularityVector",
    "CostVector",
    "RecMatrix",
    "RequestModel",
    "StationaryVector",
    "Violation",
    "validate_rec_matrix",
]

# Feasibility tolerance of a RecMatrix, and the tolerance on a
# StationaryVector's sign and total mass.
_REC_TOL = 1e-6
_STATIONARY_TOL = 1e-8


def _freeze(a) -> np.ndarray:
    """Copy to a float64 array and mark it read-only."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


class _ArrayWrapper:
    """Array protocol shared by the wrappers of one frozen ``values`` array.

    ``np.asarray(w)`` returns the read-only array itself; ``np.array(w)``
    returns a writable copy, as numpy's ``copy`` argument asks.
    """

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class SimilarityMatrix(_ArrayWrapper):
    """K x K content-relatedness scores in [0, 1] with a zero diagonal."""

    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"similarity matrix must be square, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("similarity entries must be finite")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("similarity entries must lie in [0, 1]")
        if np.any(np.diag(v) != 0.0):
            raise ValueError("similarity diagonal must be zero")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PopularityVector(_ArrayWrapper):
    """Baseline request probabilities: nonnegative, summing to one."""

    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 1:
            raise ValueError("popularity must be a vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("popularity entries must be finite")
        if v.min() < 0.0:
            raise ValueError(f"popularity entries must be >= 0, min is {v.min()}")
        s = v.sum()
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"popularity must sum to 1 within 1e-12, sums to {s!r}")
        if np.any(v == 0.0):
            # Zero-mass contents are legal but the request chain may then
            # fail to be ergodic; the stationary solve itself stays valid.
            warnings.warn(
                "popularity vector has exact zeros; the request chain may be "
                "non-ergodic",
                stacklevel=2,
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class CostVector(_ArrayWrapper):
    """Per-content fetch cost: finite and nonnegative."""

    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 1:
            raise ValueError("cost must be a vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("cost entries must be finite")
        if v.min() < 0.0:
            raise ValueError("cost entries must be >= 0")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Violation:
    """One failed recommendation-matrix invariant, with its location."""

    kind: str  # one of: shape, diagonal, box, row_sum, negative
    row: int | None
    col: int | None
    magnitude: float

    def __str__(self):
        where = f"row {self.row}" if self.row is not None else "matrix"
        if self.col is not None:
            where += f", col {self.col}"
        return f"{self.kind} violation at {where}: {self.magnitude:.3e}"


def validate_rec_matrix(y, tol: float = 1e-6, list_size: int | None = None):
    """Check the recommendation-matrix invariants, returning violations.

    Parameters
    ----------
    y : RecMatrix or array_like
        Candidate matrix. When an array is given, `list_size` is required.
    tol : float
        Feasibility tolerance applied to every check.
    list_size : int, optional
        Recommendation list size N; read off `y` when it is a RecMatrix.

    Returns
    -------
    list of Violation
        Empty iff `y` is row-stochastic with entries in [0, 1/N] and a
        zero diagonal, all within `tol`. Each entry names the offending
        row/column and the magnitude of the breach.
    """
    if isinstance(y, RecMatrix):
        n = y.list_size
        v = y.values
    else:
        if list_size is None:
            raise ValueError("list_size is required when y is a bare array")
        n = int(list_size)
        v = np.asarray(y, dtype=float)

    out: list[Violation] = []
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        out.append(Violation("shape", None, None, 0.0))
        return out
    k = v.shape[0]
    cap = 1.0 / n

    diag = np.abs(np.diag(v))
    for i in np.flatnonzero(diag > tol):
        out.append(Violation("diagonal", int(i), int(i), float(diag[i])))

    # Whole-array reductions clear a feasible matrix without K x K
    # temporaries; the entrywise scans run only where a check fails (a
    # NaN fails it too, and the scans then report what they find).
    if not v.max(initial=-np.inf) - cap <= tol:
        over = v - cap
        for i, j in zip(*np.nonzero(over > tol)):
            out.append(Violation("box", int(i), int(j), float(over[i, j])))

    if not -v.min(initial=np.inf) <= tol:
        neg = -v
        for i, j in zip(*np.nonzero(neg > tol)):
            out.append(Violation("negative", int(i), int(j), float(neg[i, j])))

    row_err = np.abs(v.sum(axis=1) - 1.0)
    for i in np.flatnonzero(row_err > tol):
        out.append(Violation("row_sum", int(i), None, float(row_err[i])))
    return out


@dataclass(frozen=True)
class RecMatrix(_ArrayWrapper):
    """Row-stochastic recommendation matrix with entries in [0, 1/N].

    Entry (i, j) is the probability the recommender shows content j after
    content i, scaled so that a full list of N items is drawn with the
    marginal inclusion probabilities N * y_ij.
    """

    values: np.ndarray
    list_size: int

    def __post_init__(self):
        if self.list_size < 1:
            raise ValueError("list size must be >= 1")
        v = _freeze(self.values)
        object.__setattr__(self, "values", v)
        bad = validate_rec_matrix(v, _REC_TOL, self.list_size)
        if bad:
            head = "; ".join(str(b) for b in bad[:5])
            raise ValueError(
                f"invalid recommendation matrix ({len(bad)} violations): {head}"
            )

    @cached_property
    def nonzeros(self):
        """Row indices, column indices and values of the nonzero entries,
        in row-major order, taken on first use and kept (read-only)."""
        out = _nonzeros(self.values)
        for a in out:
            a.flags.writeable = False
        return out


def _nonzeros(y):
    """Row indices, column indices and values of a square matrix's nonzero
    entries, in row-major order; a RecMatrix's own are taken only once."""
    if isinstance(y, RecMatrix):
        return y.nonzeros
    v = np.asarray(y, dtype=float)
    flat = v.ravel()
    nz = np.flatnonzero(flat)
    rows, cols = np.divmod(nz, v.shape[0])
    return rows, cols, flat[nz]


@dataclass(frozen=True)
class RequestModel:
    """Sequential request model: popularity, follow probability, list size.

    A session starts from the popularity distribution; afterwards each
    request follows one of the N recommended items with probability
    `follow_prob` and is drawn from the popularity otherwise.
    """

    popularity: PopularityVector
    follow_prob: float
    list_size: int

    def __post_init__(self):
        if not isinstance(self.popularity, PopularityVector):
            object.__setattr__(
                self, "popularity", PopularityVector(np.asarray(self.popularity))
            )
        a = float(self.follow_prob)
        if not (0.0 <= a < 1.0):
            # a = 1 would let the chain ignore the popularity anchor and the
            # stationary linear system may become singular.
            raise ValueError(f"follow probability must satisfy 0 <= a < 1, got {a}")
        object.__setattr__(self, "follow_prob", a)
        n = int(self.list_size)
        if n < 1:
            raise ValueError("list size must be >= 1")
        if n >= self.popularity.size:
            raise ValueError(
                f"list size {n} must be smaller than the catalog ({self.popularity.size})"
            )
        object.__setattr__(self, "list_size", n)

    @property
    def size(self) -> int:
        return self.popularity.size


@dataclass(frozen=True)
class StationaryVector(_ArrayWrapper):
    """Long-run fraction of requests per content."""

    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 1:
            raise ValueError("stationary distribution must be a vector")
        if v.min() < -_STATIONARY_TOL:
            raise ValueError(f"stationary entries must be >= 0, min is {v.min()}")
        if abs(v.sum() - 1.0) > _STATIONARY_TOL:
            raise ValueError(f"stationary distribution sums to {v.sum()!r}, not 1")
        object.__setattr__(self, "values", v)
