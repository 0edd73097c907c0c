"""Domain types for the cache-aware recommendation problem.

Numeric payloads are ``numpy`` arrays wrapped in small frozen types that
validate their invariants once, at construction time, and compare and
hash by identity. The vectors and the similarity hold a dense array; a
`RecMatrix` holds the nonzeros of Y and builds its dense array on first
use. Every type is immutable afterwards (the wrapped arrays are marked
read-only), so instances are safe to share across threads.
"""

import numbers
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


def _is_real(v) -> bool:
    """True for a real number; a bool (JSON's ``true``) is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_whole(v) -> bool:
    """True for an integer, or a float without a fractional part (JSON's
    ``4.0``); a bool is neither."""
    return _is_real(v) and (
        isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())
    )


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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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

    kind: str  # one of: shape, nonfinite, diagonal, box, negative, row_sum
    row: int | None
    col: int | None
    magnitude: float

    def __str__(self):
        where = f"row {self.row}" if self.row is not None else "matrix"
        if self.col is not None:
            where += f", col {self.col}"
        return f"{self.kind} violation at {where}: {self.magnitude:.3e}"


def validate_rec_matrix(y, tol: float = 1e-6, list_size: int | None = None):
    """Check that `y` lies in the recommendation polytope, returning violations.

    The polytope of list size N holds the K x K matrices whose rows sum
    to 1, whose entries lie in [0, 1/N] and whose diagonal is zero.

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
        Empty iff `y` is square and finite and lies in the polytope within
        `tol`. Each entry names the offending row/column and the magnitude
        of the breach; a non-finite entry is a ``nonfinite`` violation of
        magnitude ``inf``.

    A zero entry passes every entrywise check, and a NaN is a nonzero, so
    the checks run over Y's nonzeros alone. A RecMatrix's row sums are
    ``np.bincount`` sums of its nonzeros, so its dense array is never
    built; an array's are its dense row sums.
    """
    if isinstance(y, RecMatrix):
        n = y.list_size
        rows, cols, vals = y.nonzeros
        sums = np.bincount(rows, vals, y.size)
    else:
        if list_size is None:
            raise ValueError("list_size is required when y is a bare array")
        n = int(list_size)
        v = np.asarray(y, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            return [Violation("shape", None, None, 0.0)]
        rows, cols, vals = _nonzeros(v)
        sums = v.sum(axis=1)

    over = vals - 1.0 / n
    checks = (
        ("nonfinite", ~np.isfinite(vals), np.full(vals.shape, np.inf)),
        ("diagonal", (rows == cols) & (np.abs(vals) > tol), np.abs(vals)),
        ("box", over > tol, over),
        ("negative", -vals > tol, -vals),
    )
    out = [Violation(kind, int(rows[t]), int(cols[t]), float(mag[t]))
           for kind, hit, mag in checks for t in np.flatnonzero(hit)]
    row_err = np.abs(sums - 1.0)
    for i in np.flatnonzero(row_err > tol):
        out.append(Violation("row_sum", int(i), None, float(row_err[i])))
    return out


class RecMatrix(_ArrayWrapper):
    """Row-stochastic recommendation matrix with entries in [0, 1/N].

    Entry (i, j) is the probability the recommender shows content j after
    content i, scaled so that a full list of N items is drawn with the
    marginal inclusion probabilities N * y_ij.

    ``RecMatrix(values, list_size)`` takes a dense K x K array;
    `from_nonzeros` takes the nonzero entries. Either way the matrix keeps
    only `nonzeros`: the row indices, column indices and values of its
    nonzero entries, in row-major order and read-only, over which
    `validate_rec_matrix` checks it at construction. `size` is K. The
    dense array `values` (and so ``np.asarray``) is built from them on
    first use, zeros elsewhere, read-only, and kept.
    """

    def __init__(self, values, list_size: int):
        v = np.asarray(values, dtype=float)
        if v.ndim == 2 and v.shape[0] == v.shape[1]:
            self._store(_nonzeros(v), v.shape[0], list_size)
        else:
            self._store(None, 0, list_size)

    @classmethod
    def from_nonzeros(cls, rows, cols, vals, size: int, list_size: int) -> "RecMatrix":
        """The K x K matrix, K = `size`, with ``y[rows, cols] = vals`` and
        zeros elsewhere. Entries must come in row-major order, without
        repeats; exact zeros among `vals` are dropped."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        at = rows * size + cols
        if (rows.shape != vals.shape or cols.shape != vals.shape
                or np.any((rows < 0) | (rows >= size) | (cols < 0) | (cols >= size))
                or np.any(at[1:] <= at[:-1])):
            raise ValueError("nonzeros must be row-major (row, col) pairs inside the "
                             "matrix, without repeats")
        keep = vals != 0.0
        y = cls.__new__(cls)
        y._store((rows[keep], cols[keep], vals[keep]), int(size), list_size)
        return y

    def _store(self, nonzeros, size, list_size):
        """Set the fields and validate; `nonzeros` None marks a non-square
        input."""
        if list_size < 1:
            raise ValueError("list size must be >= 1")
        d = vars(self)
        d["list_size"], d["_size"] = list_size, size
        if nonzeros is None:
            bad = [Violation("shape", None, None, 0.0)]
        else:
            for a in nonzeros:
                a.flags.writeable = False
            d["nonzeros"] = tuple(nonzeros)
            bad = validate_rec_matrix(self, _REC_TOL)
        if bad:
            head = "; ".join(str(b) for b in bad[:5])
            raise ValueError(
                f"invalid recommendation matrix ({len(bad)} violations): {head}"
            )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a RecMatrix")

    @property
    def size(self) -> int:
        return self._size

    @cached_property
    def values(self) -> np.ndarray:
        """The dense K x K array, built from `nonzeros` on first use."""
        rows, cols, vals = self.nonzeros
        v = np.zeros((self.size, self.size))
        v[rows, cols] = vals
        v.flags.writeable = False
        return v


def _cache_index(cached, k: int) -> np.ndarray:
    """The cached content ids as an index array over a catalog of `k`."""
    idx = np.fromiter(cached, dtype=int, count=len(cached))
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ValueError("cached ids must index the catalog")
    return idx


def _nonzeros(y):
    """Row indices, column indices and values of a square matrix's nonzero
    entries, in row-major order; a RecMatrix's are those it stores."""
    if isinstance(y, RecMatrix):
        return y.nonzeros
    v = np.asarray(y, dtype=float)
    flat = v.ravel()
    nz = np.flatnonzero(flat)
    rows, cols = np.divmod(nz, v.shape[0])
    return rows, cols, flat[nz]


def _shape(y) -> tuple:
    """The shape of a matrix; a RecMatrix's without its dense array."""
    return (y.size, y.size) if isinstance(y, RecMatrix) else np.shape(y)


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


@dataclass(frozen=True, eq=False)
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
