"""Markov-chain mathematics of the sequential request model.

The request chain mixes the recommendation matrix with the baseline
popularity: ``P = a * Y + (1 - a) * 1 p0^T``. This module builds that
transition matrix, solves for its stationary distribution, and evaluates
the cost and quality metrics defined on top of it. `stationary` is the
solver the optimizers and metrics call: it runs the fixed point
``pi <- (1-a) p0 + a Y^T pi`` through Y's nonzeros, to a certified l1
accuracy, unless a dense LU (`stationary_direct`) is the cheaper of the
two. Power iteration (`stationary_power`) stays as an independent oracle.
"""

import logging
import math

import numpy as np
import scipy.linalg

from .model import (
    CostVector,
    RecMatrix,
    RequestModel,
    SimilarityMatrix,
    StationaryVector,
    _nonzeros,
)

__all__ = [
    "build_transition",
    "stationary",
    "stationary_direct",
    "stationary_power",
    "expected_cost",
    "cache_hit_ratio",
    "quality_of",
]

_log = logging.getLogger("cacherec")

# Certified l1 accuracy of the fixed point in `stationary`.
_FIXED_POINT_TOL = 1e-14
# `stationary` takes the fixed point when its step cap times its work per
# step, t* (nnz + K), is at most this fraction of the LU's K^3.
_FIXED_POINT_RATIO = 0.01
_LOG_LINE = "stationary: %s, %d steps, l1 bound %.1e"


def build_transition(y: RecMatrix, m: RequestModel) -> np.ndarray:
    """Assemble the request transition matrix ``a*Y + (1-a)*1 p0^T``.

    Rows are renormalized to kill the feasibility-tolerance dust a solver
    may have left in Y, so each row sums to 1 within 1e-12.
    """
    yv = np.asarray(y, dtype=float)
    p0 = np.asarray(m.popularity, dtype=float)
    if yv.shape != (p0.size, p0.size):
        raise ValueError(f"dimension mismatch: Y is {yv.shape}, popularity has {p0.size}")
    a = m.follow_prob
    p = a * yv + (1.0 - a) * p0[None, :]
    p /= p.sum(axis=1, keepdims=True)
    return p


def stationary(y: RecMatrix, m: RequestModel) -> StationaryVector:
    """Stationary distribution by the cheaper of two exact solvers.

    Solves ``pi^T (I - a Y) = (1 - a) p0^T`` by the fixed point
    ``pi <- (1-a) p0 + a Y^T pi`` from ``p0``, applying ``Y^T pi`` through
    Y's nonzeros in O(nnz + K) per step (a RecMatrix takes them once, for
    every caller). Y is row-stochastic, so the map
    contracts by `a` in l1, and step t is within both
    ``a/(1-a) ||pi_t - pi_(t-1)||_1`` and ``2 a^t`` of the solution. The
    loop stops once the first bound is at most 1e-14, and at the latest
    at the step t* where the second is, since roundoff can hold the first
    above it. When the cap's work ``t* (nnz + K)`` exceeds
    `_FIXED_POINT_RATIO` times K^3 (dense rows, or `a` near 1), the LU of
    `stationary_direct` is cheaper and is used instead. Either way the
    result is normalized and verified stationary to 1e-10 in the infinity
    norm. One DEBUG line per call gives the path, the step count and the
    certified l1 bound.
    """
    yv = np.asarray(y, dtype=float)
    p0 = np.asarray(m.popularity, dtype=float)
    a = m.follow_prob
    k = p0.size
    if yv.shape != (k, k):
        raise ValueError(f"dimension mismatch: Y is {yv.shape}, popularity has {k}")
    if a == 0.0:
        _log.debug(_LOG_LINE, "popularity", 0, 0.0)
        return StationaryVector(p0)
    t_cap = math.ceil(math.log(0.5 * _FIXED_POINT_TOL) / math.log(a))
    rows, cols, vals = _nonzeros(y)
    if t_cap * (vals.size + k) > _FIXED_POINT_RATIO * k**3:
        pi = stationary_direct(y, m)
        if _log.isEnabledFor(logging.DEBUG):
            # ||pi - pi*||_1 <= ||(I - a Y^T)^-1||_1 ||residual||_1 <= ||residual||_1 / (1-a)
            pv = np.asarray(pi)
            resid = np.abs(pv - a * (pv @ yv) - (1.0 - a) * p0).sum()
            _log.debug(_LOG_LINE, "lu", 0, resid / (1.0 - a))
        return pi

    ay = a * vals
    b = (1.0 - a) * p0

    def step(v):  # (1-a) p0 + a Y^T v
        return np.bincount(cols, ay * v[rows], k) + b

    pi = p0
    for t in range(1, t_cap + 1):
        nxt = step(pi)
        bound = min(a / (1.0 - a) * float(np.abs(nxt - pi).sum()), 2.0 * a**t)
        pi = nxt
        if bound <= _FIXED_POINT_TOL:
            break
    total = pi.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise np.linalg.LinAlgError(
            f"stationary fixed point produced an invalid distribution (sum={total!r})"
        )
    pi = pi / total
    resid = np.abs(pi - step(pi)).max()
    if resid > 1e-10:
        raise np.linalg.LinAlgError(
            f"stationary residual {resid:.3e} exceeds 1e-10 after {t} fixed-point steps"
        )
    _log.debug(_LOG_LINE, "fixed point", t, bound)
    pi = np.where(np.abs(pi) < 1e-15, np.abs(pi), pi)
    return StationaryVector(pi)


def stationary_direct(y: RecMatrix, m: RequestModel) -> StationaryVector:
    """Stationary distribution via a direct linear solve.

    Solves ``pi^T (I - a Y) = (1 - a) p0^T`` with an LU factorization
    (never an explicit inverse), normalizes, and verifies stationarity to
    1e-10 in the infinity norm.
    """
    yv = np.asarray(y, dtype=float)
    p0 = np.asarray(m.popularity, dtype=float)
    a = m.follow_prob
    k = p0.size
    # I - a Y^T, built in place: (-a Y)^T is already Fortran-ordered, so
    # the LU overwrites it without a copy.
    system = (-a * yv).T
    system[np.diag_indices(k)] += 1.0
    try:
        lu, piv = scipy.linalg.lu_factor(system, overwrite_a=True)
        pi = scipy.linalg.lu_solve((lu, piv), (1.0 - a) * p0)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - a<1 keeps it regular
        raise np.linalg.LinAlgError(
            f"stationary solve failed (a={a}): {exc}"
        ) from exc
    total = pi.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise np.linalg.LinAlgError(
            f"stationary solve produced an invalid distribution (sum={total!r})"
        )
    pi /= total
    step = a * (pi @ yv) + (1.0 - a) * p0
    resid = np.abs(pi - step).max()
    if resid > 1e-10:
        raise np.linalg.LinAlgError(
            f"stationary residual {resid:.3e} exceeds 1e-10; system is ill-conditioned"
        )
    # Direct solves can leave harmless negative dust when p0 has zeros.
    pi = np.where(np.abs(pi) < 1e-15, np.abs(pi), pi)
    return StationaryVector(pi)


def stationary_power(p: np.ndarray, tol: float = 1e-12, max_iter: int = 10000) -> StationaryVector:
    """Stationary distribution by power iteration from the uniform start.

    Iterates ``pi^T <- pi^T P`` until the l1 change drops to `tol`.
    Kept deliberately independent of `stationary_direct` so the two can
    cross-check each other.
    """
    pm = np.asarray(p, dtype=float)
    if pm.ndim != 2 or pm.shape[0] != pm.shape[1]:
        raise ValueError("transition matrix must be square")
    k = pm.shape[0]
    pi = np.full(k, 1.0 / k)
    for _ in range(max_iter):
        nxt = pi @ pm
        delta = np.abs(nxt - pi).sum()
        pi = nxt
        if delta <= tol:
            return StationaryVector(pi / pi.sum())
    raise RuntimeError(
        f"power iteration did not reach tol={tol:g} in {max_iter} iterations; "
        f"final l1 change {delta:.3e}"
    )


def expected_cost(pi, x) -> float:
    """Average per-request cost ``pi . x`` under a request distribution."""
    pv = np.asarray(pi, dtype=float)
    xv = np.asarray(x, dtype=float)
    if pv.shape != xv.shape:
        raise ValueError(f"dimension mismatch: {pv.shape} vs {xv.shape}")
    return float(pv @ xv)


def cache_hit_ratio(y: RecMatrix, m: RequestModel, cached) -> float:
    """Long-run fraction of requests served from the cache.

    Builds the indicator cost (0 on cached contents, 1 elsewhere) and
    returns one minus its expected cost under the stationary distribution
    from `stationary`. The displayed quantity is the hit ratio, not the
    miss cost.
    """
    k = m.size
    idx = np.fromiter((int(c) for c in cached), dtype=int) if len(cached) else np.empty(0, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ValueError("cached ids must index the catalog")
    x = np.ones(k)
    x[idx] = 0.0
    pi = stationary(y, m)
    chr_ = 1.0 - expected_cost(pi, x)
    return float(min(1.0, max(0.0, chr_)))


def quality_of(y: RecMatrix, u: SimilarityMatrix) -> np.ndarray:
    """Per-row recommendation quality ``sum_j y_ij u_ij``."""
    yv = np.asarray(y, dtype=float)
    uv = np.asarray(u, dtype=float)
    if yv.shape != uv.shape:
        raise ValueError(f"dimension mismatch: {yv.shape} vs {uv.shape}")
    return (yv * uv).sum(axis=1)
