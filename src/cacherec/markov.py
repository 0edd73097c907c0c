"""Markov-chain mathematics of the sequential request model.

The request chain mixes the recommendation matrix with the baseline
popularity: ``P = a * Y + (1 - a) * 1 p0^T``; `_chain` applies P and P^T
through Y's nonzeros for this module and for the CARS steps. `stationary`
is the solver the optimizers and metrics call: it iterates
``pi <- P^T pi`` to a certified l1 accuracy, unless a dense LU
(`stationary_direct`) is the cheaper of the two; both end in one check.
The module also evaluates the cost and quality metrics of the chain.
"""

import logging
import math

import numpy as np

from .model import (
    CostVector,
    RecMatrix,
    RequestModel,
    SimilarityMatrix,
    StationaryVector,
    _cache_index,
    _nonzeros,
    _shape,
)

__all__ = [
    "stationary",
    "stationary_direct",
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


def _chain(y, m: RequestModel):
    """``v -> P v`` and ``v -> P^T v`` for ``P = a Y + (1-a) 1 p0^T``.

    Both apply Y through its nonzeros, in O(nnz + K) each; a RecMatrix
    holds them from its construction, for every caller.
    """
    rows, cols, vals = _nonzeros(y)
    p0 = np.asarray(m.popularity, dtype=float)
    a = m.follow_prob
    k = p0.size
    ay = a * vals

    def p_vec(v):
        return np.bincount(rows, ay * v[cols], k) + (1.0 - a) * float(p0 @ v)

    def pt_vec(v):
        return np.bincount(cols, ay * v[rows], k) + ((1.0 - a) * v.sum()) * p0

    return p_vec, pt_vec


def _verified(pi, pt_vec, solve: str) -> StationaryVector:
    """`pi` scaled to sum 1, verified to satisfy ``pi = P^T pi`` to 1e-10 in
    the infinity norm, and cleared of the negative dust a solve can leave
    where p0 has zeros; errors name the `solve`."""
    total = pi.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise np.linalg.LinAlgError(
            f"stationary {solve} produced an invalid distribution (sum={total})"
        )
    pi = pi / total
    resid = np.abs(pi - pt_vec(pi)).max()
    if resid > 1e-10:
        raise np.linalg.LinAlgError(
            f"stationary residual {resid:.3e} exceeds 1e-10 after the {solve}"
        )
    return StationaryVector(np.where(np.abs(pi) < 1e-15, np.abs(pi), pi))


def stationary(y: RecMatrix, m: RequestModel) -> StationaryVector:
    """Stationary distribution by the cheaper of two exact solvers.

    Solves ``pi^T (I - a Y) = (1 - a) p0^T`` by the power iteration
    ``pi <- P^T pi`` from ``p0``, applying ``P^T`` through `_chain` in
    O(nnz + K) per step. Y is row-stochastic, so the map
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
    p0 = np.asarray(m.popularity, dtype=float)
    a = m.follow_prob
    k = p0.size
    if _shape(y) != (k, k):
        raise ValueError(f"dimension mismatch: Y is {_shape(y)}, popularity has {k}")
    if a == 0.0:
        _log.debug(_LOG_LINE, "popularity", 0, 0.0)
        return StationaryVector(p0)
    t_cap = math.ceil(math.log(0.5 * _FIXED_POINT_TOL) / math.log(a))
    if t_cap * (_nonzeros(y)[2].size + k) > _FIXED_POINT_RATIO * k**3:
        pi = stationary_direct(y, m)
        if _log.isEnabledFor(logging.DEBUG):
            # ||pi - pi*||_1 <= ||(I - a Y^T)^-1||_1 ||residual||_1 <= ||residual||_1 / (1-a)
            pv = np.asarray(pi)
            resid = np.abs(pv - _chain(y, m)[1](pv)).sum()
            _log.debug(_LOG_LINE, "lu", 0, resid / (1.0 - a))
        return pi

    _, pt_vec = _chain(y, m)
    pi = p0
    for t in range(1, t_cap + 1):
        nxt = pt_vec(pi)
        bound = min(a / (1.0 - a) * float(np.abs(nxt - pi).sum()), 2.0 * a**t)
        pi = nxt
        if bound <= _FIXED_POINT_TOL:
            break
    pi = _verified(pi, pt_vec, f"fixed point ({t} steps)")
    _log.debug(_LOG_LINE, "fixed point", t, bound)
    return pi


def stationary_direct(y: RecMatrix, m: RequestModel) -> StationaryVector:
    """Stationary distribution via a direct linear solve.

    Solves ``pi^T (I - a Y) = (1 - a) p0^T`` with ``np.linalg.solve``, a
    partial-pivot LU factorization (LAPACK ``gesv``, never an explicit
    inverse), normalizes, and verifies stationarity to 1e-10 in the
    infinity norm.
    """
    yv = np.asarray(y, dtype=float)
    p0 = np.asarray(m.popularity, dtype=float)
    a = m.follow_prob
    k = p0.size
    system = (-a * yv).T  # I - a Y^T
    system[np.diag_indices(k)] += 1.0
    try:
        pi = np.linalg.solve(system, (1.0 - a) * p0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - a<1 keeps it regular
        raise np.linalg.LinAlgError(
            f"stationary solve failed (a={a}): {exc}"
        ) from exc
    return _verified(pi, _chain(y, m)[1], f"LU solve (a={a})")


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
    x = np.ones(m.size)
    x[_cache_index(cached, m.size)] = 0.0
    pi = stationary(y, m)
    chr_ = 1.0 - expected_cost(pi, x)
    return float(min(1.0, max(0.0, chr_)))


def quality_of(y: RecMatrix, u: SimilarityMatrix) -> np.ndarray:
    """Per-row recommendation quality ``sum_j y_ij u_ij``, summed over the
    nonzeros of Y."""
    uv = np.asarray(u, dtype=float)
    if _shape(y) != uv.shape:
        raise ValueError(f"dimension mismatch: {_shape(y)} vs {uv.shape}")
    rows, cols, vals = _nonzeros(y)
    return np.bincount(rows, vals * uv[rows, cols], uv.shape[0])
