"""Markov-chain mathematics of the sequential request model.

The request chain mixes the recommendation matrix with the baseline
popularity: ``P = a * Y + (1 - a) * 1 p0^T``. This module builds that
transition matrix, solves for its stationary distribution (directly and
by power iteration, which doubles as an independent oracle), and
evaluates the cost and quality metrics defined on top of it.
"""

import numpy as np
import scipy.linalg

from .model import CostVector, RecMatrix, RequestModel, SimilarityMatrix, StationaryVector

__all__ = [
    "build_transition",
    "stationary_direct",
    "stationary_power",
    "expected_cost",
    "cache_hit_ratio",
    "quality_of",
]


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
    returns one minus the expected stationary cost. The displayed
    quantity is the hit ratio, not the miss cost.
    """
    k = m.size
    idx = np.fromiter((int(c) for c in cached), dtype=int) if len(cached) else np.empty(0, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ValueError("cached ids must index the catalog")
    x = np.ones(k)
    x[idx] = 0.0
    pi = stationary_direct(y, m)
    chr_ = 1.0 - expected_cost(pi, x)
    return float(min(1.0, max(0.0, chr_)))


def quality_of(y: RecMatrix, u: SimilarityMatrix) -> np.ndarray:
    """Per-row recommendation quality ``sum_j y_ij u_ij``."""
    yv = np.asarray(y, dtype=float)
    uv = np.asarray(u, dtype=float)
    if yv.shape != uv.shape:
        raise ValueError(f"dimension mismatch: {yv.shape} vs {uv.shape}")
    return (yv * uv).sum(axis=1)
