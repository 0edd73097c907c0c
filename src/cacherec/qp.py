"""Convex QP solver over the probability simplex, and exact projections.

`solve_qp` minimizes ``0.5 v'Qv + c'v`` over ``{v >= 0, sum v = 1}``, the
distribution step of the stationary-cost policy in `cacherec.optim`. It
runs monotone accelerated projected gradient steps with the exact
sort-and-threshold projection of `project_simplex`; the step size comes
from a power-iteration estimate of the quadratic operator norm and is
halved whenever the objective increases. The quadratic term is a
matvec ``v -> Qv`` of a nonzero operator that must be linear, since each
step applies it once and blends earlier products for the rest.

The sort-based projection onto a capped simplex of any total,
`_project_capped`, is the recommendation step's row solver in
`cacherec.optim`; it also returns its shift, which tells the
recommendation step's two-valued rows whether their floor binds.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QpSolution",
    "solve_qp",
    "project_simplex",
    "OPTIMAL",
    "MAXITER",
]

OPTIMAL = "Optimal"
MAXITER = "MaxIter"


# ---------------------------------------------------------------------------
# Exact projections
# ---------------------------------------------------------------------------

def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the simplex ``{x : sum x = 1, x >= 0}``.

    Uses the sort-and-threshold method: sort descending, locate the last
    prefix whose running average keeps the threshold below the sorted
    values, subtract and clip.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("project_simplex expects a vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    j = np.arange(1, v.size + 1)
    rho = np.nonzero(u * j > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _project_capped(v: np.ndarray, upper: np.ndarray, total: float = 1.0):
    """Exact projection of ``v`` onto ``{y : sum y = total, 0 <= y <= upper}``.

    The projection is ``clip(v - tau, 0, upper)`` for a shift ``tau`` at
    which the clipped sum ``S(tau)`` equals `total`. S is continuous, piecewise
    linear and nonincreasing, with breakpoints at ``v_j`` and
    ``v_j - upper_j``. As in the capped-simplex projection of Wang & Lu
    (arXiv:1503.01002), one sort of the breakpoints evaluates S at all of
    them; the root lies on the linear piece after the last breakpoint with
    ``S >= total`` and is solved there in closed form. Needs
    ``0 <= total <= sum(upper)``. Returns the projection and its shift:
    the largest one when no entry is strictly inside its box, or ``max v``
    when `total` is zero.
    """
    k = v.size
    # the projection commutes with shifting v, and the sums below lose
    # precision with the magnitude of v: measure from its largest entry
    v_max = v.max()
    v = v - v_max
    t = np.concatenate((v, v - upper))
    order = np.argsort(t)
    ts = t[order]
    # S(t) = sum_{v_j > t} (v_j - t) - sum_{v_j - upper_j > t} (v_j - upper_j - t).
    # A breakpoint equal to t adds zero to either sum, so ties may sort in any
    # order. The sums over larger breakpoints accumulate from the top, where
    # the entries are small. On the piece after each breakpoint S has slope
    # minus the number of entries strictly inside their box.
    sign = np.where(order >= k, -1.0, 1.0)
    slope = np.cumsum(sign)
    above = np.cumsum((sign * ts)[::-1])[::-1]
    s = slope * ts
    s[:-1] += above[1:]
    j = max(int(np.count_nonzero(s >= total)) - 1, 0)
    f = -int(slope[j])
    tau = ts[j] + (s[j] - total) / f if f > 0 else ts[j]
    return np.minimum(np.maximum(v - tau, 0.0), upper), float(v_max + tau)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass
class QpSolution:
    """Solver output with the verified optimality residuals."""

    point: np.ndarray
    objective: float
    primal_residual: float
    iterations: int
    status: str
    stationarity_residual: float = np.nan
    message: str = ""


def _op_norm(matvec, n: int, iters: int = 30) -> float:
    """Power-iteration estimate of a symmetric PSD operator's norm."""
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v) + 1e-300
    lam = 0.0
    for _ in range(iters):
        w = matvec(v)
        lam = float(np.linalg.norm(w))
        if lam <= 1e-300:
            return 0.0
        v = w / lam
    return lam * 1.05


def solve_qp(
    linear,
    quadratic,
    tol: float = 1e-7,
    max_iter: int = 50000,
    x0: np.ndarray | None = None,
) -> QpSolution:
    """Minimize ``0.5 v'Qv + c'v`` over the simplex by accelerated gradient.

    Every iterate is projected onto the simplex exactly, so the primal
    residual only carries roundoff. `quadratic` must be linear: a step
    applies it once, to the new iterate, and the momentum point's product
    is the blend ``Qx_new + beta (Qx_new - Qx)`` of the iterates'
    products, which the residual checks reuse too. A solve applies it
    ``iterations + 31`` times at most: 30 for the step size, one at the
    start, one per step.

    Parameters
    ----------
    linear : ndarray
        Linear coefficient c.
    quadratic : callable
        Matvec ``v -> Qv`` of a nonzero symmetric PSD operator Q.
    tol : float
        Target for the projected-gradient stationarity residual (scaled by
        1 + |objective|) and for the primal residual.
    max_iter : int
        Global cap on gradient steps, counting rejected ones.
    x0 : ndarray, optional
        Warm start for the point; projected onto the simplex first.

    Returns
    -------
    QpSolution
        Status is Optimal once stationarity <= tol*(1+|f|) and primal
        feasibility <= tol both hold; MaxIter otherwise, with the
        residuals in the message.

    Raises
    ------
    ValueError
        If the norm estimate of Q is 0, which leaves no step size.
    """
    c = np.asarray(linear, dtype=float)
    n = c.size
    x = project_simplex(np.zeros(n) if x0 is None else x0)
    lq = _op_norm(quadratic, n)
    if lq == 0.0:
        raise ValueError("quadratic operator is zero: no step size")
    step = 1.0 / lq

    def objective(v, qv):
        return float(c @ v) + 0.5 * float(v @ qv)

    def residuals(v, qv):
        """Stationarity and primal residuals at v, given ``qv = Qv``."""
        tau = min(step, 1.0)
        stat = float(np.abs(v - project_simplex(v - tau * (c + qv))).max()) / tau
        primal = max(float(-v.min()), float(v.max()) - 1.0, abs(float(v.sum()) - 1.0))
        return stat, primal

    step_floor = step * 2.0 ** -48
    qx = quadratic(x)
    f_cur = objective(x, qx)
    y, qy = x, qx
    t_mom = 1.0
    it = 0
    while it < max_iter:
        x_new = project_simplex(y - step * (c + qy))
        qx_new = quadratic(x_new)
        f_new = objective(x_new, qx_new)
        it += 1
        if f_new > f_cur + 1e-12 * (1.0 + abs(f_cur)):
            # Objective went up: halve the step and restart momentum.
            step *= 0.5
            y, qy = x, qx
            t_mom = 1.0
            if step < step_floor:
                break
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        beta = (t_mom - 1.0) / t_next
        y = x_new + beta * (x_new - x)
        qy = qx_new + beta * (qx_new - qx)
        t_mom = t_next
        moved = float(np.abs(x_new - x).max())
        x, qx, f_cur = x_new, qx_new, f_new
        if it % 10 == 0 or moved <= 1e-16 * (1.0 + np.abs(x).max()):
            if residuals(x, qx)[0] <= tol * (1.0 + abs(f_cur)):
                break

    stat, primal = residuals(x, qx)
    if stat <= tol * (1.0 + abs(f_cur)) and primal <= tol:
        status, message = OPTIMAL, ""
    else:
        status, message = MAXITER, f"stationarity {stat:.3e} after {it} steps"
    return QpSolution(
        point=x,
        objective=f_cur,
        primal_residual=primal,
        iterations=it,
        status=status,
        stationarity_residual=stat,
        message=message,
    )
