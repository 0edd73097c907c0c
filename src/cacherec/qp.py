"""Convex QP/LP solver over the polytopes of the recommendation problem.

The feasible sets that occur here are boxes intersected with disjoint
sum constraints (a probability simplex; one sum per recommendation row)
plus optional general linear inequalities such as per-row quality floors.
`solve_qp` runs a first-order operator-splitting scheme: accelerated
projected gradient steps on the smooth part with exact projection onto
box + sum constraints, and augmented-Lagrangian dual ascent for the
remaining inequalities. Step size comes from a power-iteration estimate
of the quadratic operator norm and is halved whenever the objective
increases.

The exact projections (`project_simplex`, `project_row_polytope`) are
exposed on their own; the sort-based row projection behind the latter is
also the recommendation step's row solver in `cacherec.optim`.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QpProblem",
    "QpSolution",
    "InfeasiblePolytopeError",
    "solve_qp",
    "project_simplex",
    "project_row_polytope",
    "OPTIMAL",
    "MAXITER",
    "INFEASIBLE",
]

OPTIMAL = "Optimal"
MAXITER = "MaxIter"
INFEASIBLE = "Infeasible"


class InfeasiblePolytopeError(ValueError):
    """Raised when a projection target set is provably empty."""


# ---------------------------------------------------------------------------
# Exact projections
# ---------------------------------------------------------------------------

def project_simplex(v, target: float = 1.0) -> np.ndarray:
    """Euclidean projection onto ``{x : sum x = target, x >= 0}``.

    Uses the sort-and-threshold method: sort descending, locate the last
    prefix whose running average keeps the threshold below the sorted
    values, subtract and clip.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("project_simplex expects a vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    if target < 0.0:
        raise InfeasiblePolytopeError(f"simplex mass must be >= 0, got {target}")
    if target == 0.0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - target
    j = np.arange(1, v.size + 1)
    rho = np.nonzero(u * j > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _simplex_rows(w: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row-wise sort-and-threshold projection, vectorized over rows."""
    m, n = w.shape
    u = -np.sort(-w, axis=1)
    css = np.cumsum(u, axis=1) - targets[:, None]
    j = np.arange(1, n + 1)[None, :]
    cond = u * j > css
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(m), rho] / (rho + 1.0)
    out = np.maximum(w - theta[:, None], 0.0)
    out[targets <= 0.0] = 0.0
    return out


def _threshold_rows(
    w: np.ndarray,
    targets: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    tau0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exact projection onto ``{sum = target, lower <= x <= upper}``.

    The clipped-shift sum ``S(tau) = sum_j clip(w_j - tau, lo_j, hi_j)``
    is piecewise linear and non-increasing, so the shift solving
    ``S(tau) = target`` is found by a bracketed semismooth Newton
    iteration: each pass moves by the sum error over the count of
    unclamped coordinates and falls back to bisection whenever the
    proposal leaves the bracket or the active segment is flat. A warm
    ``tau0`` from a previous nearby projection typically converges in
    two or three passes.

    Returns the projected rows together with the per-row shifts.
    """
    lo_sum = lower.sum(axis=1)
    hi_sum = upper.sum(axis=1)
    if np.any(targets < lo_sum - 1e-9) or np.any(targets > hi_sum + 1e-9):
        bad = int(np.argmax((targets < lo_sum - 1e-9) | (targets > hi_sum + 1e-9)))
        raise InfeasiblePolytopeError(
            f"sum target {targets[bad]} outside [{lo_sum[bad]}, {hi_sum[bad]}] for row {bad}"
        )
    if not np.all(np.isfinite(lo_sum)):
        raise InfeasiblePolytopeError("sum-constrained coordinates need finite lower bounds")
    t = np.clip(targets, lo_sum, hi_sum)
    # Any feasible coordinate sits within (target - lo_sum) of its lower
    # bound, so infinite caps can be tightened to finite ones for free.
    hi_eff = np.minimum(upper, lower + (t - lo_sum)[:, None])
    rows, n = w.shape

    # S(tau_lo) = sum hi_eff >= t and S(tau_hi) = sum lower <= t
    tau_lo = (w - hi_eff).min(axis=1)
    tau_hi = (w - lower).max(axis=1)
    if tau0 is None:
        tau = (w.sum(axis=1) - t) / n
    else:
        tau = np.array(tau0, dtype=np.float64, copy=True)
    np.clip(tau, tau_lo, tau_hi, out=tau)
    # the row sums themselves carry O(n eps) roundoff, so demanding more
    # would spin the bracket down to its floating-point floor every call
    tol = (n * np.finfo(np.float64).eps) * np.maximum(
        1.0, np.maximum(np.abs(t), np.maximum(np.abs(lo_sum), np.abs(hi_eff.sum(axis=1))))
    )
    x = np.empty_like(w)
    for _ in range(128):
        np.clip(w - tau[:, None], lower, hi_eff, out=x)
        err = x.sum(axis=1) - t
        done = np.abs(err) <= tol
        done |= (tau_hi - tau_lo) <= np.finfo(np.float64).eps * np.maximum(
            1.0, np.maximum(np.abs(tau_lo), np.abs(tau_hi))
        )
        if done.all():
            break
        live = ~done
        grow = (err > 0.0) & live
        tau_lo = np.where(grow, tau, tau_lo)
        tau_hi = np.where(live & ~grow, tau, tau_hi)
        n_free = ((x > lower) & (x < hi_eff)).sum(axis=1).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            prop = tau + err / n_free
        outside = ~np.isfinite(prop) | (prop <= tau_lo) | (prop >= tau_hi)
        prop = np.where(outside, 0.5 * (tau_lo + tau_hi), prop)
        tau = np.where(live, prop, tau)
    else:
        np.clip(w - tau[:, None], lower, hi_eff, out=x)
    return x, tau


def _project_capped(v: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Exact projection of ``v`` onto ``{y : sum y = 1, 0 <= y <= upper}``.

    The projection is ``clip(v - tau, 0, upper)`` for the shift ``tau`` at
    which the clipped sum ``S(tau)`` equals 1. S is continuous, piecewise
    linear and nonincreasing, with breakpoints at ``v_j`` and
    ``v_j - upper_j``. As in the capped-simplex projection of Wang & Lu
    (arXiv:1503.01002), one sort of the breakpoints evaluates S at all of
    them; the root lies on the linear piece after the last breakpoint with
    ``S >= 1`` and is solved there in closed form. Needs ``sum(upper) >= 1``.
    """
    k = v.size
    # the projection commutes with shifting v, and the sums below lose
    # precision with the magnitude of v: measure from its largest entry
    v = v - v.max()
    t = np.concatenate((v, v - upper))
    order = np.argsort(t)
    ts = t[order]
    at_cap = order >= k
    # S(t) = sum_{v_j > t} (v_j - t) - sum_{v_j - upper_j > t} (v_j - upper_j - t).
    # A breakpoint equal to t adds zero to either sum, so ties may sort in any
    # order. The sums over larger breakpoints accumulate from the top, where
    # the entries are small.
    n_cap = np.cumsum(at_cap)
    n_low = np.arange(1, 2 * k + 1) - n_cap
    above = np.cumsum(np.where(at_cap, -ts, ts)[::-1])[::-1]
    s = np.append(above[1:], 0.0) - (n_cap - n_low) * ts
    j = max(int(np.count_nonzero(s >= 1.0)) - 1, 0)
    free = int(n_cap[j] - n_low[j])
    tau = ts[j] + (s[j] - 1.0) / free if free > 0 else ts[j]
    return np.minimum(np.maximum(v - tau, 0.0), upper)


def project_row_polytope(v, list_size: int, self_idx: int) -> np.ndarray:
    """Project a row onto ``{y : sum y = 1, 0 <= y <= 1/N, y[self_idx] = 0}``.

    Exact sort-based search for the sum-constraint shift; the pinned
    coordinate is handled as a zero-width box.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("project_row_polytope expects a vector")
    k = v.size
    n = int(list_size)
    if n < 1:
        raise ValueError("list size must be >= 1")
    if not (0 <= self_idx < k):
        raise ValueError(f"self index {self_idx} out of range for K={k}")
    if (k - 1) < n:
        raise InfeasiblePolytopeError(
            f"row polytope is empty: need (K-1)/N >= 1, got K={k}, N={n}"
        )
    upper = np.full(k, 1.0 / n)
    upper[self_idx] = 0.0
    return _project_capped(v, upper)


# ---------------------------------------------------------------------------
# Problem and solution containers
# ---------------------------------------------------------------------------

@dataclass
class QpProblem:
    """``min 0.5 v'Qv + c'v`` over box + disjoint sum constraints + ``Gv >= h``.

    Parameters
    ----------
    linear : ndarray
        Linear coefficient c.
    quadratic : ndarray or callable or None
        Symmetric PSD operator Q, as an explicit matrix or a matvec
        closure; None means a linear program.
    groups : sequence of index arrays, optional
        Disjoint coordinate groups, each carrying one sum constraint.
    group_targets : ndarray, optional
        Required sum per group.
    lower, upper : float or ndarray
        Box bounds, broadcast to the variable size.
    inequalities : (G, h) or (matvec, rmatvec, h), optional
        Constraints ``Gv >= h``; G may be given as closures.
    """

    linear: np.ndarray
    quadratic: object = None
    groups: object = None
    group_targets: object = None
    lower: object = -np.inf
    upper: object = np.inf
    inequalities: object = None

    def __post_init__(self):
        c = np.asarray(self.linear, dtype=float)
        if c.ndim != 1:
            raise ValueError("linear coefficient must be a vector")
        self.linear = c
        n = c.size
        if isinstance(self.quadratic, np.ndarray):
            q = self.quadratic
            if q.shape != (n, n):
                raise ValueError(f"quadratic has shape {q.shape}, expected {(n, n)}")
            scale = 1.0 + np.abs(q).max()
            if np.abs(q - q.T).max() > 1e-10 * scale:
                raise ValueError("quadratic matrix must be symmetric")
            if n <= 1500:
                lam_min = float(np.linalg.eigvalsh(q)[0])
                if lam_min < -1e-8:
                    raise ValueError(
                        f"quadratic matrix is not PSD (min eigenvalue {lam_min:.3e})"
                    )
        if self.groups is not None:
            groups = [np.asarray(g, dtype=int) for g in self.groups]
            seen = np.concatenate(groups) if groups else np.empty(0, dtype=int)
            if seen.size != np.unique(seen).size:
                raise ValueError("sum-constraint groups must be disjoint")
            if seen.size and (seen.min() < 0 or seen.max() >= n):
                raise ValueError("group indices out of range")
            self.groups = groups
            self.group_targets = np.asarray(self.group_targets, dtype=float)
            if self.group_targets.size != len(groups):
                raise ValueError("one target per group required")

    @property
    def size(self) -> int:
        return self.linear.size


@dataclass
class QpSolution:
    """Solver output with the verified KKT residuals."""

    point: np.ndarray
    objective: float
    primal_residual: float
    iterations: int
    status: str
    stationarity_residual: float = np.nan
    complementarity_residual: float = np.nan
    multipliers: np.ndarray | None = None
    message: str = ""


# ---------------------------------------------------------------------------
# Internal machinery
# ---------------------------------------------------------------------------

class _Projector:
    """Exact projection onto box + disjoint group-sum constraints."""

    def __init__(self, n, groups, targets, lower, upper):
        self.n = n
        self.lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy()
        if np.any(self.lower > self.upper + 1e-15):
            raise InfeasiblePolytopeError("box is empty: lower > upper")
        self.groups = groups or []
        self.targets = np.asarray(targets, dtype=float) if len(self.groups) else np.empty(0)
        mask = np.zeros(n, dtype=bool)
        for g in self.groups:
            mask[g] = True
        self.free = ~mask
        # Fast path: groups partition the coordinates into equal contiguous
        # rows, which lets one batched projection handle every group.
        self.row_shape = None
        self.simple_rows = False
        self._tau_rows = None
        if self.groups:
            sizes = {g.size for g in self.groups}
            if len(sizes) == 1 and not self.free.any():
                width = sizes.pop()
                flat = np.concatenate(self.groups)
                if np.array_equal(flat, np.arange(n)):
                    self.row_shape = (len(self.groups), width)
                    lo = self.lower.reshape(self.row_shape)
                    hi = self.upper.reshape(self.row_shape)
                    # When caps cannot bind (entries of a nonnegative row
                    # summing to the target never exceed it), the plain
                    # simplex rule is exact and cheaper.
                    self.simple_rows = bool(
                        np.all(lo == 0.0) and np.all(self.targets <= hi.min(axis=1))
                    )
        for g, t in zip(self.groups, self.targets):
            lo_s, hi_s = self.lower[g].sum(), self.upper[g].sum()
            if t < lo_s - 1e-9 or t > hi_s + 1e-9:
                raise InfeasiblePolytopeError(
                    f"group sum {t} outside attainable range [{lo_s}, {hi_s}]"
                )

    def __call__(self, w: np.ndarray) -> np.ndarray:
        if not self.groups:
            return np.clip(w, self.lower, self.upper)
        if self.row_shape is not None:
            m, width = self.row_shape
            wm = w.reshape(m, width)
            if self.simple_rows:
                out = _simplex_rows(wm, self.targets)
            else:
                out, self._tau_rows = _threshold_rows(
                    wm, self.targets,
                    self.lower.reshape(m, width), self.upper.reshape(m, width),
                    tau0=self._tau_rows,
                )
            return out.reshape(-1)
        out = np.clip(w, self.lower, self.upper)
        for g, t in zip(self.groups, self.targets):
            lo, hi = self.lower[g], self.upper[g]
            if np.all(lo == 0.0) and np.all(np.isinf(hi)):
                out[g] = project_simplex(w[g], t)
            elif np.all(lo == 0.0) and t <= hi.min():
                out[g] = project_simplex(w[g], t)
            else:
                out[g] = _threshold_rows(w[g][None, :], np.array([t]), lo[None, :], hi[None, :])[0][0]
        return out

    def max_violation(self, v: np.ndarray) -> float:
        box = max(float((self.lower - v).max(initial=0.0)), float((v - self.upper).max(initial=0.0)))
        grp = 0.0
        for g, t in zip(self.groups, self.targets):
            grp = max(grp, abs(float(v[g].sum()) - t))
        return max(box, grp)


def _as_matvec(q):
    if q is None:
        return None
    if isinstance(q, np.ndarray):
        return lambda v: q @ v
    if callable(q):
        return q
    raise TypeError(f"unsupported quadratic operator of type {type(q)!r}")


def _ineq_maps(spec):
    """Normalize the inequality spec to (matvec, rmatvec, h)."""
    if spec is None:
        return None, None, None
    if len(spec) == 2:
        g, h = spec
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        return (lambda v: g @ v), (lambda w: g.T @ w), h
    gmv, grmv, h = spec
    return gmv, grmv, np.asarray(h, dtype=float)


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


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def solve_qp(
    problem: QpProblem,
    tol: float = 1e-7,
    max_iter: int = 50000,
    x0: np.ndarray | None = None,
    trace=None,
) -> QpSolution:
    """Solve the QP/LP by projected accelerated gradient plus dual ascent.

    Box and group-sum constraints are enforced exactly at every iterate
    through the projection; general inequalities enter an augmented
    Lagrangian whose multipliers are updated by dual ascent whenever the
    inner minimization has converged far enough.

    Parameters
    ----------
    problem : QpProblem
    tol : float
        Target for the KKT residuals (scaled by 1 + |objective| for the
        stationarity and complementarity parts).
    max_iter : int
        Global cap on gradient steps, counting rejected ones.
    x0 : ndarray, optional
        Warm start for the point.
    trace : path or file-like, optional
        When given, convergence checkpoints are streamed as CSV rows
        ``iteration,objective,primal_residual``.

    Returns
    -------
    QpSolution
        Status is Optimal once stationarity <= tol*(1+|f|), primal
        feasibility <= tol and complementarity <= tol*(1+|f|) all hold;
        MaxIter or Infeasible otherwise, with diagnostics filled in.
    """
    c = problem.linear
    n = c.size
    qmv = _as_matvec(problem.quadratic)
    gmv, grmv, h = _ineq_maps(problem.inequalities)

    try:
        proj = _Projector(n, problem.groups, problem.group_targets, problem.lower, problem.upper)
    except InfeasiblePolytopeError as exc:
        return QpSolution(
            point=np.full(n, np.nan), objective=np.nan, primal_residual=np.inf,
            iterations=0, status=INFEASIBLE, message=str(exc),
        )

    x = proj(np.clip(np.zeros(n), proj.lower, proj.upper) if x0 is None else np.asarray(x0, dtype=float))
    mu = np.zeros(h.size) if h is not None else None

    # Step sizing from operator-norm estimates of each smooth piece.
    lq = _op_norm(qmv, n) if qmv is not None else 0.0
    lg = _op_norm(lambda v: grmv(gmv(v)), n) if h is not None else 0.0
    beta = max(1.0, lq) / lg if (h is not None and lg > 0.0) else 0.0
    lips = lq + beta * lg
    if lips > 0.0:
        step = 1.0 / lips
        momentum = True
    else:
        # Pure LP over the projectable set: any fixed step yields a
        # convergent averaged iteration; scale it to the gradient.
        step = 1.0 / max(1.0, float(np.linalg.norm(c)))
        momentum = False
    step0 = step

    trace_fh = None
    close_trace = False
    if trace is not None:
        if hasattr(trace, "write"):
            trace_fh = trace
        else:
            trace_fh = open(trace, "w", encoding="utf-8")
            close_trace = True
        trace_fh.write("iteration,objective,primal_residual\n")

    def smooth(v, want_grad=True):
        """Objective plus augmented penalty for the current multipliers."""
        f = float(c @ v)
        g = c.copy() if want_grad else None
        if qmv is not None:
            qv = qmv(v)
            f += 0.5 * float(v @ qv)
            if want_grad:
                g += qv
        if h is not None:
            s = gmv(v) - h
            act = np.maximum(mu - beta * s, 0.0)
            f += (float(act @ act) - float(mu @ mu)) / (2.0 * beta)
            if want_grad:
                g -= grmv(act)
        return f, g

    def objective(v):
        f = float(c @ v)
        if qmv is not None:
            f += 0.5 * float(v @ qmv(v))
        return f

    def kkt(v):
        """Stationarity / primal / complementarity residuals at v."""
        g = c.copy()
        if qmv is not None:
            g += qmv(v)
        comp = 0.0
        primal = proj.max_violation(v)
        if h is not None:
            s = gmv(v) - h
            g -= grmv(mu)
            primal = max(primal, float(np.maximum(h - gmv(v), 0.0).max(initial=0.0)))
            comp = float(np.abs(mu * s).max(initial=0.0))
        tau = min(step, 1.0)
        stat = float(np.abs(v - proj(v - tau * g)).max()) / tau
        return stat, primal, comp

    def feasibility_probe(v0, budget, target):
        """Minimize raw constraint violation over the projectable set.

        Used as the arbiter before any infeasibility claim: a projected
        gradient descent on half the squared violation of the dualized
        constraints, which converges to zero iff the full set intersects
        the box/group polytope.
        """
        rate = 1.0 / max(lg, 1e-12)

        def viol_of(w):
            return float(np.maximum(h - gmv(w), 0.0).max(initial=0.0))

        v = v0.copy()
        best_v, best_viol = v.copy(), viol_of(v)
        used = 0
        while used < budget and best_viol > target:
            v = proj(v - rate * grmv(np.minimum(gmv(v) - h, 0.0)))
            used += 1
            w = viol_of(v)
            if w < best_viol:
                best_viol, best_v = w, v.copy()
        return best_v, best_viol, used

    has_duals = h is not None
    inner_cap = 400 if has_duals else max_iter
    beta_cap = beta * 1e8 if beta > 0 else 0.0

    it = 0
    status = MAXITER
    message = ""
    stall_count = 0
    feas_certified = False
    viol_prev = np.inf if has_duals else 0.0
    f_cur, _ = smooth(x, want_grad=False)
    y = x.copy()
    t_mom = 1.0

    while it < max_iter:
        # A fresh step per dual round: halvings in one round (safety net
        # for operator-norm underestimates) must not freeze later rounds.
        if has_duals and lips > 0.0:
            step = 1.0 / lips
        step_floor = step * 2.0 ** -48
        inner_left = min(inner_cap, max_iter - it)
        inner_done = 0
        # Inner loop: monotone accelerated projected gradient for fixed duals.
        while inner_done < inner_left:
            fy, gy = smooth(y)
            x_new = proj(y - step * gy)
            f_new, _ = smooth(x_new, want_grad=False)
            it += 1
            inner_done += 1
            if f_new > f_cur + 1e-12 * (1.0 + abs(f_cur)):
                # Objective went up: halve the step and restart momentum.
                step *= 0.5
                y = x.copy()
                t_mom = 1.0
                if step < step_floor:
                    break
                continue
            if momentum:
                t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
                y = x_new + ((t_mom - 1.0) / t_next) * (x_new - x)
                t_mom = t_next
            else:
                y = x_new
            moved = float(np.abs(x_new - x).max())
            x = x_new
            f_cur = f_new
            if inner_done % 10 == 0 or moved <= 1e-16 * (1.0 + np.abs(x).max()):
                _, gx = smooth(x)
                tau = min(step, 1.0)
                resid = float(np.abs(x - proj(x - tau * gx)).max()) / tau
                if resid <= max(tol, 0.05 * min(viol_prev, 1.0)) * (1.0 + abs(f_cur)):
                    break

        # Dual ascent and convergence bookkeeping.
        if h is not None:
            s = gmv(x) - h
            mu = np.maximum(mu - beta * s, 0.0)
        f_cur, _ = smooth(x, want_grad=False)

        stat, primal, comp = kkt(x)
        obj = objective(x)
        if trace_fh is not None:
            trace_fh.write(f"{it},{obj!r},{primal!r}\n")
        scale = 1.0 + abs(obj)
        if stat <= tol * scale and primal <= tol and comp <= tol * scale:
            status = OPTIMAL
            break
        if not has_duals:
            if it >= max_iter or step < step0 * 2.0 ** -48:
                message = f"stationarity {stat:.3e} after {it} steps"
                break
            continue

        viol = primal
        if viol > 0.5 * viol_prev and viol > tol:
            # Violation is not halving per round: raise the penalty so
            # the dual update (whose step is the penalty itself) bites
            # harder. Growth is kept moderate because the penalty also
            # multiplies the smooth Lipschitz constant.
            if beta > 0 and beta < beta_cap:
                beta *= 2.0
                lips = lq + beta * lg
        if viol > 0.99 * viol_prev - 1e-16:
            stall_count += 1
        else:
            stall_count = 0
        if stall_count >= 8 and viol > 10.0 * tol and not feas_certified:
            # Dual ascent is stuck well away from feasibility. Decide
            # whether the constraint set is actually empty by minimizing
            # the violation directly; only a probe that cannot even halve
            # the stalled violation justifies an infeasibility verdict.
            target = 10.0 * tol
            px, pviol, used = feasibility_probe(x, min(3000, max_iter - it), target)
            it += used
            if pviol <= target:
                feas_certified = True
            elif pviol > 100.0 * tol and pviol > 0.5 * viol:
                status = INFEASIBLE
                message = f"feasibility restoration stalled at {pviol:.3e}"
                break
            x = proj(px)
            y = x.copy()
            t_mom = 1.0
            f_cur, _ = smooth(x, want_grad=False)
            stall_count = 0
            viol_prev = np.inf
            continue
        viol_prev = viol

    stat, primal, comp = kkt(x)
    obj = objective(x)
    if status == MAXITER:
        message = message or (
            f"stopped after {it} steps: stationarity {stat:.3e}, primal {primal:.3e}"
        )
    if trace_fh is not None:
        trace_fh.write(f"{it},{obj!r},{primal!r}\n")
        if close_trace:
            trace_fh.close()
    return QpSolution(
        point=x,
        objective=obj,
        primal_residual=primal,
        iterations=it,
        status=status,
        stationarity_residual=stat,
        complementarity_residual=comp,
        multipliers=None if mu is None else mu.copy(),
        message=message,
    )
