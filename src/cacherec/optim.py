"""Recommendation-matrix optimizers.

Two policies are provided. The myopic policy minimizes the expected cost
of the next request only; it decomposes into one small LP per row,
solved exactly by a parametric greedy that walks the breakpoints of the
row's dual in the quality multiplier until it reaches the kink where the
selected quality crosses the floor. The stationary policy (`cars_solve`)
minimizes the long-run cost by alternating convex minimizations of an
augmented Lagrangian in which the stationarity condition of the request
chain enters as a penalized equality residual. Its distribution step is
a QP over the probability simplex, solved iteratively by `solve_qp` with
the transition operator applied through the nonzeros of Y, so a
gradient step costs O(nnz(Y) + K) rather than O(K^2); a distribution
step stopped at its step cap logs a warning. Its
recommendation step needs no general QP: the penalized objective depends
on Y only through ``Y^T pi``, so a block descent solves it row by row,
each row an exact projection onto its polytope with the quality floor.
Each row's projections run only over its candidates: the entries with a
positive similarity, and those whose target lies less than one cap
``1/N`` below the target's N-th largest entry. Adding the floor
multiplier times the nonnegative similarities cannot lower that N-th
entry, so the projection's shift stays at or above the cut and no other
entry gets mass. A row thus costs a few O(K) passes (one partition
finds the cut) plus projections over about as many entries as it has
related items, instead of sorts over all 2K breakpoints.
The true cost of each iterate comes from `markov.stationary`.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .markov import expected_cost, stationary
from .model import (
    CostVector,
    RecMatrix,
    RequestModel,
    SimilarityMatrix,
    StationaryVector,
    _nonzeros,
)
from .qp import MAXITER, _project_capped, solve_qp

__all__ = [
    "OptimInputs",
    "CarsConfig",
    "CarsResult",
    "InfeasibleQualityError",
    "top_n_similarity",
    "myopic_solve",
    "residual_c",
    "augmented_lagrangian",
    "cars_pi_step",
    "cars_y_step",
    "cars_solve",
]


_log = logging.getLogger("cacherec")

# Budget of the recommendation step: sweeps of the row block descent, and
# Newton steps on one row's floor multiplier.
_Y_SWEEPS = 4
_ROW_NEWTON_STEPS = 16
# Step cap of one myopic row LP's breakpoint walk. A step that does not
# stop moves a bracket end to a selection whose quality lies strictly
# between the two ends', so the walk ends; the cap bounds it under roundoff.
_ROW_WALK_STEPS = 100


class InfeasibleQualityError(ValueError):
    """A per-row quality floor exceeds what any feasible row can reach."""


@dataclass(frozen=True)
class OptimInputs:
    """Shared inputs of both optimizers.

    `quality` may be a scalar (uniform floor) or a per-row vector; it is
    stored as a vector. Construction verifies that every row can reach
    its floor: the best attainable row quality is the mean of the N
    largest off-diagonal similarities.
    """

    similarity: SimilarityMatrix
    model: RequestModel
    cost: CostVector
    quality: np.ndarray = 0.0

    def __post_init__(self):
        if not isinstance(self.similarity, SimilarityMatrix):
            object.__setattr__(self, "similarity", SimilarityMatrix(np.asarray(self.similarity)))
        if not isinstance(self.cost, CostVector):
            object.__setattr__(self, "cost", CostVector(np.asarray(self.cost)))
        k = self.similarity.size
        if self.model.size != k or self.cost.size != k:
            raise ValueError("similarity, model and cost sizes disagree")
        q = np.array(self.quality, dtype=float)
        if q.ndim == 0:
            q = np.full(k, float(q))
        if q.shape != (k,):
            raise ValueError(f"quality must be scalar or length {k}")
        if q.min() < 0.0 or q.max() > 1.0:
            raise ValueError("quality floors must lie in [0, 1]")
        q.flags.writeable = False
        object.__setattr__(self, "quality", q)
        best = self.max_quality()
        short = np.flatnonzero(best < q - 1e-12)
        if short.size:
            i = int(short[0])
            raise InfeasibleQualityError(
                f"row {i}: quality floor {q[i]} exceeds best attainable {best[i]:.6f} "
                f"(mean of the {self.model.list_size} largest similarities)"
            )

    @property
    def size(self) -> int:
        return self.similarity.size

    def max_quality(self) -> np.ndarray:
        """Best attainable quality per row: mean of the N largest u_ij, j != i."""
        u = np.asarray(self.similarity, dtype=float).copy()
        np.fill_diagonal(u, -np.inf)
        n = self.model.list_size
        top = -np.sort(-u, axis=1)[:, :n]
        return top.sum(axis=1) / n


def top_n_similarity(inputs: OptimInputs) -> RecMatrix:
    """Feasible warm start: mass 1/N on each row's N most similar items.

    Ties break toward the lowest index; the diagonal is excluded. This is
    the quality-maximal matrix, so it is feasible whenever the inputs are.
    """
    r = np.array(inputs.similarity, dtype=float)
    k = r.shape[0]
    n = inputs.model.list_size
    np.fill_diagonal(r, -np.inf)
    idx = np.broadcast_to(np.arange(k), (k, k))
    order = np.lexsort((idx, -r), axis=1)
    y = np.zeros((k, k))
    y[np.arange(k)[:, None], order[:, :n]] = 1.0 / n
    return RecMatrix(y, n)


# ---------------------------------------------------------------------------
# Myopic policy
# ---------------------------------------------------------------------------

def _row_greedy(x, u, n, self_idx, t, prefer_high_quality):
    """Cheapest N-subset at reduced cost x - t*u, one of the two tie rules.

    Returns the row vector (mass 1/N on the selection), its quality and
    its cost. Ties in the reduced cost break toward higher similarity when
    `prefer_high_quality`, then toward the lowest index either way.
    """
    r = x - t * u
    r[self_idx] = np.inf
    idx = np.arange(x.size)
    if prefer_high_quality:
        order = np.lexsort((idx, -u, r))
    else:
        order = np.lexsort((idx, r))
    return _selection(x, u, n, order[:n])


def _selection(x, u, n, sel):
    """Row with mass 1/N on the indices `sel`, its quality and its cost."""
    y = np.zeros(x.size)
    y[sel] = 1.0 / n
    return y, float(u[sel].sum()) / n, float(x[sel].sum()) / n


def _solve_row_lp(x, u, n, self_idx, q):
    """Exact row LP: min sum y*x s.t. sum y = 1, 0 <= y <= 1/N, y[self]=0,
    sum y*u >= q.

    Parametric greedy: for a multiplier t >= 0 on the quality constraint
    the optimum selects the N smallest reduced costs x - t*u. The dual
    ``D(t) = min_S sum_S (x - t*u)/N + t*q`` is concave and piecewise
    linear; a selection S of cost c_S and quality g_S supports it with
    the line ``c_S - t*g_S`` (plus t*q). A breakpoint walk brackets the
    kink where the selected quality crosses the floor: the low end's
    selection falls short of it, the high end's (at first the
    quality-maximal selection) meets it. Each step evaluates the greedy
    where the two ends' lines meet. A selection no cheaper than the lines
    there, up to a relative 1e-12, means the meeting point is the kink;
    a cheaper one becomes the end its quality belongs to. Both ends are
    optimal at the kink, so the blend of the two that lands the quality
    exactly on the floor is optimal.
    """
    y_cost, g_cost, _ = _row_greedy(x, u, n, self_idx, 0.0, False)
    if g_cost >= q - 1e-12:
        return y_cost
    y_lo, g_lo, c_lo = _row_greedy(x, u, n, self_idx, 0.0, True)
    if g_lo >= q:
        theta = (q - g_cost) / (g_lo - g_cost)
        return (1.0 - theta) * y_cost + theta * y_lo

    # the limit t -> inf of the greedy: highest similarity, then cheapest
    key = u.copy()
    key[self_idx] = -np.inf
    top = np.lexsort((np.arange(x.size), x, -key))[:n]
    y_hi, g_hi, c_hi = _selection(x, u, n, top)
    if g_hi < q - 1e-9 or g_hi <= g_lo:
        raise InfeasibleQualityError(
            f"row {self_idx}: quality floor {q} exceeds best attainable {g_hi:.6f}"
        )
    for _ in range(_ROW_WALK_STEPS):
        t = (c_hi - c_lo) / (g_hi - g_lo)
        y, g, c = _row_greedy(x, u, n, self_idx, t, True)
        if c - t * g >= c_lo - t * g_lo - 1e-12 * (c_hi + t * g_hi):
            break
        if g >= q:
            y_hi, g_hi, c_hi = y, g, c
        else:
            y_lo, g_lo, c_lo = y, g, c
    else:
        _log.warning(
            "row %d: breakpoint walk stopped at its %d-step cap", self_idx, _ROW_WALK_STEPS
        )
    theta = min(1.0, (q - g_lo) / (g_hi - g_lo))
    return (1.0 - theta) * y_lo + theta * y_hi


def myopic_solve(inputs: OptimInputs) -> RecMatrix:
    """Minimize the expected cost of the next request only.

    The one-step objective separates over rows, so each row solves its
    own small LP over the row polytope with its quality floor. Each row
    LP is solved exactly by a few greedy selections (a breakpoint walk on
    its dual), deterministically, and lowest-index on cost ties.
    """
    u = np.asarray(inputs.similarity, dtype=float)
    x = np.asarray(inputs.cost, dtype=float)
    q = inputs.quality
    n = inputs.model.list_size
    k = u.shape[0]
    y = np.zeros((k, k))
    for i in range(k):
        y[i] = _solve_row_lp(x, u[i], n, i, float(q[i]))
    return RecMatrix(y, n)


# ---------------------------------------------------------------------------
# Stationary-cost policy
# ---------------------------------------------------------------------------

def residual_c(pi, y, m: RequestModel) -> np.ndarray:
    """Stationarity residual ``c = pi^T - pi^T (a Y + (1-a) 1 p0^T)``.

    Vanishes exactly when pi is the stationary distribution of the chain
    induced by Y. Uses ``pi^T 1 p0^T = (sum pi) p0^T`` so the evaluation
    stays at one matrix-vector product.
    """
    pv = np.asarray(pi, dtype=float)
    yv = np.asarray(y, dtype=float)
    p0 = np.asarray(m.popularity, dtype=float)
    a = m.follow_prob
    return pv - a * (yv.T @ pv) - (1.0 - a) * pv.sum() * p0


def augmented_lagrangian(pi, y, lam, rho: float, inputs: OptimInputs) -> float:
    """Penalized objective ``pi.x + c.lam + (rho/2)||c||^2``."""
    c = residual_c(pi, y, inputs.model)
    pv = np.asarray(pi, dtype=float)
    x = np.asarray(inputs.cost, dtype=float)
    lv = np.asarray(lam, dtype=float)
    return float(pv @ x) + float(c @ lv) + 0.5 * rho * float(c @ c)


def cars_pi_step(
    y,
    lam,
    rho: float,
    inputs: OptimInputs,
    x0=None,
    tol: float = 1e-7,
    max_iter: int = 50000,
) -> StationaryVector:
    """Minimize the penalized objective over the probability simplex.

    With Y fixed the residual is linear in pi, so this is a convex QP
    with quadratic operator ``rho (I-P)(I-P^T)``. Y is sparse (about N
    nonzeros per row), so ``P v`` and ``P^T v`` are applied through Y's
    nonzeros, each in O(nnz + K); a RecMatrix takes its nonzeros once and
    shares them with `markov.stationary`.
    """
    p0 = np.asarray(inputs.model.popularity, dtype=float)
    a = inputs.model.follow_prob
    x = np.asarray(inputs.cost, dtype=float)
    lv = np.asarray(lam, dtype=float)
    k = p0.size
    rows, cols, vals = _nonzeros(y)
    ay = a * vals

    def p_vec(v):  # P v
        return np.bincount(rows, ay * v[cols], k) + (1.0 - a) * float(p0 @ v)

    def pt_vec(v):  # P^T v
        return np.bincount(cols, ay * v[rows], k) + ((1.0 - a) * v.sum()) * p0

    def qmv(v):
        w = v - pt_vec(v)
        return rho * (w - p_vec(w))

    sol = solve_qp(x + lv - p_vec(lv), qmv, tol=tol, max_iter=max_iter,
                   x0=p0 if x0 is None else x0)
    if sol.status == MAXITER:
        _log.warning("stationary step: %s", sol.message)
    return StationaryVector(sol.point)


def _quality_row_prox(w, u_row, q_floor, upper, sigma0=0.0):
    """Exact Euclidean projection of ``w`` onto one row's feasible set
    ``{y : sum y = 1, 0 <= y <= upper, u_row . y >= q_floor}``.

    This is the row solver of the recommendation step. When the plain
    sum/box projection misses the floor, the KKT conditions give
    ``y = proj(w + sigma u_row)`` for the floor multiplier ``sigma > 0``
    at which the floor holds with equality. The map
    ``sigma -> u_row . proj(w + sigma u_row)`` is nondecreasing and
    piecewise linear, so bracketed Newton steps (bisection whenever a
    step leaves the bracket) land on its root exactly once they reach the
    root's linear piece. Should the budget run out first, the bracket
    endpoints are blended to land on the floor. A positive `sigma0`, such
    as the row's multiplier in the previous sweep, is the first Newton
    point. Returns the row and its floor multiplier.

    Every projection runs on the candidates alone, the entries that can
    carry mass at any ``sigma``: with ``c`` the smallest positive cap,
    ``m = ceil(1/c)`` and ``w_(m)`` the m-th largest ``w`` among entries
    with a positive cap, they are those with a positive cap and
    ``w_j > w_(m) - c`` or ``u_j > 0``. Since ``u_row >= 0``, shifting by
    ``sigma u_row`` cannot lower the m-th largest entry, so the shift of
    ``proj`` is at least ``w_(m) - c`` and every other entry, left at
    ``w_j`` by the shift, gets no mass. The Y-step's rows have ``m = N``
    and about as many candidates as ``u_row`` has nonzeros.
    """
    k = w.size
    live = upper > 0.0
    c = float(upper[live].min())
    m = int(np.ceil(1.0 / c))
    if m * c < 1.0:  # 1/c rounded down
        m += 1
    w_live = w[live]
    if m < w_live.size:
        cut = float(np.partition(w_live, w_live.size - m)[w_live.size - m]) - c
        keep = np.flatnonzero(live & ((w > cut) | (u_row > 0.0)))
    else:
        keep = np.flatnonzero(live)
    wc, uc, cap = w[keep], u_row[keep], upper[keep]

    def full(yc):
        y = np.zeros(k)
        y[keep] = yc
        return y

    y = _project_capped(wc, cap)
    got = float(uc @ y)
    if got >= q_floor - 1e-12:
        return full(y), 0.0

    def slope(yr):
        # d(u . y)/d sigma on the current piece: u's spread over the free set
        f = (yr > 0.0) & (yr < cap)
        nf = int(np.count_nonzero(f))
        if nf == 0:
            return 0.0
        uf = uc[f]
        return max(float(uf @ uf) - float(uf.sum()) ** 2 / nf, 0.0)

    spread = float(np.ptp(w)) + float(upper.max()) + 1.0
    land = 1e-12 * max(1.0, abs(q_floor))
    sg_lo, sg_hi = 0.0, None
    y_lo, y_hi = y, None
    if sigma0 > 0.0:
        sg = sigma0
    else:
        sl = slope(y)
        sg = (q_floor - got) / sl if sl > 1e-12 else 1e-3 * spread
    for _ in range(_ROW_NEWTON_STEPS):
        y2 = _project_capped(wc + sg * uc, cap)
        got2 = float(uc @ y2)
        if abs(got2 - q_floor) <= land:
            return full(y2), sg
        if got2 < q_floor:
            sg_lo, y_lo = sg, y2
        else:
            sg_hi, y_hi = sg, y2
        sl = slope(y2)
        prop = sg + (q_floor - got2) / sl if sl > 1e-12 else None
        if sg_hi is None:
            sg = prop if (prop is not None and prop > sg) else 4.0 * sg + 1e-3 * spread
        elif prop is None or not (sg_lo < prop < sg_hi):
            sg = 0.5 * (sg_lo + sg_hi)
        else:
            sg = prop
    y_lo = full(y_lo)
    if y_hi is None:
        # quality is flat over the tried shifts; fall back to the greedy
        # maximal-quality row over the whole row, the exact maximizer
        # under box and sum
        budget = 1.0
        sg_hi = sg
        y_hi = np.zeros_like(w)
        for j in np.argsort(-u_row):
            give = min(upper[j], budget)
            y_hi[j] = give
            budget -= give
            if budget <= 0.0:
                break
    else:
        y_hi = full(y_hi)
    gl = float(u_row @ y_lo)
    gh = float(u_row @ y_hi)
    if gh - gl <= 0.0 or gh < q_floor:
        return y_hi, sg_hi  # floor out of reach; best attainable row
    gamma = min(max((q_floor - gl) / (gh - gl), 0.0), 1.0)
    return (1.0 - gamma) * y_lo + gamma * y_hi, sg_lo + gamma * (sg_hi - sg_lo)


def _y_block_descent(y, pv, s_star, u, qv, cap, tol=1e-9):
    """Exact cyclic minimization of the recommendation subproblem.

    The penalized objective is ``(a^2 rho / 2) ||Y^T pi - s_star||^2``: it
    depends on Y only through ``s = Y^T pi``. With the other rows held
    fixed, row i therefore solves a Euclidean projection of
    ``(s_star - s + pi_i y_i) / pi_i`` onto its own polytope, which
    `_quality_row_prox` computes exactly, over the row's candidates only:
    the entries with ``u_ij > 0`` or a target above the cut, the target's
    N-th largest off-diagonal entry minus ``1/N``. Since ``u >= 0``, every
    other entry stays at or below the projection's shift at any floor
    multiplier and gets no mass. Rows are visited in order of
    decreasing stationary mass; rows with vanishing mass do not move the
    objective and keep their starting values. Sweeps stop once no entry
    moves by more than `tol`, or after `_Y_SWEEPS` sweeps with a warning.
    Updates `y` in place and returns it.
    """
    k = pv.size
    s = y.T @ pv
    eps_pv = 1e-12 * float(pv.max(initial=0.0))
    rows = [i for i in np.argsort(-pv) if pv[i] > eps_pv]
    upper = np.full(k, cap)
    sigma = np.zeros(k)
    delta = 0.0
    for _ in range(_Y_SWEEPS):
        delta = 0.0
        for i in rows:
            p_i = pv[i]
            rest = s - p_i * y[i]
            upper[i] = 0.0
            row, sigma[i] = _quality_row_prox(
                (s_star - rest) / p_i, u[i], qv[i], upper, sigma[i]
            )
            upper[i] = cap
            delta = max(delta, float(np.abs(row - y[i]).max()))
            s = rest + p_i * row
            y[i] = row
        if delta <= tol:
            return y
    _log.warning(
        "recommendation step: block descent stopped after %d sweeps, "
        "largest entry change %.3e > %.1e", _Y_SWEEPS, delta, tol,
    )
    return y


def cars_y_step(pi, lam, rho: float, inputs: OptimInputs, y0=None) -> RecMatrix:
    """Minimize the penalized objective over the recommendation polytope.

    With pi fixed the penalized objective is ``(a^2 rho / 2)
    ||Y^T pi - s_star||^2`` with ``s_star = (lam + rho r) / (a rho)`` and
    ``r = pi - (1-a) p0``; the constraints act row-wise (row sums, box,
    zero diagonal, per-row quality floors). `_y_block_descent` minimizes
    it row by row from `y0` (default: the top-N similarity matrix). When
    ``a^2 rho`` vanishes the objective is constant and `y0` is returned.
    """
    pv = np.asarray(pi, dtype=float)
    u = np.asarray(inputs.similarity, dtype=float)
    p0 = np.asarray(inputs.model.popularity, dtype=float)
    a = inputs.model.follow_prob
    n = inputs.model.list_size
    q = inputs.quality
    lv = np.asarray(lam, dtype=float)

    ym = np.asarray(top_n_similarity(inputs) if y0 is None else y0, dtype=float).copy()
    if a * a * rho > 0.0:
        s_star = (lv + rho * (pv - (1.0 - a) * p0)) / (a * rho)
        ym = _y_block_descent(ym, pv, s_star, u, q, 1.0 / n)

    # Restore any quality floor left marginally violated (a starting row the
    # descent did not visit, or a blended row): blend toward the
    # quality-maximal row, which lands exactly on the floor and stays inside
    # the row polytope.
    got = (u * ym).sum(axis=1)
    short = np.flatnonzero(got < q - 1e-6)
    if short.size:
        y_top = np.asarray(top_n_similarity(inputs), dtype=float)
        g_top = (u * y_top).sum(axis=1)
        for i in short:
            theta = (q[i] - got[i]) / (g_top[i] - got[i])
            ym[i] = (1.0 - theta) * ym[i] + theta * y_top[i]

    return RecMatrix(ym, n)


# Fixed constants of the alternating solver: the penalty weight, the
# accuracy targets on the squared stationarity residual and on the change
# of the true cost, and the tolerance of the distribution-step QP.
_RHO = 1.0
_ACC1 = 1e-6
_ACC2 = 1e-5
_PI_STEP_TOL = 1e-6


@dataclass
class CarsConfig:
    """Knobs of the alternating stationary-cost solver."""

    y0: RecMatrix | None = None
    max_iter: int = 30
    multiplier_step: float = 0.5  # factor on rho in the dual update; 1.0 is the textbook step
    # step cap of the distribution-step QP (`cars_pi_step`); the
    # recommendation step is solved exactly and takes none
    subproblem_max_iter: int = 8000

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class CarsResult:
    """Outcome of the alternating solver, with full per-iteration traces.

    Trace entry 0 describes the starting matrix; entry i the i-th
    iteration. `best_y` is the minimum-true-cost iterate (earliest tie).
    """

    best_y: RecMatrix
    best_cost: float
    cost_trace: list
    residual_trace: list
    iterations: int
    converged: bool
    virtual_cost_trace: list = field(default_factory=list)
    lambda_norm_trace: list = field(default_factory=list)
    best_index: int = 0
    message: str = ""


def cars_solve(inputs: OptimInputs, cfg: CarsConfig | None = None) -> CarsResult:
    """Alternating augmented-Lagrangian minimization of the stationary cost.

    Each iteration minimizes over the auxiliary distribution, then over
    the recommendation matrix, then raises the multiplier by
    ``multiplier_step * rho`` (rho fixed at 1) times the stationarity
    residual. The true cost of every iterate is evaluated from the
    stationary distribution of its matrix, which `stationary` solves by a
    fixed point through Y's nonzeros or, where that is cheaper, an LU (the
    auxiliary distribution only converges to it as the residual vanishes).
    Terminates when the squared residual norm drops to 1e-6 and the
    true-cost change to 1e-5, or after `max_iter` iterations; returns the
    minimum-cost iterate.
    """
    cfg = cfg or CarsConfig()
    m = inputs.model
    x = np.asarray(inputs.cost, dtype=float)

    y = cfg.y0 if cfg.y0 is not None else top_n_similarity(inputs)
    if not isinstance(y, RecMatrix):
        y = RecMatrix(np.asarray(y, dtype=float), m.list_size)
    lam = np.zeros(inputs.size)

    pi_exact = stationary(y, m)
    cost0 = expected_cost(pi_exact, x)
    cost_trace = [cost0]
    residual_trace = [0.0]
    virtual_trace = [cost0]
    lambda_trace = [0.0]
    best_y, best_cost, best_idx = y, cost0, 0
    pi_warm = np.asarray(pi_exact, dtype=float)
    converged = False
    message = ""

    for i in range(1, cfg.max_iter + 1):
        try:
            pi_i = cars_pi_step(
                y, lam, _RHO, inputs, x0=pi_warm,
                tol=_PI_STEP_TOL, max_iter=cfg.subproblem_max_iter,
            )
            y_next = cars_y_step(pi_i, lam, _RHO, inputs, y0=y)
        except (ValueError, np.linalg.LinAlgError) as exc:
            message = f"subproblem failed at iteration {i}: {exc}"
            break
        c = residual_c(pi_i, y_next, m)
        lam = lam + cfg.multiplier_step * _RHO * c
        cost_i = expected_cost(stationary(y_next, m), x)
        eps1 = float(c @ c)
        eps2 = abs(cost_i - cost_trace[-1])
        cost_trace.append(cost_i)
        residual_trace.append(eps1)
        virtual_trace.append(float(np.asarray(pi_i) @ x))
        lambda_trace.append(float(np.linalg.norm(lam)))
        if cost_i < best_cost:
            best_y, best_cost, best_idx = y_next, cost_i, i
        y = y_next
        pi_warm = np.asarray(pi_i, dtype=float)
        if eps1 <= _ACC1 and eps2 <= _ACC2:
            converged = True
            break

    return CarsResult(
        best_y=best_y,
        best_cost=best_cost,
        cost_trace=cost_trace,
        residual_trace=residual_trace,
        iterations=len(cost_trace) - 1,
        converged=converged,
        virtual_cost_trace=virtual_trace,
        lambda_norm_trace=lambda_trace,
        best_index=best_idx,
        message=message,
    )
