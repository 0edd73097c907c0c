"""Recommendation-matrix optimizers.

Two policies are provided. The myopic policy minimizes the expected cost
of the next request only; it decomposes into one small LP per row,
solved exactly by a parametric greedy that walks the breakpoints of the
row's dual in the quality multiplier until it reaches the kink where the
selected quality crosses the floor. All rows walk together, each greedy
step one partition and one lexsort over every walking row's candidate
pool: its related columns and the first ``N + 1 +`` (largest number of
related columns in a row) columns in (cost, index) order. Those always
hold N unrelated columns, none the row itself, ahead of any column left
out, so the pool is exact. The stationary policy (`cars_solve`)
minimizes the long-run cost by alternating convex minimizations of an
augmented Lagrangian in which the stationarity condition of the request
chain enters as a penalized equality residual. Its distribution step is
a QP over the probability simplex, solved iteratively by `solve_qp` with
the transition operator applied by `markov._chain` through the nonzeros
of Y, as is the stationarity residual, so a gradient step costs
O(nnz(Y) + K) rather than O(K^2); a distribution step stopped at its
step cap logs a warning. Its
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
related items, instead of sorts over all 2K breakpoints. When the
candidates' similarities take two values ``alpha < beta``, as on every
row of a 0/1 matrix, a binding floor fixes the mass of the beta entries
at ``(q - alpha) / (beta - alpha)``, so the row is two independent capped
projections, one per level, with no search on the floor multiplier: the
gap of the two projections' shifts gives it, and is positive exactly
when the floor binds. Rows with three or more levels among their
candidates, as under fractional similarity, search the multiplier by
bracketed Newton steps.
The true cost of each iterate comes from `markov.stationary`.
"""

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .markov import _chain, expected_cost, quality_of, stationary
from .model import (
    CostVector,
    RecMatrix,
    RequestModel,
    SimilarityMatrix,
    StationaryVector,
    _is_real,
    _is_whole,
    _nonzeros,
)
from .qp import MAXITER, _project_capped, solve_qp

__all__ = [
    "OptimInputs",
    "CarsConfig",
    "CarsIterate",
    "CarsResult",
    "InfeasibleQualityError",
    "top_n_similarity",
    "myopic_solve",
    "residual_c",
    "cars_pi_step",
    "cars_y_step",
    "cars_solve",
]


_log = logging.getLogger("cacherec")

# Budget of the recommendation step: sweeps of the row block descent, and
# Newton steps on one row's floor multiplier. The descent stops after the
# first sweep that moves no entry of ``s = Y^T pi`` by more than _Y_STOP.
_Y_SWEEPS = 4
_Y_STOP = 1e-9
_ROW_NEWTON_STEPS = 16
# Step cap of one myopic row LP's breakpoint walk. A step that does not
# stop moves a bracket end to a selection whose quality lies strictly
# between the two ends', so the walk ends; the cap bounds it under roundoff.
_ROW_WALK_STEPS = 100
# Pool entries per block of rows in the batched row LPs; bounds the working
# arrays of a dense similarity.
_BLOCK_ENTRIES = 1 << 16


class InfeasibleQualityError(ValueError):
    """A per-row quality floor exceeds what any feasible row can reach."""


@dataclass(frozen=True)
class OptimInputs:
    """Shared inputs of both optimizers.

    `quality` may be a scalar (uniform floor) or a per-row vector; it is
    stored as a vector. Construction selects each row's N most similar
    items once, the diagonal excluded and ties toward the lowest index (a
    stable sort of the negated row), for `max_quality` and
    `top_n_similarity`, and verifies that every row can reach its floor:
    the best attainable row quality is the mean of the similarities of
    that selection.
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
        r = -np.asarray(self.similarity, dtype=float)
        np.fill_diagonal(r, np.inf)
        top = np.argsort(r, axis=1, kind="stable")[:, :self.model.list_size].copy()
        top.flags.writeable = False
        object.__setattr__(self, "_top_n", top)
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
        u = np.asarray(self.similarity, dtype=float)
        return np.take_along_axis(u, self._top_n, axis=1).sum(axis=1) / self.model.list_size


def top_n_similarity(inputs: OptimInputs) -> RecMatrix:
    """Feasible warm start: mass 1/N on each row's N most similar items.

    Ties break toward the lowest index; the diagonal is excluded. This is
    the quality-maximal matrix, so it is feasible whenever the inputs are.
    """
    k, n = inputs.size, inputs.model.list_size
    rows = np.repeat(np.arange(k), n)
    cols = np.sort(inputs._top_n, axis=1).ravel()
    return RecMatrix.from_nonzeros(rows, cols, np.full(k * n, 1.0 / n), k, n)


# ---------------------------------------------------------------------------
# Myopic policy
# ---------------------------------------------------------------------------

def _first_n(key, tie, cols, up, xp, n):
    """Each row's N pool entries first in (key, tie, column) order.

    `key`, `tie`, `cols`, `up` and `xp` are (rows, width) pool arrays: the
    sort key (inf on entries that may not be chosen), the tie key, the
    column index, the similarity and the cost. Only entries at or below a
    row's N-th smallest key can be chosen, so one partition finds them
    and one lexsort over them, with ties kept, orders every row at once.
    Returns the (rows, N) chosen columns in that order, with each
    selection's quality and cost.
    """
    kth = np.partition(key, n - 1, axis=1)[:, n - 1]
    at = np.flatnonzero(key <= kth[:, None])
    row = at // key.shape[1]
    order = np.lexsort((cols.ravel()[at], tie.ravel()[at], key.ravel()[at], row))
    counts = np.bincount(row, minlength=key.shape[0])
    at = at[order[(np.cumsum(counts) - counts)[:, None] + np.arange(n)]]
    return cols.ravel()[at], up.ravel()[at].sum(axis=1) / n, xp.ravel()[at].sum(axis=1) / n


def _solve_row_lps(x, u, n, q, rows):
    """Exact row LPs ``min y.x`` s.t. ``sum y = 1``, ``0 <= y <= 1/N``,
    ``y[i] = 0`` and ``y.u_i >= q_i``, for the rows ``i`` in `rows`, whose
    similarities are the rows of `u` and floors the entries of `q`.

    Parametric greedy: for a multiplier t >= 0 on the quality constraint
    the optimum selects the N smallest reduced costs x - t*u. The dual
    ``D(t) = min_S sum_S (x - t*u)/N + t*q`` is concave and piecewise
    linear; a selection S of cost c_S and quality g_S supports it with
    the line ``c_S - t*g_S`` (plus t*q). A breakpoint walk brackets the
    kink where the selected quality crosses the floor: the low end's
    selection falls short of it, the high end's (at first the
    quality-maximal selection: highest similarity, then cheapest, then
    lowest index) meets it. Each step evaluates the greedy where the two
    ends' lines meet. A selection no cheaper than the lines there, up to
    a relative 1e-12, means the meeting point is the kink; a cheaper one
    becomes the end its quality belongs to. Both ends are optimal at the
    kink, so the blend of the two that lands the quality exactly on the
    floor is optimal. The greedy breaks reduced-cost ties toward higher
    similarity, then the lowest index; the first selection, at t = 0,
    toward the lowest index alone, and a row it already lifts to its
    floor keeps it.

    All rows walk together, one step at a time, each greedy a partition
    and a lexsort over every walking row (`_first_n`); the first, with
    costs alone, is the shared (cost, index) order less the row itself.
    Each row's greedy runs over a candidate pool fixed up front: its
    columns of positive similarity, and the first
    ``M = min(K, N + 1 + max row nonzeros)`` columns in (cost, index)
    order. A column outside the pool has ``u = 0``, so its reduced cost
    is its cost at every t; at least N other columns of the first M have
    ``u = 0`` too, are not the row itself, and come before it in (cost,
    index) order, so before it under both tie rules. Every selection,
    the high end's included, thus lies in the pool. Rows run in blocks of
    about `_BLOCK_ENTRIES` pool entries, which bounds the working arrays
    when the similarity is dense. Within a block, every row's
    infeasibility check runs before any row walks: the error names the
    block's lowest failing row, and a row of that block that would have
    hit the walk cap logs no warning first.

    Each row's solution is a blend of two selections: mass ``(1 - theta)
    / N`` on the first's columns plus ``theta / N`` on the second's (theta
    0 when one selection meets the floor). Returns the nonzeros of the
    (len(rows), K) matrix of solutions, in row-major order, as row
    positions in `rows`, columns and values.
    """
    k = x.size
    nrows = rows.size
    inv_n = 1.0 / n
    # per row: the first selection and its mass, then the second's
    sel = np.empty((nrows, 2 * n), dtype=np.intp)
    mass = np.zeros((nrows, 2))
    positive = u > 0.0
    first = np.lexsort((np.arange(k), x))[
        :min(k, n + 1 + int(positive.sum(axis=1).max(initial=0)))
    ]
    positive[:, first] = False
    extra = positive.sum(axis=1)
    step = max(1, _BLOCK_ENTRIES // (first.size + int(extra.max(initial=0))))
    for b0 in range(0, nrows, step):
        b1 = min(b0 + step, nrows)
        sb, mb, qb, me = sel[b0:b1], mass[b0:b1], q[b0:b1], rows[b0:b1, None]
        # the pool: the shared first columns, then the row's own related
        # ones, padded with the row itself, which is never chosen
        er, ec = np.divmod(np.flatnonzero(positive[b0:b1]), k)
        cnt = extra[b0:b1]
        cols = np.repeat(me, first.size + int(cnt.max(initial=0)), axis=1)
        cols[:, :first.size] = first
        cols[er, first.size + np.arange(er.size) - (np.cumsum(cnt) - cnt)[er]] = ec
        up = np.take_along_axis(u[b0:b1], cols, axis=1)
        xp = x[cols]
        dead = cols == me

        # at t = 0 the lowest-index rule takes the first N columns of the
        # shared order, skipping the row itself
        head = first[:n + 1]
        s_cost = head[np.arange(n) + np.cumsum(head == me, axis=1)[:, :n]]
        g_cost = np.take_along_axis(u[b0:b1], s_cost, axis=1).sum(axis=1) / n
        done = g_cost >= qb - 1e-12
        sb[:, :n] = sb[:, n:] = s_cost
        mb[done, 0] = inv_n
        a = np.flatnonzero(~done)
        s_lo, g_lo, c_lo = _first_n(
            np.where(dead[a], np.inf, xp[a]), -up[a], cols[a], up[a], xp[a], n
        )
        met = g_lo >= qb[a]
        b = a[met]
        theta = (qb[b] - g_cost[b]) / (g_lo[met] - g_cost[b])
        sb[b, n:] = s_lo[met]
        mb[b] = np.column_stack(((1.0 - theta) * inv_n, theta * inv_n))
        a, s_lo, g_lo, c_lo = a[~met], s_lo[~met], g_lo[~met], c_lo[~met]
        qa = qb[a]
        s_hi, g_hi, c_hi = _first_n(
            np.where(dead[a], np.inf, -up[a]), xp[a], cols[a], up[a], xp[a], n
        )
        bad = np.flatnonzero((g_hi < qa - 1e-9) | (g_hi <= g_lo))
        if bad.size:
            j = int(bad[0])
            raise InfeasibleQualityError(
                f"row {int(me[a[j], 0])}: quality floor {float(qa[j])} "
                f"exceeds best attainable {g_hi[j]:.6f}"
            )
        walking = np.arange(a.size)
        for _ in range(_ROW_WALK_STEPS):
            if walking.size == 0:
                break
            w = a[walking]
            uw, xw = up[w], xp[w]
            t = (c_hi[walking] - c_lo[walking]) / (g_hi[walking] - g_lo[walking])
            r = np.where(dead[w], np.inf, xw - t[:, None] * uw)
            s, g, c = _first_n(r, -uw, cols[w], uw, xw, n)
            stop = c - t * g >= (
                c_lo[walking] - t * g_lo[walking]
                - 1e-12 * (c_hi[walking] + t * g_hi[walking])
            )
            hi = ~stop & (g >= qa[walking])
            lo = ~stop & ~hi
            s_hi[walking[hi]], g_hi[walking[hi]], c_hi[walking[hi]] = s[hi], g[hi], c[hi]
            s_lo[walking[lo]], g_lo[walking[lo]], c_lo[walking[lo]] = s[lo], g[lo], c[lo]
            walking = walking[~stop]
        for j in walking:
            _log.warning(
                "row %d: breakpoint walk stopped at its %d-step cap",
                int(me[a[j], 0]), _ROW_WALK_STEPS,
            )
        theta = np.minimum(1.0, (qa - g_lo) / (g_hi - g_lo))
        sb[a, :n], sb[a, n:] = s_lo, s_hi
        mb[a] = np.column_stack(((1.0 - theta) * inv_n, theta * inv_n))
    # a column in both selections holds the first's mass plus the second's
    order = np.argsort(sel, axis=1, kind="stable")
    cols = np.take_along_axis(sel, order, axis=1)
    vals = np.take_along_axis(np.repeat(mass, n, axis=1), order, axis=1)
    twice = cols[:, 1:] == cols[:, :-1]
    vals[:, :-1][twice] += vals[:, 1:][twice]
    lead = np.ones(cols.shape, dtype=bool)
    lead[:, 1:] = ~twice
    at = np.flatnonzero(lead & (vals != 0.0))
    return at // (2 * n), cols.ravel()[at], vals.ravel()[at]


def myopic_solve(inputs: OptimInputs) -> RecMatrix:
    """Minimize the expected cost of the next request only.

    The one-step objective separates over rows, so each row solves its
    own small LP over the row polytope with its quality floor. All row
    LPs are solved exactly and together by `_solve_row_lps`, a breakpoint
    walk on each row's dual over a candidate pool: the row's related
    columns and the first ``N + 1 +`` (most related columns of any row)
    columns in (cost, index) order. A column left out is unrelated, and
    at least N unrelated columns of the pool, none the row itself, come
    before it at every multiplier, so no selection of the walk needs it.
    Deterministic, and lowest-index on cost ties.
    """
    u = np.asarray(inputs.similarity, dtype=float)
    x = np.asarray(inputs.cost, dtype=float)
    k, n = u.shape[0], inputs.model.list_size
    rows, cols, vals = _solve_row_lps(x, u, n, inputs.quality, np.arange(k))
    return RecMatrix.from_nonzeros(rows, cols, vals, k, n)


# ---------------------------------------------------------------------------
# Stationary-cost policy
# ---------------------------------------------------------------------------

def residual_c(pi, y, m: RequestModel) -> np.ndarray:
    """Stationarity residual ``c = pi^T - pi^T (a Y + (1-a) 1 p0^T)``.

    Vanishes exactly when pi is the stationary distribution of the chain
    induced by Y. ``P^T pi`` is applied through Y's nonzeros
    (`markov._chain`), in O(nnz + K).
    """
    pv = np.asarray(pi, dtype=float)
    return pv - _chain(y, m)[1](pv)


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
    nonzeros per row), so ``P v`` and ``P^T v`` come from `markov._chain`,
    each in O(nnz + K).
    """
    p0 = np.asarray(inputs.model.popularity, dtype=float)
    x = np.asarray(inputs.cost, dtype=float)
    lv = np.asarray(lam, dtype=float)
    p_vec, pt_vec = _chain(y, inputs.model)

    def qmv(v):
        w = v - pt_vec(v)
        return rho * (w - p_vec(w))

    sol = solve_qp(x + lv - p_vec(lv), qmv, tol=tol, max_iter=max_iter,
                   x0=p0 if x0 is None else x0)
    if sol.status == MAXITER:
        _log.warning("stationary step: %s", sol.message)
    return StationaryVector(sol.point)


def _quality_row_prox(w, u_row, q_floor, n, i, sigma0=0.0):
    """Exact Euclidean projection of ``w`` onto row `i`'s feasible set
    ``{y : sum y = 1, 0 <= y <= c, y_i = 0, u_row . y >= q_floor}``, where
    ``c = 1/N`` is the cap of list size ``N = n``.

    This is the row solver of the recommendation step. When the plain
    sum/box projection misses the floor, the KKT conditions give
    ``y = clip(w + sigma u_row - tau, 0, c)`` for the floor multiplier
    ``sigma > 0`` at which the floor holds with equality.

    Two-valued rows are solved in closed form. Let the candidates'
    similarities take two values ``alpha < beta``, as on every row of a
    0/1 matrix. A binding floor holds with equality at the optimum, which
    fixes the mass of the beta-block at
    ``T = (q_floor - alpha) / (beta - alpha)`` and of the alpha-block at
    ``1 - T``. On that subset of the feasible set, which holds the
    optimum, the problem separates: each block's part is the (unique)
    capped projection of its own entries of ``w`` onto its total, and the
    KKT point's shifts are ``tau - sigma beta`` on the beta-block and
    ``tau - sigma alpha`` on the alpha-block. So
    ``sigma = (tau_alpha - tau_beta) / (beta - alpha)`` for any valid
    pair of block shifts. That gap decides whether the floor binds: at the
    plain projection's shift ``tau_0``, a binding floor leaves the
    beta-block short of ``T`` and the alpha-block over ``1 - T``, so every
    valid beta shift lies below ``tau_0`` and every alpha shift above it,
    and a slack floor puts both the other way. The blocks are projected
    first, with the shifts `_project_capped` returns; a positive
    ``sigma`` makes their union a KKT point, hence the projection, and
    only a nonpositive one runs the plain projection. Should that miss the
    floor too, the two disagree by roundoff alone, as on targets spread
    over thousands, whose entries carry errors near 1e-12: the floor lies
    on the boundary and the blocks' row is returned. A floor at or below
    ``alpha`` is met by every row.

    Other rows run a Newton search on ``sigma``: the map
    ``sigma -> u_row . proj(w + sigma u_row)`` is nondecreasing and
    piecewise linear, so bracketed Newton steps (bisection whenever a
    step leaves the bracket) land on its root exactly once they reach the
    root's linear piece. It serves rows whose candidates carry three or
    more similarity values, as under fractional similarity, and
    two-valued rows where ``T > 1`` or a block's total exceeds the sum of
    its caps, which happens only when the floor is slack or out of reach.
    Should its `_ROW_NEWTON_STEPS` run out first, the bracket endpoints
    are blended to land on the floor and a warning is logged. A positive
    `sigma0`, such as the row's multiplier in the previous sweep, is the
    first Newton point. Returns the row and its floor multiplier.

    Every projection runs on the candidates alone, the entries that can
    carry mass at any ``sigma``. Let ``m`` be the fewest entries whose
    caps hold the row's mass: N, or N + 1 where ``c`` is 1/N rounded down
    (``N c < 1``, first at N = 49). With ``w_(m)`` the m-th largest ``w``
    off index i, the candidates are the entries ``j != i`` with
    ``w_j > w_(m) - c`` or ``u_j > 0``. Since ``u_row >= 0``, shifting by
    ``sigma u_row`` cannot lower the m-th largest entry, so the shift of
    ``proj`` is at least ``w_(m) - c`` and every other entry, left at
    ``w_j`` by the shift, gets no mass. A row thus has about as many
    candidates as ``u_row`` has nonzeros.
    """
    k = w.size
    c = 1.0 / n
    m = n + 1 if n * c < 1.0 else n
    live = np.arange(k) != i
    w_live = w[live]
    cut = -np.inf
    if m < w_live.size:
        cut = float(np.partition(w_live, w_live.size - m)[w_live.size - m]) - c
    keep = np.flatnonzero(live & ((w > cut) | (u_row > 0.0)))
    wc, uc = w[keep], u_row[keep]
    cap = np.full(keep.size, c)

    def full(yc):
        y = np.zeros(k)
        y[keep] = yc
        return y

    alpha, beta = float(uc.min()), float(uc.max())
    t = (q_floor - alpha) / (beta - alpha) if beta > alpha else 0.0
    blocks = None
    if 0.0 < t <= 1.0:
        top = uc == beta
        bot = ~top
        c_top, c_bot = cap[top], cap[bot]
        if (uc[bot] == alpha).all() and t <= c_top.sum() and 1.0 - t <= c_bot.sum():
            y_top, tau_top = _project_capped(wc[top], c_top, t)
            y_bot, tau_bot = _project_capped(wc[bot], c_bot, 1.0 - t)
            sg = (tau_bot - tau_top) / (beta - alpha)
            blocks = np.empty(keep.size)
            blocks[top] = y_top
            blocks[bot] = y_bot
            if sg > 0.0:
                return full(blocks), sg

    y = _project_capped(wc, cap)[0]
    got = float(uc @ y)
    if got >= q_floor - 1e-12:
        return full(y), 0.0
    if blocks is not None:
        # the shifts call the floor slack, the plain projection misses it:
        # both only by roundoff, so the floor lies on the boundary, where
        # the two rows agree, and the blocks' row meets it
        return full(blocks), 0.0

    def slope(yr):
        # d(u . y)/d sigma on the current piece: u's spread over the free set
        f = (yr > 0.0) & (yr < cap)
        nf = int(np.count_nonzero(f))
        if nf == 0:
            return 0.0
        uf = uc[f]
        return max(float(uf @ uf) - float(uf.sum()) ** 2 / nf, 0.0)

    spread = float(np.ptp(w)) + c + 1.0
    land = 1e-12 * max(1.0, abs(q_floor))
    sg_lo, sg_hi = 0.0, None
    y_lo, y_hi = y, None
    if sigma0 > 0.0:
        sg = sigma0
    else:
        sl = slope(y)
        sg = (q_floor - got) / sl if sl > 1e-12 else 1e-3 * spread
    for _ in range(_ROW_NEWTON_STEPS):
        y2 = _project_capped(wc + sg * uc, cap)[0]
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
            if j == i:
                continue
            give = min(c, budget)
            y_hi[j] = give
            budget -= give
            if budget <= 0.0:
                break
    else:
        y_hi = full(y_hi)
    _log.warning(
        "recommendation step: floor multiplier search stopped at its %d-step cap "
        "within [%.3e, %.3e]; the row is not an exact projection",
        _ROW_NEWTON_STEPS, sg_lo, sg_hi,
    )
    gl = float(u_row @ y_lo)
    gh = float(u_row @ y_hi)
    if gh - gl <= 0.0 or gh < q_floor:
        return y_hi, sg_hi  # floor out of reach; best attainable row
    gamma = min(max((q_floor - gl) / (gh - gl), 0.0), 1.0)
    return (1.0 - gamma) * y_lo + gamma * y_hi, sg_lo + gamma * (sg_hi - sg_lo)


def _check_floors(y, inputs: OptimInputs, what: str) -> None:
    """Raise `InfeasibleQualityError` naming the first row of `y` that lies
    more than 1e-6 below its quality floor."""
    got = quality_of(y, inputs.similarity)
    short = np.flatnonzero(got < inputs.quality - 1e-6)
    if short.size:
        i = int(short[0])
        raise InfeasibleQualityError(f"row {i}: {what} has quality {got[i]:.6f} "
                                     f"below its floor {inputs.quality[i]}")


def cars_y_step(pi, lam, rho: float, inputs: OptimInputs, y0=None) -> RecMatrix:
    """Minimize the penalized objective over the recommendation polytope.

    With pi fixed the penalized objective is ``(a^2 rho / 2)
    ||Y^T pi - s_star||^2`` with ``s_star = (lam + rho r) / (a rho)`` and
    ``r = pi - (1-a) p0``; the constraints act row-wise (row sums, box,
    zero diagonal, per-row quality floors). The objective depends on Y
    only through ``s = Y^T pi``, so an exact cyclic descent minimizes it
    row by row from `y0` (default: the top-N similarity matrix): with the
    other rows held fixed, row i solves a Euclidean projection of
    ``(s_star - s) / pi_i + y_i`` onto its own polytope, which
    `_quality_row_prox` computes exactly over the row's candidates. `s` is
    formed over the nonzeros of `y0` and moves in place by ``pi_i`` times
    each row's change. Rows are visited in order of decreasing stationary
    mass; rows with vanishing mass do not move the objective and keep
    their starting values. Sweeps stop after the first that moves no
    entry of `s` by more than `_Y_STOP`, or after `_Y_SWEEPS` sweeps with
    a warning that reports the last sweep's largest change of `s`. When
    ``a^2 rho`` vanishes the objective is constant and `y0` is returned.

    Every visited row is an exact projection onto a set that meets its
    floor and every other row keeps its start, so `y0` must meet every
    floor: a row more than 1e-6 below its floor raises
    `InfeasibleQualityError`.
    """
    pv = np.asarray(pi, dtype=float)
    u = np.asarray(inputs.similarity, dtype=float)
    p0 = np.asarray(inputs.model.popularity, dtype=float)
    a = inputs.model.follow_prob
    n = inputs.model.list_size
    q = inputs.quality
    lv = np.asarray(lam, dtype=float)

    start = top_n_similarity(inputs) if y0 is None else y0
    _check_floors(start, inputs, "the recommendation step's start")
    k = pv.size
    rows, cols, vals = _nonzeros(start)
    if a * a * rho > 0.0:
        s_star = (lv + rho * (pv - (1.0 - a) * p0)) / (a * rho)
        s = np.bincount(cols, weights=vals * pv[rows], minlength=k)
        # each row's nonzero columns and values, replaced when it is visited
        at = np.searchsorted(rows, np.arange(k + 1)).tolist()
        row_cols = [cols[lo:hi] for lo, hi in zip(at, at[1:])]
        row_vals = [vals[lo:hi] for lo, hi in zip(at, at[1:])]
        eps_pv = 1e-12 * float(pv.max(initial=0.0))
        visit = [i for i in np.argsort(-pv) if pv[i] > eps_pv]
        sigma = np.zeros(k)
        for _ in range(_Y_SWEEPS):
            s_start = s.copy()
            for i in visit:
                p_i = pv[i]
                y_i = np.zeros(k)
                y_i[row_cols[i]] = row_vals[i]
                row, sigma[i] = _quality_row_prox(
                    (s_star - s) / p_i + y_i, u[i], q[i], n, i, sigma[i]
                )
                s += p_i * (row - y_i)
                nz = row.nonzero()[0]
                row_cols[i], row_vals[i] = nz, row[nz]
            moved = float(np.abs(s - s_start).max())
            if moved <= _Y_STOP:
                break
        else:
            _log.warning("recommendation step: block descent stopped after %d sweeps, "
                         "largest change of Y^T pi in the last sweep %.3e > %.1e",
                         _Y_SWEEPS, moved, _Y_STOP)
        rows = np.repeat(np.arange(k), [c.size for c in row_cols])
        cols, vals = np.concatenate(row_cols), np.concatenate(row_vals)
    return RecMatrix.from_nonzeros(rows, cols, vals, k, n)


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
        for name in ("max_iter", "subproblem_max_iter"):
            v = getattr(self, name)
            if not _is_whole(v) or v < 1:
                raise ValueError(f"{name} must be a whole number >= 1")
            setattr(self, name, int(v))
        step = self.multiplier_step
        if not (_is_real(step) and 0.0 < step < np.inf):
            raise ValueError("multiplier_step must be a finite number > 0")


class CarsIterate(NamedTuple):
    """One trace entry of the alternating solver."""

    actual_cost: float  # true cost, at the matrix's stationary distribution
    virtual_cost: float  # cost at the auxiliary distribution
    residual_sq: float  # squared norm of the stationarity residual
    lambda_norm: float  # norm of the multiplier


@dataclass
class CarsResult:
    """Outcome of the alternating solver, with its full trace.

    Trace entry 0 describes the starting matrix; entry i the i-th
    iteration. `best_y` is the minimum-true-cost iterate (earliest tie).
    """

    best_y: RecMatrix
    best_cost: float
    trace: list[CarsIterate]
    converged: bool
    best_index: int = 0
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1


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
    minimum-cost iterate. The warm start `cfg.y0` must have the model's
    list size (else `ValueError`) and meet every quality floor (else
    `InfeasibleQualityError`), as every later iterate does.
    """
    cfg = cfg or CarsConfig()
    m = inputs.model
    x = np.asarray(inputs.cost, dtype=float)

    y = cfg.y0 if cfg.y0 is not None else top_n_similarity(inputs)
    if not isinstance(y, RecMatrix):
        y = RecMatrix(np.asarray(y, dtype=float), m.list_size)
    if y.list_size != m.list_size:
        raise ValueError(f"warm start has list size {y.list_size}, the model {m.list_size}")
    _check_floors(y, inputs, "the warm start")
    lam = np.zeros(inputs.size)

    pi_exact = stationary(y, m)
    cost0 = expected_cost(pi_exact, x)
    trace = [CarsIterate(cost0, cost0, 0.0, 0.0)]
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
        eps2 = abs(cost_i - trace[-1].actual_cost)
        trace.append(CarsIterate(cost_i, float(np.asarray(pi_i) @ x), eps1,
                                 float(np.linalg.norm(lam))))
        if cost_i < best_cost:
            best_y, best_cost, best_idx = y_next, cost_i, i
        y = y_next
        pi_warm = np.asarray(pi_i, dtype=float)
        if eps1 <= _ACC1 and eps2 <= _ACC2:
            converged = True
            break

    return CarsResult(best_y=best_y, best_cost=best_cost, trace=trace, converged=converged,
                      best_index=best_idx, message=message)
