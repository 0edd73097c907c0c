"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately written from first principles
with numpy, math and itertools only, using different algorithms than the
package (replace-row linear solves instead of LU, exhaustive active-set
or vertex enumeration instead of first-order iterations), so agreement
between the two is meaningful evidence rather than a tautology.
"""

import math
from itertools import combinations, product

import numpy as np

__all__ = [
    "stationary_ref",
    "power_ref",
    "transition_ref",
    "row_lp_oracle",
    "qp_oracle",
    "best_deterministic_cost",
    "cf_fill_ref",
    "augmented_lagrangian_ref",
    "session_hit_ratio_ref",
    "simulate_ref",
]


def transition_ref(y, p0, a):
    """Transition matrix a*Y + (1-a)*1 p0^T assembled row by row."""
    y = np.asarray(y, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    k = y.shape[0]
    p = np.empty((k, k))
    for i in range(k):
        p[i] = a * y[i] + (1.0 - a) * p0
    return p


def augmented_lagrangian_ref(pi, y, lam, rho: float, x, p0, a: float) -> float:
    """Penalized objective ``pi.x + c.lam + (rho/2)||c||^2`` of the
    stationary-cost problem, with the stationarity residual
    ``c = pi - pi P`` taken against the dense P of `transition_ref`."""
    pi = np.asarray(pi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    c = pi - pi @ transition_ref(y, p0, a)
    return float(pi @ np.asarray(x, dtype=float)) + float(c @ lam) + 0.5 * rho * float(c @ c)


def session_hit_ratio_ref(y, p0, a, hit, total: int, length: int) -> float:
    """Expected hit ratio of `total` requests in sessions of `length`.

    There are ceil(total / length) sessions, the last one cut so the
    lengths sum to `total`. Each opens with a draw from `p0`, so its t-th
    request (from 0) has law ``p0 P^t`` with P from `transition_ref`, and
    hits with probability ``p0 P^t hit``; the ratio averages those terms
    over every request.
    """
    p = transition_ref(y, p0, a)
    hit = np.asarray(hit, dtype=float)
    full, rest = divmod(int(total), int(length))
    law = np.asarray(p0, dtype=float)
    hits = 0.0
    for t in range(min(int(length), int(total))):
        hits += (full + (t < rest)) * float(law @ hit)
        law = law @ p
    return hits / total


def stationary_ref(p):
    """Stationary row vector of a stochastic matrix.

    Solves (P^T - I) pi = 0 with the last equation replaced by the
    normalization sum(pi) = 1. Distinct from the package's LU pipeline.
    """
    p = np.asarray(p, dtype=float)
    k = p.shape[0]
    a = p.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def power_ref(p, tol: float = 1e-14, max_iter: int = 500_000):
    """Plain power iteration pi <- pi P from the uniform start."""
    p = np.asarray(p, dtype=float)
    k = p.shape[0]
    pi = np.full(k, 1.0 / k)
    for _ in range(max_iter):
        nxt = pi @ p
        if np.abs(nxt - pi).max() <= tol:
            return nxt
        pi = nxt
    return pi


def row_lp_oracle(x, u_row, n: int, q: float, self_idx: int):
    """Exact solution of one recommendation-row LP by vertex enumeration.

    minimize    sum_j y_j x_j
    subject to  sum_j y_j = 1, 0 <= y_j <= 1/n, y[self_idx] = 0,
                sum_j y_j u_row[j] >= q

    Every vertex pins all but at most two coordinates at a box bound;
    one free coordinate is fixed by the sum constraint, two free
    coordinates additionally activate the quality constraint. Feasible
    candidates are collected exhaustively and the best one returned.

    Returns (objective, y). Raises ValueError when infeasible.
    """
    x = np.asarray(x, dtype=float)
    u_row = np.asarray(u_row, dtype=float)
    k = x.size
    cap = 1.0 / n
    others = [j for j in range(k) if j != self_idx]
    eps = 1e-9

    best_obj = np.inf
    best_y = None

    def consider(y):
        nonlocal best_obj, best_y
        if y[self_idx] != 0.0:
            return
        if y.min() < -eps or y.max() > cap + eps:
            return
        if abs(y.sum() - 1.0) > 1e-8:
            return
        if y @ u_row < q - 1e-8:
            return
        obj = float(y @ x)
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_y = y.copy()

    # 0, cap, or free per non-self coordinate; at most two free
    for states in product((0.0, cap, None), repeat=len(others)):
        free = [others[t] for t, s in enumerate(states) if s is None]
        if len(free) > 2:
            continue
        y = np.zeros(k)
        for t, s in enumerate(states):
            if s is not None:
                y[others[t]] = s
        pinned_sum = y.sum()
        pinned_qual = y @ u_row
        if len(free) == 0:
            consider(y)
        elif len(free) == 1:
            y[free[0]] = 1.0 - pinned_sum
            consider(y)
        else:
            a, b = free
            mat = np.array([[1.0, 1.0], [u_row[a], u_row[b]]])
            rhs = np.array([1.0 - pinned_sum, q - pinned_qual])
            if abs(np.linalg.det(mat)) < 1e-12:
                continue
            y[a], y[b] = np.linalg.solve(mat, rhs)
            consider(y)

    if best_y is None:
        raise ValueError("row LP infeasible")
    return best_obj, best_y


def qp_oracle(c, quad=None, a_eq=None, b_eq=None, g=None, h=None,
              lower=None, upper=None):
    """Brute-force convex QP/LP solver by active-set enumeration.

    minimize 0.5 v^T Q v + c^T v  subject to  A v = b, G v >= h,
    lower <= v <= upper. Enumerates every assignment of box states
    (at lower bound / free / at upper bound) times every subset of
    active inequalities, solves the resulting equality-constrained
    KKT system by least squares, and keeps the best candidate that is
    feasible for the full problem. Exponential; for n <= 8 only.

    Returns (objective, v). Raises ValueError when no feasible
    candidate exists.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    quad = np.zeros((n, n)) if quad is None else np.asarray(quad, dtype=float)
    lo = np.full(n, -np.inf) if lower is None else np.broadcast_to(
        np.asarray(lower, dtype=float), (n,)).copy()
    hi = np.full(n, np.inf) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), (n,)).copy()
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(
        np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(
        np.asarray(b_eq, dtype=float))
    g = np.zeros((0, n)) if g is None else np.atleast_2d(
        np.asarray(g, dtype=float))
    h = np.zeros(0) if h is None else np.atleast_1d(
        np.asarray(h, dtype=float))
    m = g.shape[0]
    eps = 1e-8

    best_obj = np.inf
    best_v = None

    def consider(v):
        nonlocal best_obj, best_v
        if not np.all(np.isfinite(v)):
            return
        if np.any(v < lo - eps) or np.any(v > hi + eps):
            return
        if a_eq.shape[0] and np.abs(a_eq @ v - b_eq).max() > eps:
            return
        if m and np.min(g @ v - h) < -eps:
            return
        obj = float(0.5 * v @ quad @ v + c @ v)
        if obj < best_obj - 1e-13:
            best_obj = obj
            best_v = v.copy()

    for states in product((0, 1, 2), repeat=n):
        free = [i for i, s in enumerate(states) if s == 1]
        # pinning at an infinite bound is meaningless
        if any(s == 0 and not np.isfinite(lo[i]) for i, s in enumerate(states)):
            continue
        if any(s == 2 and not np.isfinite(hi[i]) for i, s in enumerate(states)):
            continue
        base = np.zeros(n)
        for i, s in enumerate(states):
            if s == 0:
                base[i] = lo[i]
            elif s == 2:
                base[i] = hi[i]
        for r in range(m + 1):
            for act in combinations(range(m), r):
                rows = np.vstack([a_eq] + [g[list(act)]]) if (
                    a_eq.shape[0] or act) else np.zeros((0, n))
                rhs = np.concatenate([b_eq, h[list(act)]])
                if not free:
                    if rows.shape[0] == 0 or np.abs(
                            rows @ base - rhs).max() <= eps:
                        consider(base)
                    continue
                f = np.array(free)
                nf = f.size
                ne = rows.shape[0]
                # KKT of the restricted equality problem
                kkt = np.zeros((nf + ne, nf + ne))
                kkt[:nf, :nf] = quad[np.ix_(f, f)]
                if ne:
                    kkt[:nf, nf:] = rows[:, f].T
                    kkt[nf:, :nf] = rows[:, f]
                rhs_full = np.concatenate([
                    -(c[f] + quad[np.ix_(f, range(n))] @ base),
                    rhs - rows @ base if ne else np.zeros(0),
                ])
                sol, *_ = np.linalg.lstsq(kkt, rhs_full, rcond=None)
                if np.abs(kkt @ sol - rhs_full).max() > 1e-7:
                    continue  # inconsistent active set
                v = base.copy()
                v[f] = sol[:nf]
                consider(v)

    if best_v is None:
        raise ValueError("QP oracle found no feasible candidate")
    return best_obj, best_v


def best_deterministic_cost(x, p0, a: float, u=None, q: float = 0.0):
    """Minimum stationary cost over all deterministic single-item matrices.

    Enumerates every Y that puts its whole row mass on one non-self
    column (respecting the quality floor when u is given), computes the
    exact stationary distribution of a*Y + (1-a)*1 p0^T, and returns the
    smallest expected cost. Exponential in K; intended for K <= 5.
    """
    x = np.asarray(x, dtype=float)
    k = x.size
    choices = []
    for i in range(k):
        allowed = [j for j in range(k) if j != i
                   and (u is None or u[i][j] >= q - 1e-12)]
        if not allowed:
            raise ValueError(f"row {i} has no admissible deterministic pick")
        choices.append(allowed)
    best = np.inf
    for pick in product(*choices):
        y = np.zeros((k, k))
        for i, j in enumerate(pick):
            y[i, j] = 1.0
        pi = stationary_ref(transition_ref(y, p0, a))
        best = min(best, float(pi @ x))
    return best


def cf_fill_ref(triples, k: int):
    """Item-based filling of a ratings table, one pair at a time.

    `triples` holds (user, item, rating). Each item's ratings are centred
    by its own mean; the similarity of two items is the cosine of their
    centred ratings over the users who rated both, 0 without a co-rater or
    with a zero norm. A missing (item, user) entry is the |w|-weighted
    average of the user's ratings on the k rated items most similar to the
    item, ranked by (-similarity, item index), or the item's mean when
    those weights sum to 0. Returns the item-by-user matrix over the sorted
    item and user ids.
    """
    by_item = {}
    for user, item, value in triples:
        by_item.setdefault(item, {})[user] = float(value)
    items = sorted(by_item)
    users = sorted({user for rated in by_item.values() for user in rated})
    mean = [sum(by_item[i].values()) / len(by_item[i]) for i in items]

    def cosine(a, b):
        ra, rb = by_item[items[a]], by_item[items[b]]
        common = [user for user in users if user in ra and user in rb]
        ca = [ra[user] - mean[a] for user in common]
        cb = [rb[user] - mean[b] for user in common]
        dot = sum(x * y for x, y in zip(ca, cb))
        denom = math.sqrt(sum(x * x for x in ca) * sum(y * y for y in cb))
        return dot / denom if denom > 0 else 0.0

    sim = [[cosine(a, b) if a != b else 0.0 for b in range(len(items))]
           for a in range(len(items))]
    out = np.empty((len(items), len(users)))
    for col, user in enumerate(users):
        rated = [j for j in range(len(items)) if user in by_item[items[j]]]
        for i in range(len(items)):
            if user in by_item[items[i]]:
                out[i, col] = by_item[items[i]][user]
                continue
            nbrs = sorted(rated, key=lambda j: (-sim[i][j], j))[:k]
            den = sum(abs(sim[i][j]) for j in nbrs)
            num = sum(sim[i][j] * by_item[items[j]][user] for j in nbrs)
            out[i, col] = num / den if den > 0 else mean[i]
    return out


def simulate_ref(y, p0, a: float, n: int, cached, u, total: int,
                 session_kind: str, session_param: float, seed: int) -> dict:
    """The session simulator stepped one session position at a time.

    The generator `np.random.default_rng(seed)` gives, in order: the
    session lengths (fixed, or geometric of mean `session_param` drawn in
    chunks until they cover `total`, the last session cut to fit), sorted
    longest first; one opener uniform per session; then at each position
    t >= 1 a block of uniforms ``v`` and a block of follow coins, one of
    each per session still running. A coin below `a` follows: from `i`,
    row i's cumulative inclusion table, rescaled to sum to `n` and placed
    at offset ``n*i`` in one array of every row's positive-mass entries,
    is inverted at ``n*(i + v)`` and clipped to row i's last entry; other
    requests invert the popularity's cumulative sum, its last entry
    pinned to 1, at ``v`` and are clipped to the last item of positive
    popularity. Quality sums ``u[i, j]`` per position over the followers,
    in session order.
    Returns the fields of `SimMetrics` as a dict.
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    k = p0.size
    rng = np.random.default_rng(seed)
    if session_kind == "fixed":
        lengths = np.full(-(-total // int(session_param)), int(session_param), dtype=np.int64)
    else:
        chunk = int(total / session_param) + 1
        parts = []
        while sum(int(part.sum()) for part in parts) < total:
            parts.append(rng.geometric(1.0 / session_param, size=chunk))
        lengths = np.concatenate(parts)
    ends = np.cumsum(lengths)
    last = int(np.searchsorted(ends, total))
    lengths = lengths[: last + 1]
    lengths[-1] -= ends[last] - total
    lengths = np.sort(lengths)[::-1]

    z = np.clip(n * y, 0.0, 1.0)
    z *= n / z.sum(axis=1, keepdims=True)
    table = np.cumsum(z, axis=1)
    table[:, -1] = n
    table += n * np.arange(k)[:, None]
    rows, cols = np.nonzero(y > 0.0)
    stacked = table[rows, cols]
    row_end = np.cumsum(np.bincount(rows, minlength=k)) - 1
    p0_cum = np.cumsum(p0)
    p0_cum[-1] = 1.0
    p0_end = np.flatnonzero(p0 > 0.0)[-1]

    current = np.minimum(np.searchsorted(p0_cum, rng.random(lengths.size), side="right"), p0_end)
    seen = [current]
    quality_sum = 0.0
    followed = 0
    for t in range(1, int(lengths[0])):
        current = current[: int((lengths > t).sum())]
        v = rng.random(current.size)
        follow = rng.random(current.size) < a
        nxt = np.minimum(np.searchsorted(p0_cum, v, side="right"), p0_end)
        src = current[follow]
        pos = np.searchsorted(stacked, n * (src + v[follow]), side="right")
        nxt[follow] = cols[np.minimum(pos, row_end[src])]
        quality_sum += float(u[src, nxt[follow]].sum())
        followed += src.size
        seen.append(nxt)
        current = nxt
    contents = np.concatenate(seen)
    hits = int(sum(int((contents == c).sum()) for c in cached))
    return dict(
        requests=int(total),
        hits=hits,
        empirical_chr=hits / total,
        mean_quality_served=quality_sum / followed if followed else 0.0,
        per_content_counts=np.bincount(contents, minlength=k),
        followed=followed,
    )
