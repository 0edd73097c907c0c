"""Independent checks of the program's outputs.

Nothing here imports `cacherec`. Every check recomputes what it needs with
numpy and scipy, or tests a property the method must have, and returns a
list of failure messages; an empty list is a pass.
"""

import numpy as np

FEAS_TOL = 1e-6      # row sums, box, diagonal and quality floors
LP_TOL = 1e-6        # myopic row cost against the scipy row LP optimum
CHR_TOL = 1e-9       # analytic CHR and cost against our own linear solve
SIGMAS = 5.0         # width of the normal sampling bounds
TAIL = 1e-9          # tail mass outside the exact binomial interval
HOEFFDING = 3.0      # served-quality slack 3/sqrt(F): tail <= exp(-18)


def zipf(k, s):
    """Rank-r mass proportional to r**(-s), most popular first."""
    w = np.arange(1, k + 1, dtype=float) ** (-s)
    return w / w.sum()


def top_c(p0, c):
    """Indices of the `c` most popular items, lowest index on ties."""
    return np.lexsort((np.arange(p0.size), -p0))[:c]


def miss_cost(k, cached):
    x = np.ones(k)
    x[np.asarray(list(cached), dtype=int)] = 0.0
    return x


def stationary(y, p0, a):
    """Solve pi^T (I - aY) = (1-a) p0^T with numpy's dense solver."""
    k = p0.size
    pi = np.linalg.solve(np.eye(k) - a * np.asarray(y, dtype=float).T, (1.0 - a) * p0)
    return pi / pi.sum()


def rec_matrix(y, n, u, q, label):
    """Row-stochastic, entries in [0, 1/N], zero diagonal, floor q met."""
    y = np.asarray(y, dtype=float)
    bad = []
    if y.ndim != 2 or y.shape[0] != y.shape[1] or y.shape != np.shape(u):
        return [f"{label}: shape {y.shape} is not square K x K"]
    checks = (
        ("row sum", np.abs(y.sum(axis=1) - 1.0)),
        ("entry above 1/N", (y - 1.0 / n).max(axis=1)),
        ("negative entry", (-y).max(axis=1)),
        ("diagonal", np.abs(np.diag(y))),
        ("quality below floor", q - (y * np.asarray(u, dtype=float)).sum(axis=1)),
    )
    for what, excess in checks:
        rows = np.flatnonzero(excess > FEAS_TOL)
        if rows.size:
            i = int(rows[0])
            bad.append(f"{label}: {what} in {rows.size} rows, first row {i} "
                       f"by {excess[i]:.3e}")
    return bad


def myopic_rows(y, x, u, n, q, label):
    """Each row's one-step cost equals the optimum of its row LP.

    The LP is min x.y s.t. sum y = 1, 0 <= y <= 1/N, y_ii = 0, u_i.y >= q,
    solved by scipy's HiGHS for every row.
    """
    from scipy.optimize import linprog  # imported here to keep it out of set-up time

    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    k = y.shape[0]
    ones = np.ones((1, k))
    bad = []
    for i in range(k):
        upper = np.full(k, 1.0 / n)
        upper[i] = 0.0
        res = linprog(x, A_ub=-u[i][None, :], b_ub=[-q], A_eq=ones, b_eq=[1.0],
                      bounds=np.column_stack([np.zeros(k), upper]), method="highs")
        if res.status != 0:
            bad.append(f"{label}: row {i} LP reference failed: {res.message}")
            continue
        gap = float(y[i] @ x) - res.fun
        if abs(gap) > LP_TOL:
            bad.append(f"{label}: row {i} one-step cost {y[i] @ x:.9f} vs LP "
                       f"optimum {res.fun:.9f}")
    return bad[:5]


def close(value, reference, tol, label):
    if not abs(value - reference) <= tol:
        return [f"{label}: {value!r} differs from {reference!r} by more than {tol:g}"]
    return []


def at_most(value, limit, label):
    if not value <= limit:
        return [f"{label}: {value!r} exceeds {limit!r}"]
    return []


def mixing_inflation(a):
    """Variance inflation of a hit count on a chain mixed with weight a.

    Every eigenvalue but one of ``aY + (1-a) 1 p0^T`` has modulus at most
    a, so lag-t autocorrelations are at most a**t and the variance of a
    sum grows by at most (1 + a) / (1 - a) over independent draws.
    """
    return (1.0 + a) / (1.0 - a)


def chr_sampling_bound(requests, a, session_len=None):
    """Bound on |empirical - analytic stationary CHR|.

    Five standard deviations of a Bernoulli(1/2) mean inflated for
    mixing, plus, for sessions of fixed length L that start from p0, the
    transient bias sum_t a**t / L <= 1 / ((1 - a) L).
    """
    bound = SIGMAS * np.sqrt(mixing_inflation(a) * 0.25 / requests)
    if session_len is not None:
        bound += 1.0 / ((1.0 - a) * session_len)
    return float(bound)


def geometric_session_chr(y, p0, a, hit, mean_len):
    """Expected CHR of geometric sessions: sum_t g^t p0^T P^t h / m.

    g = 1 - 1/m is the chance a session goes on after a request and
    P = aY + (1-a) 1 p0^T; the sum runs until g^t drops below 1e-16.
    """
    p = a * np.asarray(y, dtype=float) + (1.0 - a) * p0[None, :]
    g = 1.0 - 1.0 / mean_len
    r = p0.copy()
    weight = 1.0
    total = 0.0
    while weight > 1e-16:
        total += weight * float(r @ hit)
        r = r @ p
        weight *= g
    return total / mean_len


def binomial_hits(hits, requests, p, label):
    """Hit count of independent requests inside the exact binomial interval."""
    from scipy.stats import binom  # imported here to keep it out of set-up time

    lo = binom.ppf(TAIL, requests, p)
    hi = binom.isf(TAIL, requests, p)
    if not lo <= hits <= hi:
        return [f"{label}: {hits} hits of {requests} outside the binomial "
                f"interval [{lo:.0f}, {hi:.0f}] at p={p:.6f}"]
    return []


def served_quality(mean_quality, followed, q, label):
    """Mean similarity over followed steps is at least the floor.

    Every row meets the floor, so each followed step has conditional mean
    at least q; by Azuma-Hoeffding the mean of F steps falls below
    q - 3/sqrt(F) with probability at most exp(-18).
    """
    if followed <= 0:
        return [f"{label}: no followed recommendations to check"]
    floor = q - FEAS_TOL - HOEFFDING / np.sqrt(followed)
    if not mean_quality >= floor:
        return [f"{label}: served quality {mean_quality:.6f} below {floor:.6f}"]
    return []


def sweep_rows(rows, scenario, catalog_size):
    """Checks of the sweep's results.csv against the scenario that made it.

    Returns (failed row keys, messages). A row fails when it is missing,
    repeated, carries an error, or breaks one of its checks.
    """
    session = scenario["session"]
    requests = int(session["total_requests"])
    length = float(session["session_param"])
    policies = scenario["policies"]
    points = [(n, s, q, cf, a)
              for n in scenario["list_sizes"] for s in scenario["zipf_exponents"]
              for q in scenario["qualities"] for cf in scenario["cache_fractions"]
              for a in scenario["follow_probs"]]
    by_key = {}
    bad = []
    failed = set()
    for r in rows:
        key = (int(r["grid_index"]), r["policy"])
        if key in by_key:
            bad.append(f"results row {key} repeated")
            failed.add(key)
        by_key[key] = r
    for gi, (_, s, q, cf, a) in enumerate(points):
        for pol in policies:
            key = (gi, pol)
            r = by_key.get(key)
            if r is None:
                bad.append(f"results row {key} missing")
                failed.add(key)
                continue
            if r["error"]:
                bad.append(f"results row {key} failed: {r['error']}")
                failed.add(key)
                continue
            label = f"row {gi} {pol}"
            msgs = []
            msgs += close(int(r["catalog_size"]), catalog_size, 0, f"{label} catalog_size")
            analytic = float(r["analytic_chr"])
            empirical = float(r["empirical_chr"])
            c = max(1, round(cf * catalog_size))
            p0 = zipf(catalog_size, s)
            if pol == "norec":
                msgs += close(analytic, float(p0[top_c(p0, c)].sum()), CHR_TOL,
                              f"{label} analytic CHR vs Zipf mass of the top {c}")
                msgs += binomial_hits(round(empirical * requests), requests,
                                      float(p0[top_c(p0, c)].sum()), label)
            else:
                msgs += at_most(abs(empirical - analytic),
                                chr_sampling_bound(requests, a, length),
                                f"{label} |empirical - analytic CHR|")
                # followed steps: a of the non-opening requests, less 10 %
                followed = 0.9 * a * requests * (1.0 - 1.0 / length)
                msgs += served_quality(float(r["mean_quality"]), followed, q, label)
            if pol == "cars" and (gi, "myopic") in by_key:
                myopic = by_key[gi, "myopic"]
                if not myopic["error"]:
                    msgs += at_most(float(myopic["analytic_chr"]) - analytic, 1e-12,
                                    f"{label} myopic CHR above cars CHR")
            if msgs:
                failed.add(key)
                bad += msgs
    extra = set(by_key) - {(gi, pol) for gi in range(len(points)) for pol in policies}
    for key in sorted(extra):
        bad.append(f"results row {key} not in the grid")
    return failed, bad
