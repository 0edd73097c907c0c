"""Monte-Carlo engine for the sequential request model.

Sessions start from the popularity distribution; each later request
follows the recommender with the model's follow probability and reverts
to the popularity otherwise. A follow picks uniformly from a list drawn
by systematic (circular start) sampling with inclusion masses
``N * y_i``, and item ``j`` lands in that list with probability
``N * y_ij``; so the followed item is ``j`` with probability
``N * y_ij / N = y_ij``, and the simulator draws it as one inverse-CDF
draw from row ``y_i`` without building the list. `sample_rec_list`
builds the list itself when the whole list is wanted.

`simulate` steps every session in lockstep: all session lengths are
drawn first, the sessions are ordered longest first, and each position
in a session is a handful of numpy operations over the sessions still
running. All randomness flows from one seeded generator, so runs are
bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .model import PopularityVector, RecMatrix, RequestModel, SimilarityMatrix

__all__ = [
    "CachePlacement",
    "SessionConfig",
    "SimMetrics",
    "top_c_cache",
    "sample_rec_list",
    "simulate",
]


@dataclass(frozen=True)
class CachePlacement:
    """A fixed set of locally cached contents."""

    cached: frozenset
    capacity: int

    def __post_init__(self):
        cached = frozenset(int(c) for c in self.cached)
        if len(cached) != self.capacity:
            raise ValueError(
                f"placement holds {len(cached)} contents, capacity is {self.capacity}"
            )
        object.__setattr__(self, "cached", cached)


@dataclass(frozen=True)
class SessionConfig:
    """Request-generation plan: volume, session-length law, seed."""

    total_requests: int
    session_kind: str = "fixed"
    session_param: float = 200
    seed: int = 0

    def __post_init__(self):
        if self.total_requests < 1:
            raise ValueError("total_requests must be >= 1")
        if self.session_kind not in ("fixed", "geometric"):
            raise ValueError("session_kind must be 'fixed' or 'geometric'")
        if self.session_param < 1:
            raise ValueError("session_param must be >= 1")


@dataclass(frozen=True)
class SimMetrics:
    """Counters and derived rates from one simulation run."""

    requests: int
    hits: int
    empirical_chr: float
    mean_quality_served: float
    per_content_counts: np.ndarray
    followed: int = 0

    def __post_init__(self):
        counts = np.asarray(self.per_content_counts)
        if int(counts.sum()) != self.requests:
            raise ValueError("per-content counts must sum to the request count")
        object.__setattr__(self, "per_content_counts", counts)


def top_c_cache(p0: PopularityVector, c: int) -> CachePlacement:
    """Cache the `c` most popular contents, lowest index on ties."""
    p = np.asarray(p0, dtype=float)
    if not (0 <= c <= p.size):
        raise ValueError(f"capacity {c} out of range for K={p.size}")
    order = np.lexsort((np.arange(p.size), -p))
    return CachePlacement(frozenset(int(i) for i in order[:c]), c)


def sample_rec_list(y_row, n: int, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw exactly `n` distinct items with inclusion probabilities ``n*y``.

    Systematic sampling: one uniform start u, thresholds u, u+1, ...,
    u+n-1 against the cumulative inclusion probabilities. Because each
    inclusion probability is at most 1, no item can catch two thresholds,
    and each item's marginal probability equals its inclusion mass
    exactly. With `size`, returns a ``(size, n)`` array of lists drawn
    from one table and one ``rng.random(size)``; they equal the lists of
    `size` single calls.
    """
    y = np.asarray(y_row, dtype=float)
    z = n * y
    lo, hi, total = z.min(), z.max(), z.sum()
    if lo < -1e-9 or hi > 1.0 + 1e-6 or abs(total - n) > 1e-6 * n:
        raise ValueError(
            f"infeasible inclusion marginals: sum {total:.9f} (need {n}), "
            f"max {hi:.9f} (cap 1)"
        )
    if lo < 0.0 or hi > 1.0:
        np.clip(z, 0.0, 1.0, out=z)
        total = z.sum()
    cum = _inclusion_table(z, n, total)
    starts = rng.random() if size is None else rng.random(size)
    picks = np.searchsorted(cum, np.add.outer(starts, np.arange(n)), side="right")
    lists = picks.reshape(-1, n)
    end = lists[:, -1] == y.size  # threshold rounded onto the table's end
    if end.any():
        lists[end, -1] = np.flatnonzero(y > 0.0)[-1]
    if n > 1:
        for d in np.flatnonzero((lists[:, 1:] <= lists[:, :-1]).any(axis=1)):  # pragma: no cover
            lists[d] = _dedupe(lists[d], y)  # roundoff pathologies only
    return picks


def _inclusion_table(z, n: int, total) -> np.ndarray:
    """Cumulative inclusion masses of a row (or of each row), built in place.

    `z` holds ``n*y`` already clipped to [0, 1] and `total` its row sums.
    Each row is rescaled to sum to exactly `n`, and its last edge is
    pinned to `n` against roundoff, so the systematic thresholds u, u+1,
    ..., u+n-1 always land inside the table.
    """
    np.multiply(z, n / total, out=z)
    np.cumsum(z, axis=-1, out=z)
    z[..., -1] = n
    return z


def _dedupe(picks, y):
    """Deterministically repair duplicate picks (roundoff edge case)."""
    used = set()
    out = []
    for p in picks:
        p = int(p)
        while p in used or y[p] <= 0.0:
            p = (p + 1) % y.size
        used.add(p)
        out.append(p)
    return np.asarray(sorted(out))


def _session_lengths(cfg: SessionConfig, rng: np.random.Generator) -> np.ndarray:
    """Session lengths summing to exactly ``cfg.total_requests``, longest first.

    Fixed sessions all have length ``session_param``; geometric lengths
    with mean ``session_param`` are drawn in chunks until they cover the
    total. Either way the last session is cut so the lengths sum to the
    total.
    """
    total = cfg.total_requests
    if cfg.session_kind == "fixed":
        length = int(cfg.session_param)
        lengths = np.full(-(-total // length), length, dtype=np.int64)
    else:
        chunk = int(total / cfg.session_param) + 1
        parts = []
        drawn = 0
        while drawn < total:
            parts.append(rng.geometric(1.0 / cfg.session_param, size=chunk))
            drawn += int(parts[-1].sum())
        lengths = np.concatenate(parts)
    ends = np.cumsum(lengths)
    last = int(np.searchsorted(ends, total))
    lengths = lengths[: last + 1]
    lengths[-1] -= ends[last] - total
    return np.sort(lengths)[::-1]


def simulate(
    y: RecMatrix,
    m: RequestModel,
    cache: CachePlacement,
    u: SimilarityMatrix,
    cfg: SessionConfig,
) -> SimMetrics:
    """Run sessions until the configured number of requests is consumed.

    Every session opens with a draw from the popularity; each subsequent
    request follows the recommender with probability a and reverts to
    the popularity otherwise. A follow from `i` is a draw from row
    ``y_i``, which is the law of a uniform pick from a systematic list
    with inclusion masses ``N * y_i`` (see the module docstring).
    Quality is averaged over followed transitions only.

    All sessions advance together. The generator first gives the session
    lengths, then one uniform per session for its opener; then, at each
    position t >= 1, one uniform ``v`` and one follow coin per session
    still running. A follower from `i` inverts row i's cumulative table
    at ``N * v``; the others invert the popularity at ``v``. The
    positive-mass entries of every row's table, shifted up by ``N * i``,
    form one increasing array, so one `np.searchsorted` serves all
    followers.
    """
    yv = np.asarray(y, dtype=float)
    uv = np.asarray(u, dtype=float)
    p0 = np.asarray(m.popularity, dtype=float)
    k = p0.size
    if yv.shape != (k, k) or uv.shape != (k, k):
        raise ValueError("matrix sizes disagree with the model")
    n = m.list_size
    a = m.follow_prob
    is_cached = np.zeros(k, dtype=bool)
    if cache.cached:
        is_cached[np.fromiter(cache.cached, dtype=int)] = True

    # the positive-mass columns of every row, row after row, with row i's
    # cumulative table shifted up by N*i: one increasing array
    rows, cols = np.nonzero(yv > 0.0)
    z = np.clip(n * yv, 0.0, 1.0)
    table = _inclusion_table(z, n, z.sum(axis=-1, keepdims=True))
    table += n * np.arange(k)[:, None]
    stacked = table[rows, cols]
    # a threshold rounded past a row's end is clipped back to the row's
    # last entry, never into the next row or onto a zero-mass column
    row_end = np.cumsum(np.bincount(rows, minlength=k)) - 1
    p0_cum = np.cumsum(p0)
    p0_cum[-1] = 1.0

    rng = np.random.default_rng(cfg.seed)
    lengths = _session_lengths(cfg, rng)
    # live[t]: sessions longer than t; longest first, they are a prefix
    live = lengths.size - np.cumsum(np.bincount(lengths))

    total = cfg.total_requests
    contents = np.empty(total, dtype=np.int64)
    current = np.searchsorted(p0_cum, rng.random(lengths.size), side="right")
    contents[: current.size] = current
    done = current.size
    quality_sum = 0.0
    followed = 0
    for t in range(1, lengths[0]):
        running = live[t]
        current = current[:running]
        v = rng.random(running)
        follow = rng.random(running) < a
        stay = ~follow
        nxt = np.empty_like(current)
        nxt[stay] = np.searchsorted(p0_cum, v[stay], side="right")
        src = current[follow]
        pos = np.searchsorted(stacked, n * (src + v[follow]), side="right")
        dst = cols[np.minimum(pos, row_end[src])]
        nxt[follow] = dst
        quality_sum += float(uv[src, dst].sum())
        followed += src.size
        contents[done : done + running] = nxt
        done += running
        current = nxt

    hits = int(is_cached[contents].sum())
    return SimMetrics(
        requests=total,
        hits=hits,
        empirical_chr=hits / total,
        mean_quality_served=quality_sum / followed if followed else 0.0,
        per_content_counts=np.bincount(contents, minlength=k),
        followed=followed,
    )
