"""Monte-Carlo engine for the sequential request model.

Sessions start from the popularity distribution; each later request
follows the recommender with the model's follow probability, picking
uniformly from a recommendation list drawn by systematic (circular
start) sampling so each item's inclusion probability is exactly
``N * y_ij``. All randomness flows from one seeded generator, so runs
are bit-reproducible.
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


def sample_rec_list(y_row, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw exactly `n` distinct items with inclusion probabilities ``n*y``.

    Systematic sampling: one uniform start u, thresholds u, u+1, ...,
    u+n-1 against the cumulative inclusion probabilities. Because each
    inclusion probability is at most 1, no item can catch two thresholds,
    and each item's marginal probability equals its inclusion mass
    exactly.
    """
    y = np.asarray(y_row, dtype=float)
    z = n * y
    if z.min() < -1e-9 or z.max() > 1.0 + 1e-6 or abs(z.sum() - n) > 1e-6 * n:
        raise ValueError(
            f"infeasible inclusion marginals: sum {z.sum():.9f} (need {n}), "
            f"max {z.max():.9f} (cap 1)"
        )
    cum = _inclusion_table(y, n)
    picks = np.searchsorted(cum, rng.random() + np.arange(n), side="right")
    picks = np.minimum(picks, y.size - 1)
    if np.unique(picks).size != n:  # pragma: no cover - roundoff pathologies only
        picks = _dedupe(picks, z)
    return picks


def _inclusion_table(y, n: int) -> np.ndarray:
    """Cumulative inclusion masses of a row (or of each row) of `y`.

    ``n*y`` is clipped to [0, 1] and rescaled to sum to exactly `n`, and
    the last edge is pinned to `n` against roundoff, so the systematic
    thresholds u, u+1, ..., u+n-1 always land inside the table.
    """
    z = np.clip(n * y, 0.0, 1.0)
    cum = np.cumsum(z * (n / z.sum(axis=-1, keepdims=True)), axis=-1)
    cum[..., -1] = n
    return cum


def _dedupe(picks, z):
    """Deterministically repair duplicate picks (roundoff edge case)."""
    used = set()
    out = []
    for p in picks:
        p = int(p)
        while p in used or z[p] <= 0.0:
            p = (p + 1) % z.size
        used.add(p)
        out.append(p)
    return np.asarray(sorted(out))


def simulate(
    y: RecMatrix,
    m: RequestModel,
    cache: CachePlacement,
    u: SimilarityMatrix,
    cfg: SessionConfig,
) -> SimMetrics:
    """Run sessions until the configured number of requests is consumed.

    Every session opens with a draw from the popularity; each subsequent
    request follows a fresh recommendation list with probability a
    (picking uniformly within it) and reverts to the popularity
    otherwise. Quality is averaged over followed transitions only.
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

    row_cum = _inclusion_table(yv, n)
    p0_cum = np.cumsum(p0)
    p0_cum[-1] = 1.0

    rng = np.random.default_rng(cfg.seed)
    offsets = np.arange(n)

    total = cfg.total_requests
    contents = np.empty(total, dtype=np.int64)
    quality_sum = 0.0
    followed = 0
    step = 0
    while step < total:
        if cfg.session_kind == "fixed":
            length = int(cfg.session_param)
        else:
            length = int(rng.geometric(1.0 / cfg.session_param))
        length = min(length, total - step)
        current = int(np.searchsorted(p0_cum, rng.random(), side="right"))
        contents[step] = current
        step += 1
        for _ in range(length - 1):
            if rng.random() < a:
                picks = np.searchsorted(
                    row_cum[current], rng.random() + offsets, side="right"
                )
                nxt = int(min(picks[rng.integers(n)], k - 1))
                quality_sum += uv[current, nxt]
                followed += 1
            else:
                nxt = int(np.searchsorted(p0_cum, rng.random(), side="right"))
            contents[step] = nxt
            current = nxt
            step += 1

    hits = int(is_cached[contents].sum())
    return SimMetrics(
        requests=total,
        hits=hits,
        empirical_chr=hits / total,
        mean_quality_served=quality_sum / followed if followed else 0.0,
        per_content_counts=np.bincount(contents, minlength=k),
        followed=followed,
    )
