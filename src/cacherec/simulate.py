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

Every draw, a follow, an opener, a fall-back or a list threshold, is
one lookup in a `_Rows` table, with one row-end rule: a key rounded past
a row's last positive-mass entry picks that entry, so no draw lands on
a zero-mass item. The lookup is a guide table, which gives exactly the
index `np.searchsorted` gives. `simulate` draws a whole run up front, in
the order of stepping the session positions one by one, and returns
what that stepping returns. Openers and fall-backs do not depend on the
chain's state, so they are one popularity lookup; follows then advance
by their depth in the follow run that an opener or fall-back starts,
all runs together. All randomness flows from one seeded generator, so
runs are bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .model import (PopularityVector, RecMatrix, RequestModel, SimilarityMatrix,
                    _cache_index, _is_real, _is_whole)

__all__ = [
    "CachePlacement",
    "SessionConfig",
    "SimMetrics",
    "top_c_cache",
    "sample_rec_list",
    "simulate",
]

# slots per popularity lookup in `simulate`: a run of only fall-backs
# would otherwise make the lookup's temporaries several times the run's size
_BLOCK = 1 << 15


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
        if not _is_whole(self.total_requests) or self.total_requests < 1:
            raise ValueError("total_requests must be a whole number >= 1")
        object.__setattr__(self, "total_requests", int(self.total_requests))
        if self.session_kind not in ("fixed", "geometric"):
            raise ValueError("session_kind must be 'fixed' or 'geometric'")
        if not (_is_real(self.session_param) and 1 <= self.session_param < np.inf):
            raise ValueError("session_param must be finite and >= 1")
        if self.session_kind == "fixed" and not _is_whole(self.session_param):
            raise ValueError("a fixed session_param is a length: it must be a whole number")


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
    exactly. The thresholds are looked up in the row table of
    `simulate`'s follows, with its row-end rule: one rounded past the
    last positive-mass item picks that item. With `size`, returns a
    ``(size, n)`` array of lists drawn from one table and one
    ``rng.random(size)``; they equal the lists of `size` single calls.
    """
    y = np.asarray(y_row, dtype=float)
    z = n * y
    lo, hi, total = z.min(), z.max(), z.sum()
    if lo < -1e-9 or hi > 1.0 + 1e-6 or abs(total - n) > 1e-6 * n:
        raise ValueError(
            f"infeasible inclusion marginals: sum {total:.9f} (need {n}), "
            f"max {hi:.9f} (cap 1)"
        )
    starts = rng.random() if size is None else rng.random(size)
    picks = _follow_rows(z[None], n).pick(0, np.add.outer(starts, np.arange(n)))
    lists = picks.reshape(-1, n)
    if n > 1:
        # an entry at the 1/N cap in a row that sums up to 1e-6 short is
        # rescaled past 1, and two thresholds can pick it
        for d in np.flatnonzero((lists[:, 1:] <= lists[:, :-1]).any(axis=1)):
            lists[d] = _dedupe(lists[d], y)
    return picks


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


class _GuideTable:
    """Exact ``np.searchsorted(cum, keys, side="right")`` by a guide table.

    A guide table (Chen & Asau 1974; Devroye 1986, section III.2.4)
    splits ``[0, cum[-1]]`` into ``cum.size`` equal buckets and records
    where each bucket's entries start. Keys and entries go through the
    same monotone bucket map ``floor(x * scale)``, so every entry of an
    earlier bucket is at or below a key and every entry of a later bucket
    is above it: a key's answer lies among its own bucket's entries.
    Bisection by halving power-of-two steps finds it there in
    ``ceil(log2(max occupancy + 1))`` passes for every key; a probe past
    the bucket meets a larger entry, or the +inf padding past the end.
    The result equals `np.searchsorted` for any nondecreasing,
    nonnegative `cum` with a positive last entry, and any keys >= 0.
    """

    def __init__(self, cum):
        self.scale = cum.size / cum[-1]
        counts = np.bincount((cum * self.scale).astype(np.intp))
        self.last = counts.size - 1  # keys above every entry share the last bucket
        self.starts = np.cumsum(counts) - counts
        self.passes = int(counts.max()).bit_length()
        self.cum = np.append(cum, np.full(2**self.passes, np.inf))

    def search(self, keys) -> np.ndarray:
        bucket = (keys * self.scale).astype(np.intp)
        np.minimum(bucket, self.last, out=bucket)
        found = self.starts[bucket]
        for p in reversed(range(self.passes)):
            step = 1 << p
            # the step's last entry: cum[found + step - 1]
            found += (self.cum[step - 1:][found] <= keys) * step
        return found


class _Rows:
    """Rows of masses laid end to end as one inverse-CDF table.

    Row i of `z` (overwritten) holds nonnegative masses that sum to
    `span` up to roundoff. Its cumulative sums, the last pinned to
    `span`, are shifted up by ``span * i``; the positive-mass entries of
    every row, row after row, then form one increasing array, which one
    `_GuideTable` inverts.
    """

    def __init__(self, z, span):
        rows, self.cols = np.nonzero(z > 0.0)
        np.cumsum(z, axis=-1, out=z)
        z[:, -1] = span
        z += span * np.arange(z.shape[0])[:, None]
        self.table = _GuideTable(z[rows, self.cols])
        self.row_end = np.cumsum(np.bincount(rows, minlength=z.shape[0])) - 1

    def pick(self, src, keys) -> np.ndarray:
        """Row `src`'s column at each key ``span * (src + v)``, v in [0, 1).

        A key rounded past the row's last positive-mass entry picks that
        entry, never a zero-mass column or the next row.
        """
        pos = self.table.search(keys)
        return self.cols[np.minimum(pos, self.row_end[src], out=pos)]


def _follow_rows(z, n: int) -> _Rows:
    """The table of inclusion masses ``z = n * y`` (overwritten), each row
    clipped to [0, 1] and rescaled to sum to the list size `n`."""
    np.clip(z, 0.0, 1.0, out=z)
    z *= n / z.sum(axis=-1, keepdims=True)
    return _Rows(z, n)


def _session_lengths(cfg: SessionConfig, rng: np.random.Generator) -> np.ndarray:
    """Session lengths summing to exactly ``cfg.total_requests``, as drawn.

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
    return lengths


def _request_slots(cfg: SessionConfig, a: float):
    """A run's request slots and their draws, in `simulate`'s draw order.

    Slots list the requests position by position: the openers, then
    position t's requests in session order, one for each of the ``live[t]``
    sessions longer than t. Sessions are ordered longest first, so those
    are a prefix, and only the count of each length matters. Returns
    `live`; each slot's opener or ``v`` uniform; whether it follows (coin
    below `a`), with one more False entry for slot `total`; and `nxt`,
    the slot of the same session's next request or `total`.
    """
    rng = np.random.default_rng(cfg.seed)
    lengths = _session_lengths(cfg, rng)
    sessions = lengths.size
    live = (sessions - np.cumsum(np.bincount(lengths))).astype(np.int32)
    del lengths
    total = cfg.total_requests
    uniform = np.empty(total)
    uniform[:sessions] = rng.random(sessions)
    draws = rng.random(2 * (total - sessions))
    is_v = np.repeat(np.resize([True, False], 2 * live.size - 2), np.repeat(live[1:], 2))
    np.compress(is_v, draws, out=uniform[sessions:])
    follows = np.zeros(total + 1, dtype=bool)
    np.compress(~is_v, draws < a, out=follows[sessions:total])
    del draws, is_v
    later = np.arange(sessions, total, dtype=np.int32)
    nxt = np.full(total, total, dtype=np.int32)
    nxt[later - np.repeat(live[:-1], live[1:])] = later
    return live, uniform, follows, nxt


def _position_sums(quality, follows, live) -> float:
    """Sum the follows' `quality` position by position, as `np.sum` sums
    each position's block and the blocks add up in order.

    `quality` lists the follows in slot order and `follows` flags the
    slots after the openers. np.sum adds a block's values to 0.0
    pairwise, and reduceat starts from a segment's first value: with a
    0.0 opening each position's segment, the block sums are the same.
    """
    sizes = live[1:-1]
    counts = np.add.reduceat(follows, np.cumsum(sizes) - sizes, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    total = 0.0
    for block in np.add.reduceat(np.insert(quality, starts, 0.0),
                                 starts + np.arange(starts.size)).tolist():
        total += block
    return total


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

    Draw order, which fixes the request stream of a seed: the session
    lengths; one uniform per session for its opener, sessions taken
    longest first; then, for each position t >= 1, one uniform ``v`` per
    session still running at t and after them one follow coin per such
    session, in the same order. A request whose coin is below a follows:
    from `i`, it looks up row i of the follow table at ``N * (i + v)``;
    the others look up the popularity at ``v``. The generator gives the
    same doubles however the calls are split, so one call for the openers
    and one for every position's ``v`` and coin blocks give the stream of
    per-position calls.

    Order of work: the openers and fall-backs are popularity lookups
    over blocks of slots, since none depends on the chain's state. The
    follows then advance by their depth in the follow run that an opener
    or fall-back starts: all runs take their first follow together, then
    their second, and so on. All rows of ``N * y`` form one `_Rows`
    table, so one lookup per depth serves every follower; the popularity
    is a one-row `_Rows` table. Every draw thus takes the same lookup and
    row-end rule, and none lands on an item of zero popularity or zero
    ``y_ij``. Quality is summed per position in session order, as
    stepping the positions one by one would sum it. An entry with
    ``N * y_ij`` above 1 (by more than 1e-6) has no such list, and raises
    `ValueError`, as do cached ids outside the catalog.
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
    is_cached[_cache_index(cache.cached, k)] = True
    top = n * yv.max()  # equals (n * yv).max(): rounding is monotone
    if top > 1.0 + 1e-6:
        raise ValueError(
            f"infeasible inclusion marginals: max {top:.9f} (cap 1) at list size {n}"
        )
    follow = _follow_rows(n * yv, n)
    popularity = _Rows(p0[None].copy(), 1)

    total = cfg.total_requests
    live, uniform, follows, nxt = _request_slots(cfg, a)
    # openers and fall-backs, block by block
    contents = np.empty(total, dtype=np.int32)
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        roots = ~follows[lo:hi]
        contents[lo:hi][roots] = popularity.pick(0, uniform[lo:hi][roots])
    roots = ~follows[:total]
    slots, src = nxt[roots].astype(np.intp), contents[roots]
    del roots
    while slots.size:
        # `slots` holds the follows of one depth; `src` their sources.
        # Each slot's uniform is read once; the slot then keeps the
        # follow's quality there
        keep = follows[slots]
        slots, src = slots[keep], src[keep]
        dst = follow.pick(src, n * (src + uniform[slots]))
        uniform[slots] = uv[src, dst]
        contents[slots] = src = dst
        slots = nxt[slots].astype(np.intp)
    quality = uniform[follows[:total]]
    del uniform
    followed = quality.size
    quality_sum = _position_sums(quality, follows[live[0]:total], live)

    hits = int(is_cached[contents].sum())
    return SimMetrics(
        requests=total,
        hits=hits,
        empirical_chr=hits / total,
        mean_quality_served=quality_sum / followed if followed else 0.0,
        per_content_counts=np.bincount(contents, minlength=k),
        followed=followed,
    )
