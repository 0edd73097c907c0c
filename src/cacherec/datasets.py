"""Input builders: rating-based, triplet-based and synthetic similarity.

The rating pipeline fills a sparse ratings table by item-to-item
collaborative filtering, computes item-centered cosine similarities,
thresholds them to a binary relatedness matrix and prunes contents with
too few relations so every quality floor stays attainable. The anchored
generator draws synthetic catalogs that meet a relation floor by
construction, for the dataset-free experiments.
"""

import csv
import logging
import time
from dataclasses import dataclass

import numpy as np

from .model import PopularityVector, SimilarityMatrix

__all__ = [
    "RatingsTable",
    "cf_fill",
    "cosine_similarity",
    "binarize",
    "symmetrize_max",
    "prune_with_stats",
    "anchored_similarity",
    "zipf_popularity",
    "load_movielens_csv",
    "load_lastfm_triplets",
    "prepare_movielens",
    "prepare_lastfm",
]

_log = logging.getLogger("cacherec")


@dataclass(frozen=True)
class RatingsTable:
    """User-item-rating triples on a declared rating scale."""

    user_ids: np.ndarray
    item_ids: np.ndarray
    ratings: np.ndarray
    scale: tuple = (0.5, 5.0)

    def __post_init__(self):
        users = np.asarray(self.user_ids)
        items = np.asarray(self.item_ids)
        ratings = np.asarray(self.ratings, dtype=float)
        if not (users.size == items.size == ratings.size):
            raise ValueError("user, item and rating columns must align")
        if users.size == 0:
            raise ValueError("ratings table is empty")
        lo, hi = self.scale
        if not (ratings.min() >= lo and ratings.max() <= hi):  # NaN fails too
            raise ValueError(f"ratings must lie in [{lo}, {hi}]")
        # dense indices into the distinct ids, kept for `cf_fill`; one int64
        # key per pair from them rather than from raw ids, so it cannot
        # overflow whatever the ids are
        user_vals, user_idx = np.unique(users, return_inverse=True)
        item_vals, item_idx = np.unique(items, return_inverse=True)
        key = np.sort(user_idx.astype(np.int64) * item_vals.size + item_idx)
        if (key[1:] == key[:-1]).any():
            raise ValueError("duplicate (user, item) pairs")
        for arr in (user_vals, item_vals, user_idx, item_idx):
            arr.flags.writeable = False
        for name, value in (("user_ids", users), ("item_ids", items), ("ratings", ratings),
                            ("_users", user_vals), ("_items", item_vals),
                            ("_user_idx", user_idx), ("_item_idx", item_idx)):
            object.__setattr__(self, name, value)

    @property
    def users(self) -> np.ndarray:
        """Distinct user ids, ascending (read-only)."""
        return self._users

    @property
    def items(self) -> np.ndarray:
        """Distinct item ids, ascending (read-only)."""
        return self._items


def _item_item_similarity(r: np.ndarray, observed: np.ndarray):
    """Cosine over co-rated, item-mean-centered rating vectors.

    For every item pair the dot product and both norms run over the
    users who rated both items; entries centered by each item's overall
    mean rating. Pairs with no co-rater or a zero norm score 0. Returns
    the similarity and the item means (0 for an item without ratings).
    """
    counts = observed.sum(axis=1)
    means = np.where(counts > 0, (r * observed).sum(axis=1) / np.maximum(counts, 1), 0.0)
    centered = (r - means[:, None]) * observed
    dot = centered @ centered.T
    sq = centered * centered
    # norm of item i restricted to the users that also rated item j
    norm2 = sq @ observed.T
    denom = np.sqrt(norm2 * norm2.T)
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(denom > 0, dot / np.where(denom > 0, denom, 1.0), 0.0)
    np.fill_diagonal(sim, 0.0)
    return sim, means


def cf_fill(table: RatingsTable, k: int = 10) -> np.ndarray:
    """Complete the item-by-user rating matrix by item-based filtering.

    Missing entries become the similarity-weighted average of the user's
    ratings on the `k` >= 1 most similar items (cosine over co-rated,
    mean-centered vectors), each weight's magnitude in the denominator;
    existing ratings are untouched. Equal similarity goes to the lower
    item index, which is the lower item id. When no neighbor carries
    weight the item's mean rating is used.

    Returns the dense item-by-user matrix, rows aligned with
    ``table.items`` and columns with ``table.users``.
    """
    items = table.items
    users = table.users
    if items.size < 2:
        raise ValueError("need at least two items to fill by item similarity")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    r = np.zeros((items.size, users.size))
    observed = np.zeros_like(r, dtype=bool)
    pos = (table._item_idx, table._user_idx)
    r[pos] = table.ratings
    observed[pos] = True

    sim, item_mean = _item_item_similarity(r, observed)

    # order[i] lists every item by (-sim[i, j], j): a stable sort keeps
    # equal similarities in index order. rank_t[j, i] is the place of j in
    # order[i], so the k best rated neighbors of i are the k rated items
    # of smallest rank, taken back through order; sim_ord holds their
    # weights in the same places.
    size = items.size
    ids = np.arange(size, dtype=np.int32)
    order = np.argsort(-sim, axis=1, kind="stable").astype(np.int32)
    rank_t = np.empty_like(order)
    rank_t[order, ids[:, None]] = ids
    sim_ord = np.take_along_axis(sim, order, axis=1)
    r_t = r.T.copy()

    out = r.copy()
    for uj in range(users.size):
        rated = np.flatnonzero(observed[:, uj])
        missing = np.flatnonzero(~observed[:, uj])
        if missing.size == 0 or rated.size == 0:
            out[missing, uj] = item_mean[missing]
            continue
        ranks = rank_t[rated][:, missing].T
        if rated.size > k:
            # the ranks in a row are distinct, so these are exactly the k smallest
            ranks = np.partition(ranks, k - 1, axis=1)[:, :k]
        ranks.sort(axis=1)
        # flat offsets into the missing rows of order and sim_ord
        at = missing[:, None] * size + ranks
        nbr = order.take(at)
        w = sim_ord.take(at)
        vals = r_t[uj].take(nbr)
        denom = np.abs(w).sum(axis=1)
        num = (w * vals).sum(axis=1)
        pred = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), item_mean[missing])
        out[missing, uj] = pred
    return out


def cosine_similarity(m: np.ndarray) -> np.ndarray:
    """Item-centered cosine similarity of a complete rating matrix.

    Each row is centered by its own mean; rows with zero centered norm
    get similarity 0 to everything. Values lie in [-1, 1] with a zero
    diagonal (a raw score matrix, not yet a relatedness matrix).
    """
    r = np.asarray(m, dtype=float)
    centered = r - r.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    sim = (centered @ centered.T) / np.outer(safe, safe)
    sim[norms == 0, :] = 0.0
    sim[:, norms == 0] = 0.0
    np.fill_diagonal(sim, 0.0)
    return np.clip(sim, -1.0, 1.0)


def symmetrize_max(s: np.ndarray) -> np.ndarray:
    """Element-wise max with the transpose; relatedness is pairwise."""
    s = np.asarray(s, dtype=float)
    return np.maximum(s, s.T)


def binarize(s: np.ndarray, theta: float = 0.6) -> SimilarityMatrix:
    """Threshold raw scores to a binary relatedness matrix.

    An entry becomes 1 iff it exceeds `theta` strictly; the diagonal is
    forced to 0.
    """
    sv = np.asarray(s, dtype=float)
    u = (sv > theta).astype(float)
    np.fill_diagonal(u, 0.0)
    return SimilarityMatrix(u)


def prune_with_stats(u: SimilarityMatrix, n: int):
    """Remove contents with row sum <= n until none remain below.

    Removing a content lowers other rows' sums, so the rule iterates to
    a fixpoint. Returns the compacted matrix, the old-to-new id mapping
    (in ascending order of both) and the number of sweeps performed.
    """
    uv = np.asarray(u, dtype=float)
    k = uv.shape[0]
    keep = np.ones(k, dtype=bool)
    sweeps = 0
    while True:
        sums = (uv * np.outer(keep, keep)).sum(axis=1)
        drop = keep & (sums <= n)
        if not drop.any():
            break
        keep &= ~drop
        sweeps += 1
        if not keep.any():
            raise ValueError(f"pruning at N={n} removed the whole catalog")
    kept = np.flatnonzero(keep)
    mapping = {int(old): new for new, old in enumerate(kept)}
    return SimilarityMatrix(uv[np.ix_(kept, kept)]), mapping, sweeps


def anchored_similarity(k: int, mean_related: float, min_related: int, seed: int = 0) -> SimilarityMatrix:
    """Random binary relatedness with a guaranteed per-content floor.

    A random cycle provides degree 2, random matchings lift every content
    to `min_related` relations, and random extra pairs raise the mean to
    `mean_related`. This is the generator of the sweep's `synthetic`
    dataset kind.
    """
    if not (0 <= min_related < k):
        raise ValueError("min_related must lie in [0, size)")
    if mean_related < min_related or mean_related >= k:
        raise ValueError("mean_related must lie in [min_related, size)")
    rng = np.random.default_rng(seed)
    adj = np.zeros((k, k), dtype=bool)

    perm = rng.permutation(k)
    adj[perm, np.roll(perm, -1)] = True
    adj |= adj.T
    np.fill_diagonal(adj, False)

    guard = 0
    while adj.sum(axis=1).min() < min_related:
        order = rng.permutation(k)
        for a, b in zip(order[0::2], order[1::2]):
            if a != b and not adj[a, b] and (
                adj[a].sum() < min_related or adj[b].sum() < min_related
            ):
                adj[a, b] = adj[b, a] = True
        guard += 1
        if guard > 50 * max(1, min_related):
            raise RuntimeError("could not reach the relation floor")

    target_pairs = int(round(mean_related * k / 2.0))
    iu = np.triu_indices(k, 1)
    absent = np.flatnonzero(~adj[iu])
    deficit = target_pairs - int(adj[iu].sum())
    if deficit > 0 and absent.size:
        extra = rng.choice(absent, size=min(deficit, absent.size), replace=False)
        adj[iu[0][extra], iu[1][extra]] = True
        adj |= adj.T
    return SimilarityMatrix(adj.astype(float))


def zipf_popularity(k: int, s: float) -> PopularityVector:
    """Power-law popularity: rank-r mass proportional to ``r**(-s)``.

    Ranks follow the content index order, so entry 0 is the most popular.
    """
    if s < 0:
        raise ValueError("exponent must be >= 0")
    w = np.arange(1, k + 1, dtype=float) ** (-s)
    return PopularityVector(w / w.sum())


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------

_RATING_ROW = np.dtype([("user", np.int64), ("item", np.int64), ("rating", np.float64)])


def _rating_columns(reader) -> list:
    """Read the header row from `reader`; the userId, movieId and rating indices."""
    header = next(reader, [])
    try:
        return [header.index(name) for name in ("userId", "movieId", "rating")]
    except ValueError:
        raise ValueError(
            f"expected columns userId,movieId,rating[,timestamp], got {header}"
        ) from None


def load_movielens_csv(path) -> RatingsTable:
    """Read a `userId,movieId,rating,timestamp` CSV with a header row.

    Columns are found by the header. A well-formed file is parsed in one
    numpy pass. Anything numpy cannot parse (a non-ASCII byte, `1_0`, an
    id past int64, a short row, ...) is read again by the row reader,
    which accepts what Python's `int` and `float` accept and names the
    line of the first row it cannot read. So is a file that holds an
    ASCII separator \\x1c-\\x1f, which numpy strips around a number as
    whitespace and `int` and `float` reject.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if any(sep in raw for sep in b"\x1c\x1d\x1e\x1f"):
        _log.debug("load_movielens_csv %s: the row reader ran, the file holds an "
                   "ASCII separator \\x1c-\\x1f", path)
        return _read_rating_rows(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        cols = _rating_columns(reader)
        header_lines = reader.line_num
        has_rows = any(reader)
    rows = np.empty(0, _RATING_ROW)
    if has_rows:  # numpy warns on a file without data rows
        try:
            # With quotechar, numpy splits quoted fields as csv.reader does;
            # skiprows skips the header's physical lines. ASCII only:
            # numpy's integer parser reads some non-ASCII letters as
            # digits.
            rows = np.loadtxt(path, _RATING_ROW, delimiter=",", comments=None,
                              skiprows=header_lines, usecols=cols, quotechar='"',
                              encoding="ascii", ndmin=1)
        except ValueError as exc:
            _log.debug("load_movielens_csv %s: the row reader ran, numpy could not parse "
                       "the file: %s: %s", path, type(exc).__name__, exc)
            return _read_rating_rows(path)
    return RatingsTable(rows["user"], rows["item"], rows["rating"])


def _read_rating_rows(path) -> RatingsTable:
    """Read the ratings CSV row by row with `csv.reader`, `int` and `float`.

    The reader of record for the files the numpy pass leaves to it, and the
    reference that `load_movielens_csv`'s numpy pass is tested against.
    """
    users, items, ratings = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        iu, ii, ir = _rating_columns(reader)
        for row in reader:
            if not row:
                continue
            try:
                users.append(int(row[iu]))
                items.append(int(row[ii]))
                ratings.append(float(row[ir]))
            except (IndexError, ValueError):
                raise ValueError(
                    f"line {reader.line_num}: expected integer userId and movieId "
                    f"and a numeric rating, got {','.join(row)!r}"
                ) from None
    return RatingsTable(np.asarray(users), np.asarray(items), np.asarray(ratings))


def load_lastfm_triplets(path):
    """Read `idA<TAB>idB<TAB>score` lines into a symmetric score matrix.

    Returns the matrix and the sorted id list defining its indices.
    Conflicting directed scores resolve by element-wise max.
    """
    pairs = []
    ids = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected idA<TAB>idB<TAB>score")
            try:
                score = float(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: score {parts[2]!r} is not a number") from None
            a, b = parts[0], parts[1]
            pairs.append((a, b, score))
            ids.add(a)
            ids.add(b)
    if not pairs:
        raise ValueError("similarity file is empty")
    id_list = sorted(ids)
    pos = {v: i for i, v in enumerate(id_list)}
    s = np.zeros((len(id_list), len(id_list)))
    for a, b, score in pairs:
        i, j = pos[a], pos[b]
        if i != j:
            s[i, j] = max(s[i, j], score)
    return symmetrize_max(s), id_list


def prepare_movielens(path, theta: float = 0.6, list_size: int = 4):
    """Full rating pipeline: fill, cosine, threshold, prune.

    Returns the pruned relatedness matrix, the surviving item ids and a
    provenance dictionary describing every stage. Logs each stage's
    seconds at DEBUG on the ``cacherec`` logger.
    """
    t0 = time.perf_counter()
    table = load_movielens_csv(path)
    t1 = time.perf_counter()
    filled = cf_fill(table, k=10)
    t2 = time.perf_counter()
    u = binarize(symmetrize_max(cosine_similarity(filled)), theta)
    t3 = time.perf_counter()
    seconds = {"load": t1 - t0, "fill": t2 - t1, "similarity": t3 - t2}
    return _prune_and_describe(u, table.items.tolist(), list_size, seconds, source=str(path),
                               kind="movielens", ratings=int(table.ratings.size), theta=theta)


def prepare_lastfm(path, list_size: int = 4):
    """Triplet pipeline: load, positive-threshold, prune.

    Logs each stage's seconds at DEBUG on the ``cacherec`` logger.
    """
    t0 = time.perf_counter()
    s, ids = load_lastfm_triplets(path)
    t1 = time.perf_counter()
    u = binarize(s, 0.0)
    t2 = time.perf_counter()
    return _prune_and_describe(u, ids, list_size, {"load": t1 - t0, "similarity": t2 - t1},
                               source=str(path), kind="lastfm", theta=0.0)


def _prune_and_describe(u, ids, list_size, seconds, **provenance):
    """The shared tail of the preparation pipelines.

    Prunes `u` at `list_size`, lists the ids of the kept rows (`ids[i]`
    is the id of row i of `u`) and completes the `provenance` record. Logs
    every stage's seconds, pruning last, at DEBUG on the ``cacherec``
    logger.
    """
    t0 = time.perf_counter()
    pruned, mapping, sweeps = prune_with_stats(u, list_size)
    seconds["prune"] = time.perf_counter() - t0
    _log.debug("prepare_%s %s: %s", provenance["kind"], provenance["source"],
               ", ".join(f"{stage} {s:.3f} s" for stage, s in seconds.items()))
    provenance.update(list_size=list_size, prune_sweeps=sweeps, catalog_size=pruned.size)
    return pruned, [ids[old] for old in mapping], provenance
