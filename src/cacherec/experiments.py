"""Batch experiment driver.

Loads or generates a similarity catalog, sweeps the parameter grid
(list size x Zipf exponent x quality floor x cache fraction x follow
probability), runs the requested policies at every point, and writes one
CSV row per (grid point, policy). Rows are ordered by grid index then
canonical policy order, and every random draw descends from the
scenario seed, so re-running a config reproduces the CSV byte for byte
apart from the wall-clock column.
"""

import csv
import json
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .datasets import anchored_similarity, prepare_lastfm, prepare_movielens, zipf_popularity
from .markov import cache_hit_ratio
from .model import RequestModel, SimilarityMatrix, _is_real, _is_whole
from .optim import CarsConfig, CarsIterate, OptimInputs, cars_solve, myopic_solve, top_n_similarity
from .serialize import load_matrix, open_text
from .simulate import SessionConfig, simulate, top_c_cache

__all__ = [
    "SCHEMA_VERSION",
    "CANONICAL_POLICIES",
    "RESULT_COLUMNS",
    "ConfigError",
    "ScenarioConfig",
    "build_grid",
    "run_experiment",
    "write_results",
    "emit_convergence_trace",
    "TRACE_COLUMNS",
]

SCHEMA_VERSION = 2
CANONICAL_POLICIES = ("norec", "myopic", "cars")
RESULT_COLUMNS = (
    "schema_version",
    "grid_index",
    "policy",
    "list_size",
    "zipf_s",
    "quality_floor",
    "cache_fraction",
    "follow_prob",
    "catalog_size",
    "cache_size",
    "analytic_chr",
    "empirical_chr",
    "mean_quality",
    "iterations",
    "converged",
    "wall_millis",
    "seed",
    "error",
)
TRACE_COLUMNS = ("iter", *CarsIterate._fields)

# JSON keys of the "cars" and "session" objects; the warm start and the
# session seed are set per run, not by the config.
_CARS_KEYS = tuple(f.name for f in fields(CarsConfig) if f.name != "y0")
_SESSION_KEYS = tuple(f.name for f in fields(SessionConfig) if f.name != "seed")
_DATASET_KINDS = ("synthetic", "movielens", "lastfm", "matrix")


class ConfigError(ValueError):
    """A scenario configuration is malformed or inconsistent."""


def _default_session() -> SessionConfig:
    return SessionConfig(total_requests=40000, session_kind="fixed", session_param=200)


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment campaign: dataset, sweeps, policies, solver knobs.

    The grid is the Cartesian product of the five sweep lists, enumerated
    with `follow_probs` fastest and `list_sizes` slowest.
    """

    dataset: dict
    list_sizes: tuple = (4,)
    zipf_exponents: tuple = (0.6,)
    qualities: tuple = (0.8,)
    cache_fractions: tuple = (0.05,)
    follow_probs: tuple = (0.8,)
    policies: tuple = CANONICAL_POLICIES
    cars: CarsConfig = field(default_factory=CarsConfig)
    session: SessionConfig = field(default_factory=_default_session)
    seed: int = 0
    output_dir: str = ""

    def __post_init__(self):
        d = self.dataset
        if not isinstance(d, dict) or d.get("kind") not in _DATASET_KINDS:
            raise ConfigError(
                f"dataset must be a mapping with kind in {_DATASET_KINDS}"
            )
        if d["kind"] == "synthetic":
            if "size" not in d:
                raise ConfigError("synthetic dataset needs a 'size'")
            for key in ("size", "min_related", "seed"):
                if key in d and (not _is_whole(d[key]) or d[key] < 0):
                    raise ConfigError(f"synthetic {key} must be a whole number >= 0")
        elif "path" not in d:
            raise ConfigError(f"{d['kind']} dataset needs a 'path'")
        for key in ("mean_related", "theta"):
            if key in d and not (_is_real(d[key]) and -np.inf < d[key] < np.inf):
                raise ConfigError(f"{d['kind']} {key} must be a finite number")
        for name in ("list_sizes", "zipf_exponents", "qualities",
                     "cache_fractions", "follow_probs", "policies"):
            seq = tuple(getattr(self, name))
            if not seq:
                raise ConfigError(f"{name} must be a nonempty list")
            object.__setattr__(self, name, seq)
        if any(not _is_whole(n) or n < 1 for n in self.list_sizes):
            raise ConfigError("every list size must be a whole number >= 1")
        if any(not (_is_real(s) and 0.0 <= s < np.inf) for s in self.zipf_exponents):
            raise ConfigError("Zipf exponents must be finite and >= 0")
        if any(not (_is_real(q) and 0.0 <= q <= 1.0) for q in self.qualities):
            raise ConfigError("every quality floor must lie in [0, 1]")
        if any(not (_is_real(c) and 0.0 < c <= 1.0) for c in self.cache_fractions):
            raise ConfigError("every cache fraction must lie in (0, 1]")
        if any(not (_is_real(a) and 0.0 <= a < 1.0) for a in self.follow_probs):
            raise ConfigError("every follow probability must lie in [0, 1)")
        if not _is_whole(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a whole number >= 0")
        object.__setattr__(self, "seed", int(self.seed))
        unknown = set(self.policies) - set(CANONICAL_POLICIES)
        if unknown:
            raise ConfigError(
                f"unknown policies {sorted(unknown)}; choose from {CANONICAL_POLICIES}"
            )

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        """Parse a JSON config file mirroring the field names above."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")

        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        kwargs = dict(raw)
        try:
            if "cars" in kwargs:
                kwargs["cars"] = _parse_cars(kwargs["cars"])
            if "session" in kwargs:
                kwargs["session"] = _parse_session(kwargs["session"])
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc


def _parse_cars(raw) -> CarsConfig:
    if not isinstance(raw, dict):
        raise ConfigError("'cars' must be a JSON object")
    unknown = set(raw) - set(_CARS_KEYS)
    if unknown:
        raise ConfigError(f"unknown cars keys: {sorted(unknown)}")
    return CarsConfig(**raw)


def _parse_session(raw) -> SessionConfig:
    if not isinstance(raw, dict):
        raise ConfigError("'session' must be a JSON object")
    unknown = set(raw) - set(_SESSION_KEYS)
    if unknown:
        raise ConfigError(f"unknown session keys: {sorted(unknown)}")
    return replace(_default_session(), **raw)


@dataclass(frozen=True)
class _GridPoint:
    index: int
    list_size: int
    zipf_s: float
    quality: float
    cache_fraction: float
    follow_prob: float


def build_grid(cfg: ScenarioConfig):
    """Enumerate the sweep product in deterministic order."""
    points = []
    combos = product(cfg.list_sizes, cfg.zipf_exponents, cfg.qualities,
                     cfg.cache_fractions, cfg.follow_probs)
    for idx, (n, s, q, cf, a) in enumerate(combos):
        points.append(_GridPoint(idx, int(n), float(s), float(q), float(cf), float(a)))
    return points


def _similarity_for(cfg: ScenarioConfig, n: int):
    """Build the similarity catalog for one list size.

    Raw datasets are pruned with the list size as the degree floor, so
    the resulting catalog depends on it. A synthetic catalog is an
    anchored graph in which every content has more than `n` relations
    (at least `min_related`, when that is set), matching the pruning
    invariant; its mean degree defaults to that floor. A `matrix` dataset
    is a `prep-dataset` output, read as it is. A dataset that cannot be
    read or built is a `ConfigError`.
    """
    d = cfg.dataset
    kind = d["kind"]
    try:
        if kind == "synthetic":
            size = int(d["size"])
            floor = max(int(d.get("min_related", 0)), n + 1)
            mean_related = float(d.get("mean_related", floor))
            if not floor <= mean_related < size:
                raise ValueError(f"mean_related {mean_related:g} must lie in "
                                 f"[floor {floor}, size {size}) at list size {n}")
            u = anchored_similarity(size, mean_related, floor, int(d.get("seed", cfg.seed)))
        elif kind == "movielens":
            u, _, _ = prepare_movielens(d["path"], theta=float(d.get("theta", 0.6)),
                                        list_size=n)
        elif kind == "lastfm":
            u, _, _ = prepare_lastfm(d["path"], list_size=n)
        else:
            u = SimilarityMatrix(load_matrix(d["path"]))
    except (OSError, RuntimeError, ValueError) as exc:
        raise ConfigError(f"{kind} dataset: {exc}") from exc
    return u


def _row_seed(cfg: ScenarioConfig, grid_index: int, policy: str) -> int:
    """Per-(point, policy) seed, stable under policy subsetting."""
    pidx = CANONICAL_POLICIES.index(policy)
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(grid_index, pidx))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _blank_row(cfg: ScenarioConfig, pt: _GridPoint, policy: str) -> dict:
    """The results row of `policy` at `pt`, with its measured columns unset."""
    return dict.fromkeys(RESULT_COLUMNS) | {
        "schema_version": SCHEMA_VERSION,
        "grid_index": pt.index,
        "policy": policy,
        "list_size": pt.list_size,
        "zipf_s": pt.zipf_s,
        "quality_floor": pt.quality,
        "cache_fraction": pt.cache_fraction,
        "follow_prob": pt.follow_prob,
        "seed": _row_seed(cfg, pt.index, policy),
        "error": "",
    }


def _point_setup(pt: _GridPoint, u):
    """Popularity, cache and miss costs of one grid point over the
    similarity catalog `u`.

    Popularity is Zipf over the catalog, the cache holds the most popular
    contents, and every request outside it costs one.
    """
    k = u.size
    p0 = zipf_popularity(k, pt.zipf_s)
    cache = top_c_cache(p0, max(1, round(pt.cache_fraction * k)))
    x = np.ones(k)
    x[np.fromiter(cache.cached, dtype=int)] = 0.0
    return p0, cache, x


def _myopic(pt: _GridPoint, u, p0, x):
    """The point's optimizer inputs and their myopic matrix."""
    inputs = OptimInputs(u, RequestModel(p0, pt.follow_prob, pt.list_size), x, pt.quality)
    return inputs, myopic_solve(inputs)


def _cars_from(cfg: ScenarioConfig, inputs: OptimInputs, y_myopic):
    """CARS warm-started at the myopic matrix, as the `cars` row runs it.

    Best-iterate selection then keeps the CARS cost at or below the
    myopic cost. A failed subproblem raises `RuntimeError`.
    """
    result = cars_solve(inputs, replace(cfg.cars, y0=y_myopic))
    if result.message:
        raise RuntimeError(result.message)
    return result


def _point_rows(cfg: ScenarioConfig, pt: _GridPoint, u) -> list:
    """Solve and simulate every requested policy at one grid point.

    The point's popularity, cache and costs are built once, and myopic is
    solved once: its matrix is the `myopic` row's and the warm start of
    the `cars` row, and an error it raises fails both rows alike. Its
    inputs also give the `norec` row its top-N matrix. Returns
    the rows in canonical policy order. Each row's `wall_millis` times
    the work its result rests on, so the `myopic` and `cars` rows both
    include the myopic solve.
    """
    policies = [p for p in CANONICAL_POLICIES if p in cfg.policies]
    p0, cache, x = _point_setup(pt, u)
    myopic, myopic_s = None, 0.0
    if "myopic" in policies or "cars" in policies:
        start = time.perf_counter()
        try:
            myopic = _myopic(pt, u, p0, x)
        except Exception as exc:  # noqa: BLE001 - becomes both rows' error
            myopic = exc
        myopic_s = time.perf_counter() - start

    rows = []
    for policy in policies:
        row = _blank_row(cfg, pt, policy)
        start = time.perf_counter()
        try:
            iterations = 0
            if policy == "norec":
                model = RequestModel(p0, 0.0, pt.list_size)
                # the top-N selection depends only on the similarity and N
                inputs = myopic[0] if isinstance(myopic, tuple) else OptimInputs(u, model, x, 0.0)
                y = top_n_similarity(inputs)
                analytic = float(np.asarray(p0)[sorted(cache.cached)].sum())
            else:
                if isinstance(myopic, Exception):
                    raise myopic
                inputs, y = myopic
                model = inputs.model
                if policy == "cars":
                    result = _cars_from(cfg, inputs, y)
                    y = result.best_y
                    iterations = result.iterations
                    row["converged"] = result.converged
                analytic = cache_hit_ratio(y, model, cache.cached)

            sim_cfg = replace(cfg.session, seed=row["seed"])
            metrics = simulate(y, model, cache, u, sim_cfg)
            row.update(
                catalog_size=u.size,
                cache_size=cache.capacity,
                analytic_chr=analytic,
                empirical_chr=metrics.empirical_chr,
                mean_quality=metrics.mean_quality_served,
                iterations=iterations,
            )
        except Exception as exc:  # noqa: BLE001 - per-point failures become CSV rows
            row["error"] = f"{type(exc).__name__}: {exc}"
        shared = myopic_s if policy != "norec" else 0.0
        row["wall_millis"] = (time.perf_counter() - start + shared) * 1000.0
        rows.append(row)
    return rows


def run_experiment(cfg: ScenarioConfig):
    """Run the full grid, one point after another, and return result rows
    in deterministic order.

    Failures at individual grid points are captured in each row's
    `error` column; the sweep always completes. When `output_dir` is set
    the rows are also written to ``results.csv`` inside it.
    """
    grid = build_grid(cfg)
    sims = {n: _similarity_for(cfg, n) for n in sorted({pt.list_size for pt in grid})}
    rows = [row for pt in grid for row in _point_rows(cfg, pt, sims[pt.list_size])]
    if cfg.output_dir:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_results(rows, out / "results.csv")
    return rows


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def _write_csv(dest, columns, rows) -> None:
    """Write a header and the rows' values, floats in 17 digits, to `dest`,
    a path or an open text stream."""
    with open_text(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_results(rows, path) -> None:
    """Write result rows as CSV with the fixed, versioned column set."""
    _write_csv(path, RESULT_COLUMNS, ([row[c] for c in RESULT_COLUMNS] for row in rows))


def emit_convergence_trace(cfg: ScenarioConfig, dest=None):
    """Run the `cars` solve of the first grid point, dump its trace.

    The solve is the sweep's: CARS warm-started at the myopic solution,
    so the trace's best cost is the cost of that point's `cars` row. The
    CSV has one row per iterate: its index, then its `CarsIterate` (the
    true cost of the matrix, the cost at the auxiliary distribution, the
    squared stationarity residual, and the multiplier norm). Returns the
    rows.
    """
    pt = build_grid(cfg)[0]
    u = _similarity_for(cfg, pt.list_size)
    p0, _, x = _point_setup(pt, u)
    result = _cars_from(cfg, *_myopic(pt, u, p0, x))

    rows = [(i, *entry) for i, entry in enumerate(result.trace)]
    if dest is None and cfg.output_dir:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        dest = Path(cfg.output_dir) / "trace.csv"
    if dest is not None:
        _write_csv(dest, TRACE_COLUMNS, rows)
    return rows
