"""The three workloads: inputs, the timed operation, and its checks.

A workload object is built in the worker's set-up, after `cacherec` is
imported; `run_round` is the timed operation, repeated in whole rounds;
`collect` reads what a round left on disk, outside the timed region;
`check` runs every independent check on one round's outputs and returns
the set of failed operations with the messages. Operations are solves,
simulations and results rows.
"""

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

import checks
from inputs import CATALOG_B, SWEEP_SCENARIO, SWEEP_THREADS, stream_seeds


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class _Verified:
    """Skips the row-LP reference for a matrix it already verified."""

    def __init__(self):
        self._seen = {}

    def myopic_rows(self, y, x, u, n, q, label):
        key = _digest(y, x, u, [n, q])
        if key not in self._seen:
            self._seen[key] = checks.myopic_rows(y, x, u, n, q, label)
        return self._seen[key]


class _Workload:
    ops = ()

    def collect(self, out):
        pass

    def cell_ms_max(self, out):
        return 0.0


class CarsLarge(_Workload):
    """Criterion 04's instance: myopic, then CARS warm-started from it.

    The instance does not depend on the seed. Relabeling its contents by
    the seed moves myopic's lowest-index tie-breaking, and with it the
    analytic CHR by about 5 %, which would leave `chr` too wide to guard
    solution quality.
    """

    name = "cars-large"
    ops = ("myopic_solve", "cars_solve")
    K, MEAN_RELATED, MIN_RELATED, GRAPH_SEED = 757, 12.0, 5, 11
    ZIPF_S, FOLLOW, LIST_SIZE, CACHE_FRACTION, QUALITY = 0.6, 0.8, 4, 0.05, 0.8
    # two CARS iterations, each Y-step QP capped at 50 gradient steps
    CARS = dict(max_iter=2, multiplier_step=1.0, subproblem_max_iter=50)

    def __init__(self, cr, seed, files):
        self.cr = cr
        k = self.K
        self.u = cr.anchored_similarity(k, self.MEAN_RELATED, self.MIN_RELATED,
                                        seed=self.GRAPH_SEED)
        self.p0 = cr.zipf_popularity(k, self.ZIPF_S)
        self.model = cr.RequestModel(self.p0, self.FOLLOW, self.LIST_SIZE)
        self.cache = cr.top_c_cache(self.p0, round(self.CACHE_FRACTION * k))
        self.x = checks.miss_cost(k, self.cache.cached)
        self.inputs = cr.OptimInputs(self.u, self.model, self.x, self.QUALITY)
        self.verified = _Verified()

    def run_round(self):
        cr = self.cr
        y_m = cr.myopic_solve(self.inputs)
        chr_m = cr.cache_hit_ratio(y_m, self.model, self.cache.cached)
        res = cr.cars_solve(self.inputs, cr.CarsConfig(y0=y_m, **self.CARS))
        return {"y_myopic": np.asarray(y_m), "chr_myopic": chr_m,
                "best_y": np.asarray(res.best_y), "best_cost": res.best_cost,
                "message": res.message}

    def check(self, out):
        u, n, q, x, a = self.u.values, self.LIST_SIZE, self.QUALITY, self.x, self.FOLLOW
        p0 = np.asarray(self.p0, dtype=float)
        myopic = checks.rec_matrix(out["y_myopic"], n, u, q, "myopic")
        myopic += self.verified.myopic_rows(out["y_myopic"], x, u, n, q, "myopic")
        myopic_cost = float(checks.stationary(out["y_myopic"], p0, a) @ x)
        myopic += checks.close(out["chr_myopic"], 1.0 - myopic_cost, checks.CHR_TOL,
                               "myopic analytic CHR")
        cars = checks.rec_matrix(out["best_y"], n, u, q, "cars best_y")
        if out["message"]:
            cars.append(f"cars stopped: {out['message']}")
        own = float(checks.stationary(out["best_y"], p0, a) @ x)
        cars += checks.close(out["best_cost"], own, checks.CHR_TOL,
                             "cars best_cost vs stationary cost of best_y")
        cars += checks.at_most(out["best_cost"], myopic_cost + 1e-12,
                               "cars best_cost vs its myopic warm start")
        failed = {op for op, msgs in zip(self.ops, (myopic, cars)) if msgs}
        return failed, myopic + cars

    def chr(self, out):
        return 0.5 * (out["chr_myopic"] + 1.0 - out["best_cost"])


class SweepStandin(_Workload):
    """`cacherec run --threads 1` over criterion 05's stand-in catalog_b."""

    name = "sweep-standin"

    def __init__(self, cr, seed, files):
        import cacherec.cli  # noqa: F401 - the entry point is part of set-up
        self.cr = cr
        self.config = files["config"]
        self.out_dir = Path(files["config"]).parent / "sweep_out"
        grid = math.prod(len(SWEEP_SCENARIO[key]) for key in (
            "list_sizes", "zipf_exponents", "qualities", "cache_fractions", "follow_probs"))
        self.ops = tuple((gi, pol) for gi in range(grid)
                         for pol in SWEEP_SCENARIO["policies"])

    def run_round(self):
        results = self.out_dir / "results.csv"
        results.unlink(missing_ok=True)
        code = self.cr.cli.main(["run", "--config", self.config, "--out",
                                 str(self.out_dir), "--threads", str(SWEEP_THREADS)])
        return {"code": code, "results": results}

    def collect(self, out):
        if out["results"].exists():
            with open(out["results"], newline="", encoding="utf-8") as fh:
                out["rows"] = list(csv.DictReader(fh))

    def check(self, out):
        if "rows" not in out:
            return set(self.ops), [f"cacherec run exited {out['code']} without "
                                   f"{out['results']}"]
        failed, msgs = checks.sweep_rows(out["rows"], SWEEP_SCENARIO, CATALOG_B["size"])
        if out["code"] != (2 if failed else 0):
            msgs.append(f"cacherec run exited {out['code']} with {len(failed)} failed rows")
        return failed, msgs

    def _rows(self, out, policies):
        return [r for r in out.get("rows", ()) if r["policy"] in policies and not r["error"]]

    def chr(self, out):
        vals = [float(r["analytic_chr"]) for r in self._rows(out, ("myopic", "cars"))]
        return sum(vals) / len(vals) if vals else 0.0

    def cell_ms_max(self, out):
        return max((float(r["wall_millis"]) for r in self._rows(out, SWEEP_SCENARIO["policies"])),
                   default=0.0)


class SessionsMl(_Workload):
    """Generated MovieLens ratings: prepare, then myopic and short sessions."""

    name = "sessions-ml"
    THETA, LIST_SIZE, ZIPF_S, CACHE_FRACTION, QUALITY = 0.6, 4, 0.6, 0.05, 0.8
    FOLLOW_PROBS = (0.5, 0.8)
    REQUESTS, MEAN_SESSION = 200_000, 4
    ops = ("myopic_solve a=0.5", "simulate a=0.5", "myopic_solve a=0.8",
           "simulate a=0.8", "simulate norec")

    def __init__(self, cr, seed, files):
        self.cr = cr
        self.ratings = files["ratings"]
        self.seeds = stream_seeds(seed, len(self.FOLLOW_PROBS) + 1)
        self.verified = _Verified()

    def _session(self, seed):
        return self.cr.SessionConfig(self.REQUESTS, "geometric", self.MEAN_SESSION, seed=seed)

    def run_round(self):
        cr = self.cr
        u, _, _ = cr.prepare_movielens(self.ratings, theta=self.THETA,
                                       list_size=self.LIST_SIZE)
        k = u.size
        p0 = cr.zipf_popularity(k, self.ZIPF_S)
        cache = cr.top_c_cache(p0, round(self.CACHE_FRACTION * k))
        x = checks.miss_cost(k, cache.cached)
        out = {"u": np.asarray(u), "myopic": []}
        for a, seed in zip(self.FOLLOW_PROBS, self.seeds):
            model = cr.RequestModel(p0, a, self.LIST_SIZE)
            y = cr.myopic_solve(cr.OptimInputs(u, model, x, self.QUALITY))
            chr_a = cr.cache_hit_ratio(y, model, cache.cached)
            sim = cr.simulate(y, model, cache, u, self._session(seed))
            out["myopic"].append((a, np.asarray(y), chr_a, sim))
        model = cr.RequestModel(p0, 0.0, self.LIST_SIZE)
        y0 = cr.top_n_similarity(cr.OptimInputs(u, model, x, 0.0))
        out["norec"] = (np.asarray(y0), cr.simulate(y0, model, cache, u,
                                                    self._session(self.seeds[-1])))
        return out

    def check(self, out):
        u = out["u"]
        k = u.shape[0]
        n, q = self.LIST_SIZE, self.QUALITY
        p0 = checks.zipf(k, self.ZIPF_S)
        cached = checks.top_c(p0, round(self.CACHE_FRACTION * k))
        msgs_by_op = {}
        x = checks.miss_cost(k, cached)
        hit = 1.0 - x
        for i, (a, y, chr_a, sim) in enumerate(out["myopic"]):
            label = f"myopic a={a}"
            solve = checks.rec_matrix(y, n, u, q, label)
            solve += self.verified.myopic_rows(y, x, u, n, q, label)
            solve += checks.close(chr_a, float(checks.stationary(y, p0, a) @ hit),
                                  checks.CHR_TOL, f"{label} analytic CHR")
            expected = checks.geometric_session_chr(y, p0, a, hit, self.MEAN_SESSION)
            a_eff = a * (1.0 - 1.0 / self.MEAN_SESSION)
            sim_msgs = checks.close(sim.requests, self.REQUESTS, 0, f"{label} requests")
            sim_msgs += checks.at_most(abs(sim.empirical_chr - expected),
                                       checks.chr_sampling_bound(self.REQUESTS, a_eff),
                                       f"{label} |empirical - expected geometric CHR|")
            sim_msgs += checks.served_quality(sim.mean_quality_served, sim.followed, q, label)
            msgs_by_op.setdefault(self.ops[2 * i], []).extend(solve)
            msgs_by_op.setdefault(self.ops[2 * i + 1], []).extend(sim_msgs)
        y0, sim0 = out["norec"]
        norec = checks.rec_matrix(y0, n, u, 0.0, "norec top-N")
        norec += checks.close(sim0.requests, self.REQUESTS, 0, "norec requests")
        norec += checks.binomial_hits(sim0.hits, sim0.requests, float(p0[cached].sum()),
                                      "norec hits")
        msgs_by_op.setdefault(self.ops[4], []).extend(norec)
        failed = {op for op, msgs in msgs_by_op.items() if msgs}
        return failed, [m for msgs in msgs_by_op.values() for m in msgs]

    def chr(self, out):
        vals = [chr_a for _, _, chr_a, _ in out["myopic"]]
        return sum(vals) / len(vals)


WORKLOADS = {w.name: w for w in (CarsLarge, SweepStandin, SessionsMl)}
