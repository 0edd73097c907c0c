"""Input files that the benchmark makes from its seed.

Nothing here imports `cacherec`: the program sees only what these
functions write. `python3 perfbench/inputs.py --seed N --out DIR`
regenerates every input file of every workload.
"""

import argparse
import json
from pathlib import Path

import numpy as np

# Criterion 05's popularity-assortative Last.fm-format stand-in `catalog_b`.
CATALOG_B = dict(size=120, extra_mean=7.0, min_degree=5, bias=0.45, seed=132)

# The sweep-standin scenario: criterion 05's quality x cache-fraction grid,
# cut to the four points around (q=0.9, C/K=0.08). The CARS iteration and
# subproblem caps bound the work of each cell, so a run is steady; the
# session length is criterion 05's. One thread: with two, the sweep was
# slower (median 8.03 s against 6.05 s over ten seeds) and varied more
# from run to run (quartile spread 10.5 % against 7.7 % of the median).
SWEEP_THREADS = 1
SWEEP_SCENARIO = dict(
    list_sizes=[4],
    zipf_exponents=[0.6],
    qualities=[0.8, 0.9],
    cache_fractions=[0.05, 0.08],
    follow_probs=[0.8],
    policies=["norec", "myopic", "cars"],
    cars=dict(max_iter=3, multiplier_step=1.0, subproblem_max_iter=1000),
    session=dict(total_requests=20000, session_kind="fixed", session_param=200),
)

# The sessions-ml ratings: users with one latent taste cluster each rate
# mostly items of that cluster highly; a few items are rated at random, so
# they relate to nothing and the pruning has work to do.
RATINGS = dict(users=600, items=450, noise_items=40, clusters=15,
               per_user=100, own_share=0.7)


def write_assortative_triplets(path, size, extra_mean, min_degree, bias, seed):
    """Relatedness stand-in whose edges favour popular items.

    Each item relates to ``min_degree + Poisson(extra_mean)`` others, drawn
    with probability proportional to a Zipf weight. Zero-padded ids keep
    the loader's sorted order aligned with popularity rank, and the degree
    floor exceeds the list size, so preparation prunes nothing.
    """
    rng = np.random.default_rng(seed)
    w = np.arange(1, size + 1, dtype=float) ** -bias
    lines = []
    for i in range(size):
        deg = min(min_degree + rng.poisson(extra_mean), size - 1)
        probs = w.copy()
        probs[i] = 0.0
        probs /= probs.sum()
        for j in rng.choice(size, size=deg, replace=False, p=probs):
            lines.append(f"it{i:04d}\tit{j:04d}\t1.0")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep_config(path, triplets, seed):
    """Scenario config over the stand-in; `seed` seeds every session."""
    cfg = dict(SWEEP_SCENARIO, dataset={"kind": "lastfm", "path": str(triplets)},
               seed=int(seed))
    Path(path).write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")


def write_movielens(path, seed, users, items, noise_items, clusters, per_user,
                    own_share):
    """MovieLens-format `userId,movieId,rating,timestamp` file.

    Item i belongs to taste cluster i mod `clusters`, so every cluster
    holds popular and unpopular items alike. Every user belongs to one
    cluster, rates about `own_share` of `per_user` items inside it near 4.5
    and the rest near 2.0. The last `noise_items` items belong to no
    cluster and get uniform ratings.
    """
    rng = np.random.default_rng(seed)
    cluster_of = np.arange(items) % clusters
    cluster_of[items - noise_items:] = -1
    lines = ["userId,movieId,rating,timestamp"]
    for uid in range(1, users + 1):
        c = rng.integers(clusters)
        own = np.flatnonzero(cluster_of == c)
        other = np.flatnonzero(cluster_of != c)
        n_own = min(own.size, int(rng.binomial(per_user, own_share)))
        picks = np.concatenate([rng.choice(own, n_own, replace=False),
                                rng.choice(other, per_user - n_own, replace=False)])
        base = np.where(cluster_of[picks] == c, 4.5, 2.0)
        base = np.where(cluster_of[picks] < 0, rng.uniform(0.5, 5.0, picks.size), base)
        stars = np.clip(np.round((base + rng.normal(0.0, 0.6, picks.size)) * 2) / 2,
                        0.5, 5.0)
        stamps = rng.integers(900_000_000, 1_600_000_000, size=picks.size)
        lines.extend(f"{uid},{it + 1},{r:.1f},{t}"
                     for it, r, t in zip(picks, stars, stamps))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def stream_seeds(seed, count):
    """Independent 63-bit seeds for the simulations of one run."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s >> np.uint64(1)) for s in state]


def write_inputs(workload, seed, out):
    """Write the files `workload` reads into `out`; return their paths."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    if workload == "sweep-standin":
        files["triplets"] = out / "catalog_b.tsv"
        files["config"] = out / "sweep.json"
        write_assortative_triplets(files["triplets"], **CATALOG_B)
        write_sweep_config(files["config"], files["triplets"].resolve(), seed)
    elif workload == "sessions-ml":
        files["ratings"] = out / "ratings.csv"
        write_movielens(files["ratings"], seed, **RATINGS)
    return {name: str(p.resolve()) for name, p in files.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for workload in ("sweep-standin", "sessions-ml"):
        for path in write_inputs(workload, args.seed, Path(args.out) / workload).values():
            print(path)


if __name__ == "__main__":
    main()
