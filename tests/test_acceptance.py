"""Acceptance suite: end-to-end checks of solver quality, policy behavior,
simulation consistency, and constraint compliance.

Each criterion prints one PASS/FAIL line; conftest.py replays those lines
in the terminal summary so they stay visible under output capture. Every
random draw is seeded, so all measured quantities are reproducible.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from cacherec import (
    CarsConfig,
    OptimInputs,
    RecMatrix,
    RequestModel,
    ScenarioConfig,
    SessionConfig,
    SimilarityMatrix,
    anchored_similarity,
    cache_hit_ratio,
    cars_solve,
    myopic_solve,
    quality_of,
    run_experiment,
    sample_rec_list,
    simulate,
    stationary_direct,
    top_c_cache,
    top_n_similarity,
    validate_rec_matrix,
    zipf_popularity,
)
from cacherec import experiments
from cacherec.qp import _project_capped
from oracles import (
    best_deterministic_cost,
    power_ref,
    row_lp_oracle,
    session_hit_ratio_ref,
    transition_ref,
)

_REPORT = []

# every optimizer output produced below: (label, rec matrix, similarity, floor)
_OPTIMIZER_OUTPUTS = []

# what each criterion-05 grid row simulated: catalog -> session seed ->
# (rec matrix, model, cache, session config)
_GRID_SESSIONS = {}


def _report(num: int, passed: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if passed else 'FAIL'} - {detail}"
    _REPORT.append(line)
    print(line)


def _register(label: str, y, u, q: float) -> None:
    _OPTIMIZER_OUTPUTS.append((label, y, u, float(q)))


def one_step_cost(y, inputs) -> float:
    p0 = np.asarray(inputs.model.popularity, dtype=float)
    a = inputs.model.follow_prob
    x = np.asarray(inputs.cost, dtype=float)
    return float(p0 @ (a * np.asarray(y, dtype=float) @ x + (1.0 - a) * float(p0 @ x)))


def random_row(rng, k: int, n: int, i: int) -> np.ndarray:
    """A uniform draw projected onto row i's polytope: caps 1/N, none on i."""
    upper = np.full(k, 1.0 / n)
    upper[i] = 0.0
    return _project_capped(rng.uniform(size=k), upper)[0]


def miss_cost_vector(k: int, cached) -> np.ndarray:
    x = np.ones(k)
    x[sorted(cached)] = 0.0
    return x


def write_assortative_triplets(path, size, extra_mean, min_degree, bias, seed):
    """Deterministic relatedness stand-in with popularity-assortative edges.

    Related sets drawn with probability proportional to a Zipf weight,
    mirroring how co-consumption similarity concentrates on popular
    items in real catalogs. Zero-padded ids keep the loader's sorted
    order aligned with popularity rank, and the degree floor exceeds
    the pruning floor so the catalog survives preparation intact.
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


def test_criterion_01_stationary_solvers_agree():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    combos = [(k, a) for k in (5, 50, 500) for a in (0.2, 0.5, 0.9)]
    worst_gap = 0.0
    worst_resid = 0.0
    for case in range(100):
        k, a = combos[case % len(combos)]
        n = int(rng.integers(1, 5))
        y = np.zeros((k, k))
        for i in range(k):
            y[i] = random_row(rng, k, n, i)
        ym = RecMatrix(y, n)
        p0 = rng.uniform(0.05, 1.0, k)
        p0 /= p0.sum()
        m = RequestModel(p0, a, n)
        pi_d = np.asarray(stationary_direct(ym, m), dtype=float)
        p = transition_ref(y, p0, a)
        pi_p = power_ref(p)
        worst_gap = max(worst_gap, float(np.abs(pi_d - pi_p).max()))
        worst_resid = max(worst_resid, float(np.abs(pi_d @ p - pi_d).max()))
    wall = time.perf_counter() - t0
    ok = worst_gap <= 1e-8 and worst_resid <= 1e-10 and wall < 30.0
    _report(1, ok,
            f"direct vs power gap {worst_gap:.2e} (<=1e-08), "
            f"residual {worst_resid:.2e} (<=1e-10), {wall:.1f}s (<30s)")
    assert worst_gap <= 1e-8
    assert worst_resid <= 1e-10
    assert wall < 30.0


def test_criterion_02_myopic_matches_lp_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    worst = 0.0
    for case in range(50):
        k = int(rng.integers(3, 7))
        n = int(rng.integers(1, 3))
        u = rng.uniform(0.2, 1.0, (k, k))
        u = np.maximum(u, u.T)
        np.fill_diagonal(u, 0.0)
        p0 = rng.uniform(0.1, 1.0, k)
        p0 /= p0.sum()
        x = rng.uniform(0.0, 1.0, k)
        a = float(rng.uniform(0.2, 0.9))
        model = RequestModel(p0, a, n)
        probe = OptimInputs(SimilarityMatrix(u), model, x, 0.0)
        q = 0.0 if case % 2 == 0 else 0.6 * float(probe.max_quality().min())
        inputs = OptimInputs(SimilarityMatrix(u), model, x, q)
        y_m = myopic_solve(inputs)
        _register(f"criterion2 myopic {case}", y_m, inputs.similarity, q)
        y_o = np.zeros((k, k))
        for i in range(k):
            _, y_o[i] = row_lp_oracle(x, u[i], n, q, i)
        worst = max(worst, abs(one_step_cost(y_m, inputs) - one_step_cost(y_o, inputs)))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and wall < 10.0
    _report(2, ok, f"max objective gap vs oracle {worst:.2e} (<=1e-08), "
                   f"{wall:.1f}s (<10s)")
    assert worst <= 1e-8
    assert wall < 10.0


def test_criterion_03_cars_beats_deterministic_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    worst = -np.inf
    for case in range(20):
        u = rng.uniform(0.0, 1.0, (4, 4))
        u = np.maximum(u, u.T)
        np.fill_diagonal(u, 0.0)
        # guarantee an admissible pick per row at the 0.5 floor
        for i in range(4):
            j = (i + 1) % 4
            u[i, j] = u[j, i] = max(u[i, j], 0.75)
        p0 = rng.uniform(0.1, 1.0, 4)
        p0 /= p0.sum()
        a = (0.4, 0.7, 0.9)[case % 3]
        q = 0.0 if case % 2 == 0 else 0.5
        x = miss_cost_vector(4, [int(np.argmax(p0))])
        model = RequestModel(p0, a, 1)
        inputs = OptimInputs(SimilarityMatrix(u), model, x, q)
        y_m = myopic_solve(inputs)
        res = cars_solve(inputs, CarsConfig(y0=y_m, max_iter=12))
        assert res.message == ""
        _register(f"criterion3 cars {case}", res.best_y, inputs.similarity, q)
        ref = best_deterministic_cost(x, p0, a, u=u, q=q)
        worst = max(worst, res.best_cost - ref)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-4 and wall < 60.0
    _report(3, ok, f"max excess over deterministic optimum {worst:.2e} "
                   f"(<=1e-04), {wall:.1f}s (<60s)")
    assert worst <= 1e-4
    assert wall < 60.0


def test_criterion_04_convergence_settles_within_ten_iterations():
    t0 = time.perf_counter()
    k = 757
    u = anchored_similarity(k, 12.0, 5, seed=11)
    p0 = zipf_popularity(k, 0.6)
    model = RequestModel(p0, 0.8, 4)
    cache = top_c_cache(p0, round(0.05 * k))
    x = miss_cost_vector(k, cache.cached)
    inputs = OptimInputs(u, model, x, 0.8)
    y0 = myopic_solve(inputs)
    res = cars_solve(inputs, CarsConfig(y0=y0, max_iter=15, multiplier_step=1.0))
    wall = time.perf_counter() - t0
    assert res.message == ""
    _register("criterion4 cars", res.best_y, u, 0.8)
    trace = np.asarray([it.actual_cost for it in res.trace], dtype=float)
    late_improvement = max(0.0, float(trace[:11].min() - trace.min()))
    ok = late_improvement <= 1e-5 and wall < 600.0
    _report(4, ok,
            f"cost improvement after iteration 10 is {late_improvement:.2e} "
            f"(<=1e-05), start {trace[0]:.4f} best {res.best_cost:.4f}, "
            f"{wall:.0f}s (<600s)")
    assert late_improvement <= 1e-5
    assert wall < 600.0


@pytest.fixture(scope="module")
def grid_rows(tmp_path_factory):
    """Quality x cache-fraction sweeps on two prepared catalog stand-ins.

    Uniform random graphs steer recommendations away from the popular
    cached items once the quality floor binds, so the stand-ins are
    popularity-assortative like co-consumption similarity from real
    catalogs. A pass-through wrapper around the sweep's `simulate` records
    what every row simulated, for criterion 08.
    """
    root = tmp_path_factory.mktemp("standins")
    specs = {
        "catalog_a": dict(size=100, extra_mean=3.0, min_degree=5,
                          bias=0.6, seed=131),
        "catalog_b": dict(size=120, extra_mean=7.0, min_degree=5,
                          bias=0.45, seed=132),
    }
    rows = {}
    for name, spec in specs.items():
        path = root / f"{name}.tsv"
        write_assortative_triplets(path, **spec)
        cfg = ScenarioConfig(
            dataset={"kind": "lastfm", "path": str(path)},
            list_sizes=(4,),
            zipf_exponents=(0.6,),
            qualities=(0.7, 0.8, 0.9, 1.0),
            cache_fractions=(0.02, 0.05, 0.08),
            follow_probs=(0.8,),
            cars=CarsConfig(max_iter=15, multiplier_step=1.0),
            session=SessionConfig(total_requests=40000, session_param=200),
            seed=5,
        )
        sessions = _GRID_SESSIONS.setdefault(name, {})

        def recorded(y, model, cache, u, sim_cfg, sessions=sessions):
            sessions[sim_cfg.seed] = (y, model, cache, sim_cfg)
            return simulate(y, model, cache, u, sim_cfg)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "simulate", recorded)
            rows[name] = run_experiment(cfg)
    return rows


def test_criterion_05_policy_ordering_across_grid(grid_rows):
    worst_cars_myopic = np.inf
    worst_myopic_norec = np.inf
    soft_ratio = None
    for name, rows in grid_rows.items():
        assert all(r["error"] == "" for r in rows), f"{name} has failed rows"
        by_point = {}
        for r in rows:
            by_point.setdefault(r["grid_index"], {})[r["policy"]] = r
        for policies in by_point.values():
            cars = policies["cars"]
            myo = policies["myopic"]
            nor = policies["norec"]
            worst_cars_myopic = min(
                worst_cars_myopic, cars["analytic_chr"] - myo["analytic_chr"]
            )
            worst_myopic_norec = min(
                worst_myopic_norec, myo["analytic_chr"] - nor["analytic_chr"]
            )
            if (name == "catalog_b" and cars["quality_floor"] == 0.9
                    and cars["cache_fraction"] == 0.08):
                soft_ratio = cars["analytic_chr"] / myo["analytic_chr"]
    ok = worst_cars_myopic >= -0.005 and worst_myopic_norec >= -0.005
    _report(5, ok,
            f"worst CHR margins: cars-myopic {worst_cars_myopic:+.4f}, "
            f"myopic-norec {worst_myopic_norec:+.4f} (both >=-0.005); "
            f"soft cars/myopic ratio at (q=0.9, C/K=0.08) is "
            f"{soft_ratio:.3f} (target 1.10, reported only)")
    assert worst_cars_myopic >= -0.005
    assert worst_myopic_norec >= -0.005


@pytest.fixture(scope="module")
def session_effect():
    """Mean empirical CHR per policy and session length over 10 sim seeds."""
    k = 100
    u = anchored_similarity(k, 4.0, 4, seed=41)
    p0 = zipf_popularity(k, 0.6)
    cache = top_c_cache(p0, 4)
    x = miss_cost_vector(k, cache.cached)
    model = RequestModel(p0, 0.6, 3)
    inputs = OptimInputs(u, model, x, 0.9)
    y_m = myopic_solve(inputs)
    res = cars_solve(inputs, CarsConfig(y0=y_m, max_iter=15, multiplier_step=1.0))
    assert res.message == ""
    _register("criterion6 myopic", y_m, u, 0.9)
    _register("criterion6 cars", res.best_y, u, 0.9)
    means = {}
    for label, y in (("myopic", y_m), ("cars", res.best_y)):
        for length in (2, 4, 10):
            chrs = [
                simulate(y, model, cache, u,
                         SessionConfig(40000, "fixed", length, seed=s)).empirical_chr
                for s in range(10)
            ]
            means[label, length] = float(np.mean(chrs))
    return means


def test_criterion_06_session_length_effect(session_effect):
    myopic_drift = abs(session_effect["myopic", 4] - session_effect["myopic", 10])
    cars_growth = session_effect["cars", 10] - session_effect["cars", 2]
    ok = myopic_drift <= 0.01 and cars_growth >= 0.01
    _report(6, ok,
            f"myopic CHR drift between lengths 4 and 10 is {myopic_drift:.4f} "
            f"(<=0.01); cars CHR growth from length 2 to 10 is "
            f"{cars_growth:.4f} (>=0.01)")
    assert myopic_drift <= 0.01
    assert cars_growth >= 0.01


@pytest.fixture(scope="module")
def follow_effect():
    """CHR gain over the no-recommendation baseline at a in {0.4, 0.8}."""
    k = 100
    p0 = zipf_popularity(k, 0.6)
    cache = top_c_cache(p0, max(1, round(0.025 * k)))
    x = miss_cost_vector(k, cache.cached)
    norec_chr = float(np.asarray(p0)[sorted(cache.cached)].sum())
    gains = {}
    for seed in (51, 52, 53):
        u = anchored_similarity(k, 4.0, 4, seed=seed)
        for a in (0.4, 0.8):
            model = RequestModel(p0, a, 3)
            inputs = OptimInputs(u, model, x, 0.9)
            y_m = myopic_solve(inputs)
            res = cars_solve(
                inputs, CarsConfig(y0=y_m, max_iter=15, multiplier_step=1.0)
            )
            assert res.message == ""
            _register(f"criterion7 myopic s{seed} a{a}", y_m, u, 0.9)
            _register(f"criterion7 cars s{seed} a{a}", res.best_y, u, 0.9)
            gains["myopic", seed, a] = (
                cache_hit_ratio(y_m, model, cache.cached) - norec_chr
            )
            gains["cars", seed, a] = (
                cache_hit_ratio(res.best_y, model, cache.cached) - norec_chr
            )
    return gains


def test_criterion_07_follow_probability_effect(follow_effect):
    seeds = (51, 52, 53)
    cars_ratios = [
        follow_effect["cars", s, 0.8] / follow_effect["cars", s, 0.4]
        for s in seeds
    ]
    myopic_ratios = [
        follow_effect["myopic", s, 0.8] / follow_effect["myopic", s, 0.4]
        for s in seeds
    ]
    monotone = all(
        follow_effect["cars", s, 0.8] > follow_effect["cars", s, 0.4]
        for s in seeds
    )
    superlinear = all(r >= 2.0 for r in cars_ratios)
    _report(7, monotone,
            f"cars gain grows with follow probability on all seeds "
            f"(gating); gain ratios a=0.8 vs a=0.4: cars "
            f"{[f'{r:.2f}' for r in cars_ratios]} (>=2 expected: "
            f"{superlinear}), myopic {[f'{r:.2f}' for r in myopic_ratios]} "
            f"(band [1.5, 2.5] reported only)")
    assert monotone


def test_criterion_08_empirical_matches_analytic(grid_rows):
    # Each row's sessions open from p0, so its empirical CHR estimates the
    # expected hit ratio of those finite sessions, which lies below the
    # stationary CHR by the transient; the gate is the worst-case binomial
    # 3 sigma at 40000 requests around that expectation.
    bound = 3.0 * float(np.sqrt(0.25 / 40000))
    worst = 0.0
    worst_stationary = 0.0
    count = 0
    for name, rows in grid_rows.items():
        for r in rows:
            assert r["error"] == ""
            y, model, cache, sim_cfg = _GRID_SESSIONS[name][r["seed"]]
            assert sim_cfg.session_kind == "fixed"
            hit = np.zeros(model.size)
            hit[sorted(cache.cached)] = 1.0
            expected = session_hit_ratio_ref(y, model.popularity, model.follow_prob, hit,
                                             sim_cfg.total_requests, sim_cfg.session_param)
            worst = max(worst, abs(r["empirical_chr"] - expected))
            worst_stationary = max(worst_stationary,
                                   abs(r["empirical_chr"] - r["analytic_chr"]))
            count += 1
    ok = worst <= bound
    _report(8, ok, f"max |empirical - expected session| CHR over {count} rows is "
                   f"{worst:.5f} (<= 3 sigma = {bound:.5f}); against the stationary "
                   f"CHR {worst_stationary:.5f} (reported only)")
    assert worst <= bound


def test_criterion_09_constraint_compliance(session_effect, follow_effect):
    rng = np.random.default_rng(900)
    for case in range(10):
        k = (8, 15)[case % 2]
        n = (2, 3)[case % 2]
        u = rng.uniform(0.2, 1.0, (k, k))
        u = np.maximum(u, u.T)
        np.fill_diagonal(u, 0.0)
        p0 = rng.uniform(0.1, 1.0, k)
        p0 /= p0.sum()
        x = rng.uniform(0.0, 1.0, k)
        model = RequestModel(p0, 0.7, n)
        probe = OptimInputs(SimilarityMatrix(u), model, x, 0.0)
        q = 0.5 * float(probe.max_quality().min())
        inputs = OptimInputs(SimilarityMatrix(u), model, x, q)
        _register(f"criterion9 top {case}", top_n_similarity(inputs),
                  inputs.similarity, q)
        y_m = myopic_solve(inputs)
        _register(f"criterion9 myopic {case}", y_m, inputs.similarity, q)
        res = cars_solve(inputs, CarsConfig(y0=y_m, max_iter=4))
        _register(f"criterion9 cars {case}", res.best_y, inputs.similarity, q)

    assert len(_OPTIMIZER_OUTPUTS) >= 30
    bad = []
    for label, y, u, q in _OPTIMIZER_OUTPUTS:
        violations = validate_rec_matrix(y, tol=1e-5)
        if violations:
            bad.append(f"{label}: {violations[0]}")
            continue
        min_quality = float(np.min(quality_of(y, u)))
        if min_quality < q - 1e-5:
            bad.append(f"{label}: quality {min_quality:.6f} < {q:.6f} - 1e-5")
    ok = not bad
    _report(9, ok, f"all {len(_OPTIMIZER_OUTPUTS)} optimizer outputs satisfy "
                   f"matrix invariants (tol 1e-05) and quality floors"
                   + ("" if ok else f"; first failure: {bad[0]}"))
    assert not bad


def test_criterion_10_sampler_inclusion_marginals():
    rng = np.random.default_rng(1010)
    k = 12
    draws = 1_000_000
    worst_excess = -np.inf
    for row_idx in range(10):
        n = (2, 3, 4)[row_idx % 3]
        y_row = random_row(rng, k, n, row_idx % k)
        z = n * np.asarray(y_row, dtype=float)
        lists = sample_rec_list(y_row, n, rng, size=draws)
        freq = np.bincount(lists.ravel(), minlength=k) / draws
        sigma = np.sqrt(z * (1.0 - z) / draws)
        excess = np.abs(freq - z) - 3.0 * sigma
        worst_excess = max(worst_excess, float(excess.max()))
    ok = worst_excess <= 1e-12
    _report(10, ok, f"max inclusion-frequency error excess over 3 sigma at "
                    f"{draws} draws is {worst_excess:.2e} (<=0)")
    assert worst_excess <= 1e-12
