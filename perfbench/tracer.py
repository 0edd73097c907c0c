"""Spans around the public functions of `cacherec`, wrapped from outside.

`Tracer.install` replaces each traced function, in every `cacherec` module
that holds it, by a wrapper that records a span: name, layer, thread,
parent, start and end. The name is the one its callers look up
(`optim.solve_qp`, `markov.stationary_direct`, `experiments.simulate`,
`cacherec.myopic_solve` for calls made through the package), the layer is
the module that defines the function. Each thread keeps its own stack of
open spans; a span that opens on a thread with an empty stack, such as a
sweep cell in the thread pool, takes the innermost span open on the main
thread as its parent. Spans stay in memory until the run writes them.
"""

import csv
import functools
import importlib
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field


def _qp_counts(sol):
    return {"steps": sol.iterations, "maxiter": int(sol.status == "MaxIter"),
            "optimal": int(sol.status == "Optimal")}


def _cars_counts(res):
    return {"iterations": res.iterations, "converged": int(res.converged)}


def _sim_counts(metrics):
    return {"requests": metrics.requests}


# (defining module, function, counts read from the return value)
TRACED = (
    ("datasets", "prepare_movielens", None),
    ("datasets", "prepare_lastfm", None),
    ("datasets", "cf_fill", None),
    ("datasets", "anchored_similarity", None),
    ("optim", "myopic_solve", None),
    ("optim", "cars_solve", _cars_counts),
    ("optim", "cars_pi_step", None),
    ("optim", "cars_y_step", None),
    ("qp", "solve_qp", _qp_counts),
    ("markov", "stationary_direct", None),
    ("markov", "cache_hit_ratio", None),
    ("model", "validate_rec_matrix", None),
    ("simulate", "simulate", _sim_counts),
    ("experiments", "run_experiment", None),
    ("experiments", "write_results", None),
    ("cli", "main", None),
)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    thread: int
    parent: int | None
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)
    error: str = ""

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stacks = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._patches = []

    def _open(self, name, layer):
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1].id
        else:
            main = self._stacks.get(self._main)
            parent = main[-1].id if (ident != self._main and main) else None
        with self._lock:
            span = Span(len(self.spans), name, layer, ident, parent, time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def _wrap(self, func, name, layer, counter):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stacks[threading.get_ident()].pop()
            if counter is not None:
                span.counts = counter(result)
            return result
        return traced

    def install(self):
        """Wrap every traced function under each name that refers to it."""
        if self._patches:
            return
        prefix = self.package.__name__
        for home, _, _ in TRACED:
            importlib.import_module(f"{prefix}.{home}")
        modules = {m: sys.modules[m] for m in list(sys.modules)
                   if m == prefix or m.startswith(prefix + ".")}
        for home, fname, counter in TRACED:
            original = getattr(modules[f"{prefix}.{home}"], fname)
            layer = f"{home}.{fname}"
            for modname, module in modules.items():
                if getattr(module, fname, None) is original:
                    short = modname.rsplit(".", 1)[-1]
                    wrapper = self._wrap(original, f"{short}.{fname}", layer, counter)
                    setattr(module, fname, wrapper)
                    self._patches.append((module, fname, original))

    def uninstall(self):
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "layer", "thread", "parent", "start", "end",
                        "counts", "error"])
            for s in self.spans:
                counts = ";".join(f"{k}={v}" for k, v in s.counts.items())
                w.writerow([s.id, s.name, s.layer, s.thread,
                            "" if s.parent is None else s.parent,
                            repr(s.start), repr(s.end), counts, s.error])


def _union(intervals):
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_time(spans, layer):
    """Duration of each `layer` span less the part its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    total = 0.0
    for s in spans:
        if s.layer == layer:
            covered = _union((max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(s.id, ()))
            total += s.duration - covered
    return total


# Per-layer metrics: name -> unit. Counts come from return values.
LAYER_METRICS = {
    "datasets.prepare_movielens_s": "s",
    "datasets.cf_fill_s": "s",
    "datasets.prepare_lastfm_s": "s",
    "datasets.anchored_similarity_s": "s",
    "optim.myopic_solve_s": "s",
    "optim.cars_solve_s": "s",
    "optim.cars_pi_step_s": "s",
    "optim.cars_y_step_s": "s",
    "optim.cars_y_step_self_s": "s",
    "optim.cars_iterations": "count",
    "optim.cars_converged": "count",
    "qp.solve_qp_pi_s": "s",
    "qp.solve_qp_pi_steps": "count",
    "qp.solve_qp_y_s": "s",
    "qp.solve_qp_y_steps": "count",
    "qp.solve_qp_y_maxiter": "count",
    "qp.solve_qp_y_optimal_ratio": "ratio",
    "markov.stationary_direct_s": "s",
    "markov.stationary_direct_calls": "count",
    "markov.cache_hit_ratio_s": "s",
    "model.validate_rec_matrix_s": "s",
    "model.validate_rec_matrix_calls": "count",
    "simulate.simulate_s": "s",
    "simulate.requests": "count",
    "simulate.requests_per_s": "1/s",
    "experiments.run_experiment_s": "s",
    "experiments.run_experiment_self_s": "s",
    "experiments.cell_ms_max": "ms",
    "experiments.write_results_s": "s",
    "cli.main_s": "s",
    "trace.top_level_s": "s",
    "trace.overhead_s": "s",
}


def layer_table(spans, round_spans, cell_ms_max):
    """Per-layer metrics over `spans`; top-level time over `round_spans`."""
    by_layer = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)
    index = {s.id: s for s in spans}

    def busy(layer):
        return sum(s.duration for s in by_layer.get(layer, ()))

    def count(layer, key):
        return sum(s.counts.get(key, 0) for s in by_layer.get(layer, ()))

    qp = {"pi": [], "y": []}
    for s in by_layer.get("qp.solve_qp", ()):
        caller = index[s.parent].layer if s.parent in index else ""
        if caller == "optim.cars_pi_step":
            qp["pi"].append(s)
        elif caller == "optim.cars_y_step":
            qp["y"].append(s)
    y_calls = len(qp["y"])
    y_optimal = sum(s.counts.get("optimal", 0) for s in qp["y"])
    sim_s = busy("simulate.simulate")
    requests = count("simulate.simulate", "requests")
    return {
        "datasets.prepare_movielens_s": busy("datasets.prepare_movielens"),
        "datasets.cf_fill_s": busy("datasets.cf_fill"),
        "datasets.prepare_lastfm_s": busy("datasets.prepare_lastfm"),
        "datasets.anchored_similarity_s": busy("datasets.anchored_similarity"),
        "optim.myopic_solve_s": busy("optim.myopic_solve"),
        "optim.cars_solve_s": busy("optim.cars_solve"),
        "optim.cars_pi_step_s": busy("optim.cars_pi_step"),
        "optim.cars_y_step_s": busy("optim.cars_y_step"),
        "optim.cars_y_step_self_s": self_time(spans, "optim.cars_y_step"),
        "optim.cars_iterations": count("optim.cars_solve", "iterations"),
        "optim.cars_converged": count("optim.cars_solve", "converged"),
        "qp.solve_qp_pi_s": sum(s.duration for s in qp["pi"]),
        "qp.solve_qp_pi_steps": sum(s.counts.get("steps", 0) for s in qp["pi"]),
        "qp.solve_qp_y_s": sum(s.duration for s in qp["y"]),
        "qp.solve_qp_y_steps": sum(s.counts.get("steps", 0) for s in qp["y"]),
        "qp.solve_qp_y_maxiter": sum(s.counts.get("maxiter", 0) for s in qp["y"]),
        "qp.solve_qp_y_optimal_ratio": y_optimal / y_calls if y_calls else 0.0,
        "markov.stationary_direct_s": busy("markov.stationary_direct"),
        "markov.stationary_direct_calls": len(by_layer.get("markov.stationary_direct", ())),
        "markov.cache_hit_ratio_s": busy("markov.cache_hit_ratio"),
        "model.validate_rec_matrix_s": busy("model.validate_rec_matrix"),
        "model.validate_rec_matrix_calls": len(by_layer.get("model.validate_rec_matrix", ())),
        "simulate.simulate_s": sim_s,
        "simulate.requests": requests,
        "simulate.requests_per_s": requests / sim_s if sim_s > 0 else 0.0,
        "experiments.run_experiment_s": busy("experiments.run_experiment"),
        "experiments.run_experiment_self_s": self_time(spans, "experiments.run_experiment"),
        "experiments.cell_ms_max": cell_ms_max,
        "experiments.write_results_s": busy("experiments.write_results"),
        "cli.main_s": busy("cli.main"),
        "trace.top_level_s": sum(s.duration for s in round_spans if s.parent is None),
    }


def median_table(tables):
    return {k: statistics.median(t[k] for t in tables) for k in tables[0]}


def write_table(path, table):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value", "unit"])
        for name, unit in LAYER_METRICS.items():
            w.writerow([name, repr(table[name]), unit])
