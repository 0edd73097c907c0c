"""Command-line entry points.

Three subcommands: `run` executes a sweep config and writes results.csv,
`trace` dumps the per-iteration convergence trace of the stationary-cost
solver at the first grid point, and `prep-dataset` turns a raw ratings
or triplet file into a pruned relatedness matrix plus provenance.

Exit codes: 0 success, 1 configuration or input error, 2 partial or
computational failure (some grid points errored, or the traced solve
failed).
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .datasets import prepare_lastfm, prepare_movielens
from .experiments import (
    ConfigError,
    ScenarioConfig,
    emit_convergence_trace,
    run_experiment,
)
from .serialize import file_sha256, save_matrix, write_provenance

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cacherec",
        description="Cache-aware recommendation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[], help="run a sweep config")
    run.add_argument("--config", required=True, help="JSON scenario config")
    run.add_argument("--out", help="output directory (overrides the config)")
    run.add_argument("--seed", type=int, help="master seed (overrides the config)")
    run.add_argument(
        "--policies",
        help="comma-separated subset of norec,myopic,cars (overrides the config)",
    )
    # perfbench's sweep workload passes `--threads 1`; the sweep is serial
    run.add_argument("--threads", type=int, choices=[1], help=argparse.SUPPRESS)

    trace = sub.add_parser("trace", help="dump the solver convergence trace")
    trace.add_argument("--config", required=True, help="JSON scenario config")
    trace.add_argument("--out", help="output directory (overrides the config)")

    prep = sub.add_parser("prep-dataset", help="build a relatedness matrix")
    src = prep.add_mutually_exclusive_group(required=True)
    src.add_argument("--movielens", help="ratings CSV (userId,movieId,rating,timestamp)")
    src.add_argument("--lastfm", help="tab-separated triplet file (idA idB score)")
    prep.add_argument("--out", required=True, help="output directory")
    prep.add_argument("--theta", type=float, default=0.6,
                      help="similarity binarization threshold (MovieLens only)")
    prep.add_argument("--list-size", type=int, default=4,
                      help="recommendation list size used as the pruning floor")
    return parser


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig.from_json(args.config)
    overrides = {}
    if getattr(args, "out", None):
        overrides["output_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "policies", None):
        overrides["policies"] = tuple(
            p.strip() for p in args.policies.split(",") if p.strip()
        )
    # ScenarioConfig checks every override and raises ConfigError
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if not cfg.output_dir:
        cfg = replace(cfg, output_dir=".")
    rows = run_experiment(cfg)
    failures = [r for r in rows if r["error"]]
    out = Path(cfg.output_dir) / "results.csv"
    print(f"wrote {out} ({len(rows)} rows, {len(failures)} failed)")
    for row in failures:
        print(
            f"  grid {row['grid_index']} {row['policy']}: {row['error']}",
            file=sys.stderr,
        )
    return 2 if failures else 0


def _cmd_trace(args) -> int:
    cfg = _load_config(args)
    try:
        if cfg.output_dir:
            rows = emit_convergence_trace(cfg)
            print(f"wrote {Path(cfg.output_dir) / 'trace.csv'} ({len(rows)} iterates)")
        else:
            emit_convergence_trace(cfg, dest=sys.stdout)
    except ConfigError:
        raise
    except (RuntimeError, ValueError) as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_prep(args) -> int:
    out = Path(args.out)
    try:
        if args.movielens:
            u, kept, prov = prepare_movielens(
                args.movielens, theta=args.theta, list_size=args.list_size
            )
            prov["source_sha256"] = file_sha256(args.movielens)
        else:
            u, kept, prov = prepare_lastfm(args.lastfm, list_size=args.list_size)
            prov["source_sha256"] = file_sha256(args.lastfm)
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        kind = "movielens" if args.movielens else "lastfm"
        raise ConfigError(f"{kind} dataset: {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / "similarity.txt", u)
    with open(out / "kept_ids.txt", "w", encoding="utf-8") as fh:
        for item in kept:
            fh.write(f"{item}\n")
    write_provenance(out / "provenance.json", prov)
    print(f"wrote {out / 'similarity.txt'} (K={u.size}), kept_ids.txt, provenance.json")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_prep(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
