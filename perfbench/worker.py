"""One run of one workload, in a fresh interpreter started by run.py.

The worker imports `cacherec` from the checkout's `src`, builds the
workload's library inputs and prints `READY`; run.py times set-up up to
that line. With `--setup-only` it stops there. Otherwise it repeats whole
rounds of the timed operation until they add up to `--seconds`, checks each
round's outputs after it, outside the timed region, and prints one line
`RESULT <json>`. Peak resident memory is read after the first round,
before any check runs.

With `--trace 1` it alternates an untraced round with a traced one, and
reports the per-layer table of the traced rounds (median per metric) and
their time over the untraced rounds as `trace.overhead_s`. Spans and the
table are written to the run's output directory.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_table, median_table, write_table
from workloads import WORKLOADS


def _timed_round(workload):
    t0 = time.perf_counter()
    try:
        out = workload.run_round()
    except Exception:  # noqa: BLE001 - a raising round fails its operations
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    workload.collect(out)
    return wall, out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--files", required=True, help="JSON map of input files")
    p.add_argument("--out", required=True, help="directory for spans and tables")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    import cacherec
    if Path(cacherec.__file__).resolve().parent.parent != src:
        print(f"imported cacherec from {cacherec.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = Tracer(cacherec) if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload](cacherec, args.seed, json.loads(args.files))
    if tracer:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    setup_spans = list(tracer.spans) if tracer else []
    walls, traced_walls, tables = [], [], []
    ops = len(workload.ops)
    tally = {"attempted": 0, "failed": 0, "messages": [], "chrs": []}
    peak_rss_mib = None

    def check(out):
        """Check one round's outputs, keep the verdict, drop the outputs."""
        i = tally["attempted"] // ops
        tally["attempted"] += ops
        if out is None:
            tally["failed"] += ops
            tally["messages"].append(f"round {i}: the timed operation raised")
            return
        bad_ops, msgs = workload.check(out)
        tally["failed"] += len(bad_ops)
        tally["messages"] += [f"round {i}: {m}" for m in msgs]
        tally["chrs"].append(workload.chr(out))

    # only the timed rounds count toward --seconds, not the checks
    while not walls or sum(walls) + sum(traced_walls) < args.seconds:
        wall, out = _timed_round(workload)
        walls.append(wall)
        if peak_rss_mib is None:
            # the program's own peak, before any check allocates
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check(out)
        if tracer:
            mark = len(tracer.spans)
            tracer.install()
            wall, out = _timed_round(workload)
            tracer.uninstall()
            traced_walls.append(wall)
            round_spans = tracer.spans[mark:]
            tables.append(layer_table(setup_spans + round_spans, round_spans,
                                      workload.cell_ms_max(out) if out else 0.0))
            check(out)
        del out

    for m in tally["messages"]:
        print(m, file=sys.stderr)
    result = {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "correct": not tally["messages"],
        "walls": walls,
        "peak_rss_mib": peak_rss_mib,
        "chr": statistics.median(tally["chrs"]) if tally["chrs"] else 0.0,
    }
    if tracer:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        table = median_table(tables)
        table["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        tracer.write_spans(out_dir / "spans.csv")
        write_table(out_dir / "layers.csv", table)
        result["layers"] = table
        result["traced_walls"] = traced_walls
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
