"""Benchmark of cacherec: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script writes the workload's
input files from the seed, times set-up in several fresh interpreters
(`worker.py --setup-only`), then runs the workload in one more fresh
interpreter for S seconds of whole rounds and checks every output. Its
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace is 0 and the per-layer metrics
when it is 1. It exits 0 only when every operation passed its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # set-up samples besides the measuring worker's own
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "chr": "ratio"}


def _worker_cmd(args, files, out_dir, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--files", json.dumps(files),
           "--out", str(out_dir)]
    return cmd + (["--setup-only"] if setup_only else [])


def _start(cmd, env):
    """Start a worker; return it with the seconds until it printed READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    for line in proc.stdout:
        if line.strip() == "READY":
            return proc, time.perf_counter() - t0
        sys.stderr.write(line)
    return proc, None


def _finish(proc, deadline):
    try:
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    result = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            sys.stderr.write(line + "\n")
    return proc.returncode, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "cacherec" / "__init__.py").is_file():
        print(f"no cacherec sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    from inputs import write_inputs
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_dir = OUT / args.workload
    files = write_inputs(args.workload, args.seed, out_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup = _start(_worker_cmd(args, files, out_dir, True), env)
            code, _ = _finish(proc, deadline)
            if code != 0 or setup is None:
                print(f"set-up probe exited {code}", file=sys.stderr)
                return 1
            setups.append(setup)
    proc, setup = _start(_worker_cmd(args, files, out_dir, False), env)
    code, result = _finish(proc, deadline)
    if code != 0 or setup is None or result is None:
        print(f"worker exited {code} without a result", file=sys.stderr)
        return 1
    setups.append(setup)

    if args.trace:
        from tracer import LAYER_METRICS
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        values = {"wall_s": statistics.median(result["walls"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": result["peak_rss_mib"],
                  "chr": result["chr"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
