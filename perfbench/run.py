"""speedlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see workloads.py):
report-tx, demo-constants, bracket-constants.

With --trace 0 the run measures the end-to-end metrics: set-up time of a
fresh process (median of SETUP_PROBES processes, half of them started before
the worker and half after it), the wall time of one operation (median over a
closed loop of about S seconds in one worker process) and the worker's peak
resident memory.  With --trace 1 a separate
worker wraps every speedlab layer (tracing.py) and reports the per-layer
metrics instead, as medians over its operations.  Every operation's output
is checked; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Metric names and units come
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench-work")
WORKER = os.path.join(HERE, "worker.py")
# set-up probes per run, half before and half after the worker, so that their
# median covers the whole run rather than one moment of a machine whose speed drifts
SETUP_PROBES = 6
BLAS_THREADS = 1
TIME_LIMIT = 170.0  # seconds for the whole run


def _child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PERFBENCH_ROOT=ROOT,
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS), PYTHONHASHSEED="0")
    return env


def _worker(args, timeout):
    """Run the worker to completion; its last output line is the result."""
    proc = subprocess.run([sys.executable, WORKER, *args], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload, seed, deadline):
    """Seconds from starting a fresh process to its validated system."""
    start = time.monotonic()
    stamp = float(_worker(["setup", workload, str(seed)], deadline - time.monotonic()))
    return stamp - start


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT

    if not os.path.isfile(os.path.join(ROOT, "src", "speedlab", "__init__.py")):
        sys.exit(f"no speedlab sources under {ROOT}/src; run from a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")
    os.makedirs(WORKDIR, exist_ok=True)

    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [setup_seconds(args.workload, args.seed, deadline) for _ in range(probes)]
    out = json.loads(_worker(["run", args.workload, str(args.seed), str(args.seconds),
                              str(args.trace), WORKDIR],
                             deadline - time.monotonic()))
    setups += [setup_seconds(args.workload, args.seed, deadline) for _ in range(probes)]
    walls = out["walls"]
    attempted = len(walls)
    failed = sum(1 for found in out["problems"] if found)
    for op, found in enumerate(out["problems"]):
        for problem in found:
            print(f"operation {op} failed: {problem}", file=sys.stderr)

    if args.trace:
        declared = spec["per_layer"]
        values = out["layers"]
    else:
        declared = spec["end_to_end"]
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": out["peak_rss_mb"]}
    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"measured metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"speedlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps({**out["env"], "commit": commit()}))
    print(f"operations: {attempted}, closed loop, one worker process; "
          f"wall_s per operation {' '.join(f'{w:.3f}' for w in walls)}")
    if setups:
        print(f"setup_s per fresh process {' '.join(f'{s:.3f}' for s in setups)}")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:g}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
