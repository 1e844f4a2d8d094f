"""Benchmark worker: one fresh process per set-up probe or measured run.

    python3 perfbench/worker.py setup WORKLOAD SEED
        Import speedlab, build the validated system and print the
        time.monotonic() reading at that moment.

    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE WORKDIR
        Run the workload's operation in a closed loop for about SECONDS,
        check every result and print one JSON line with the wall times,
        failures, peak memory and, when TRACE is 1, the per-layer metrics.

``run.py`` starts these with the speedlab sources on PYTHONPATH and the BLAS
thread count pinned.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time

import workloads


def _check_import(root):
    import speedlab
    where = os.path.realpath(speedlab.__file__)
    if not where.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
        raise SystemExit(f"speedlab was imported from {where}, not from {root}/src")


def setup(name, seed):
    workload = workloads.make(name, seed)
    workload.setup()
    stamp = time.monotonic()
    _check_import(os.environ["PERFBENCH_ROOT"])
    print(repr(stamp))


def environment():
    import numpy
    import scipy
    numpy_cfg = numpy.show_config(mode="dicts")
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "cpu_simd": numpy_cfg["SIMD Extensions"]["found"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": numpy_cfg["Build Dependencies"]["blas"].get("version"),
        "openblas_scipy": scipy_blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run(name, seed, seconds, trace, workdir):
    _check_import(os.environ["PERFBENCH_ROOT"])
    workload = workloads.make(name, seed)
    probe = workloads.ResidualProbe()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    walls, problems, layers = [], [], []
    start = time.perf_counter()
    while True:
        op = len(walls)
        if tracer:
            tracer.op = op
        probe.worst = 0.0
        workload.prepare(workdir)
        t0 = time.perf_counter()
        try:
            result = workload.run()
            error = None
        except Exception as exc:  # a failed operation is counted, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        found = [error] if error else workload.check(result, probe)
        info = workload.finish()
        if tracer:
            tracer.count(**info)
        problems.append(found)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break

    out = {"walls": walls, "problems": problems,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "env": environment()}
    if tracer:
        tracer.uninstall()
        per_op = tracer.op_metrics(range(len(walls)))
        for op, wall in enumerate(walls):
            per_op[op]["trace.wall_s"] = wall
        from tracing import median_metrics
        out["layers"] = median_metrics(list(per_op.values()))
        tracer.write_spans(os.path.join(workdir, f"spans-{name}-seed{seed}.json"))
    print(json.dumps(out))


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        setup(name, seed)
    else:
        run(name, seed, float(argv[3]), argv[4] == "1", argv[5])


if __name__ == "__main__":
    main(sys.argv[1:])
