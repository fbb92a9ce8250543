"""One pass of one workload in a fresh interpreter (spawned by run.py).

The pass imports ``repro.api``, builds the workload's inputs from the
seed and prints ``READY`` on stdout: the parent's clock from spawn to
that line is one ``setup_s`` sample. With ``--setup-only`` it stops
there. Otherwise it runs the timed pass (with ``--trace 1`` under the
layer tracer), verifies the outputs untimed, and writes one JSON report
to ``--out``.

    PYTHONPATH=src python3 perfbench/unit.py --workload study_grid \\
        --seed 0 --scale tiny --trace 0 --workdir WORK --out report.json
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()
import repro.api  # noqa: E402,F401 - the import under measurement

IMPORT_S = time.perf_counter() - _T_IMPORT

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import studies  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of every reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=studies.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=studies.SCALES, default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    inputs = studies.setup(args.workload, args.seed, args.scale)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    os.makedirs(args.workdir, exist_ok=True)
    tracer = None
    if args.trace:
        from layers import LayerTracer

        trace_dir = os.path.join(args.workdir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer = LayerTracer(trace_dir)
        tracer.install()

    t0 = time.perf_counter()
    outcome = studies.run(args.workload, inputs, args.seed, args.workdir)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = _peak_rss_mb()
    layers = tracer.collect() if tracer is not None else None

    studies.verify(
        args.workload, inputs, outcome, args.seed, args.scale, args.workdir
    )
    report = {
        "wall_s": wall_s,
        "import_s": IMPORT_S,
        "peak_rss_mb": peak_rss_mb,
        "jobs": outcome.jobs,
        "cells": outcome.cells,
        "iterations": outcome.iterations,
        "ops": outcome.ops,
        "checks": outcome.checks,
        "failures": outcome.failures,
        "digest": outcome.digest,
        "extras": outcome.extras,
        "sim_stats": outcome.sim_stats,
        "layers": layers,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
