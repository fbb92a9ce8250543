"""Engine micro-benchmark + CI regression gate.

Times the simulator's hot paths on fixed workloads and compares against the
committed baseline in ``BENCH_engine.json``. Two entry points::

    PYTHONPATH=src python benchmarks/engine_perf.py measure        # print JSON
    PYTHONPATH=src python benchmarks/engine_perf.py check          # CI gate

``check`` exits non-zero when any benchmarked workload runs more than
``--tolerance`` (default 25%) slower than the committed baseline — the
perf-trajectory guard ISSUE 3 wired into CI. Because CI runners are
heterogeneous, the comparison is normalized by a **calibration kernel**:
an engine-independent mix of heap/list/RNG work timed in the same run,
whose baseline cost is committed alongside the workload numbers. A host
that is uniformly 1.8x slower scales every expectation by 1.8x, so only a
*relative* engine regression trips the gate.

``check`` gates against the committed ``pr4`` stage entry (falling back
to the pr3 ``after`` block when the stage entry is absent). ``measure
--update pr4`` rewrites that entry (plus calibration) in place;
``--update before|after`` keep maintaining the historic pr2/pr3 blocks.

Workloads (chosen to cover both engine regimes):

* ``iteration_unscheduled`` — one baseline iteration of Inception v3 on a
  4-worker/1-PS training cluster (the historic ``bench_engine_micro``
  workload): compute-queue and NIC round-robin dominated.
* ``iteration_scheduled`` — the same cluster under a layerwise schedule
  with sender enforcement: gate bookkeeping + priority paths.
* ``batch_10`` — ``run_iterations(0, 10)`` of the unscheduled sim: the
  amortized batch API end to end (per-second number is per iteration).
* ``jobmix_packed`` — one iteration of a two-job AlexNet mix (the second
  job arriving mid-flight) packed onto shared hosts on envC: the
  multi-job mix path — deferred root releases, shared-NIC channel
  contention, per-job completion accounting.

``trace-overhead`` times every workload twice — ``SimConfig(trace=False)``
vs ``trace=True`` — and prints the per-workload overhead of turning event
recording on. Tracing *off* is free by construction (the flag only adds
side-array writes behind a branch, and the untraced workloads above are
what ``check`` gates), so this stage documents the opt-in cost instead of
gating it; ``--update pr7`` records it in ``BENCH_engine.json``.

Three more stages each have a command of their own, an ``--update``
value of the same name that records them in the ``BENCH_engine.json``
block of that name, and a row in ``STAGES``:

* ``pr8`` — ``variant_dispatch_8``: 8 seed-variants of an AlexNet v2
  2-worker cluster on ONE core, 2 iterations each, as 8
  ``run_iterations`` calls (per-second numbers are per iteration).
* ``compose`` — ``jobmix_compose``: ``CompiledCore(build_jobmix_graph(None,
  spec), envC)`` on a warm 5-job packed mix (3 AlexNet v2 + 2 Inception
  v1 PS jobs): the per-composition cost of a cluster replay, i.e. the
  mix's cluster surface plus a core composed from memoized per-shape
  cores.
* ``graph_build`` — ``graph_build_ps_8w2ps`` and
  ``graph_build_allreduce_8w``: ``build_cluster_graph`` (Inception v3,
  8 workers, 2 PS) and ``build_collective_graph`` (Inception v3, 8-worker
  ring). The builders are called directly: ``build_comm_graph`` memoizes.

``check`` gates every committed stage block alongside pr4, all at the
same tolerance.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
import time

import numpy as np

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json")

#: sub-entry of the per-stage blocks (pr4/pr7_trace/pr8) that holds the
#: engine's numbers.
STAGE_KEY = "python"


def build_workloads(trace: bool = False):
    from repro.core import Schedule
    from repro.models import build_model
    from repro.ps import ClusterSpec, build_cluster_graph
    from repro.sim import (
        CompiledCore,
        JobMixSpec,
        JobSpec,
        SimConfig,
        SimVariant,
        build_jobmix_graph,
    )
    from repro.timing import ENV_G, get_platform

    ir = build_model("Inception v3")
    cluster = build_cluster_graph(ir, ClusterSpec(4, 1, "training"))
    core = CompiledCore(cluster, ENV_G)
    layerwise = Schedule("layerwise", {p.name: i for i, p in enumerate(ir.params)})
    plain = SimVariant(core, None, SimConfig(trace=trace))
    sched = SimVariant(core, layerwise,
                       SimConfig(enforcement="sender", trace=trace))

    mix_spec = JobMixSpec(
        jobs=(
            JobSpec("AlexNet v2", n_workers=2, n_ps=1),
            JobSpec("AlexNet v2", n_workers=2, n_ps=1, arrival=6.0),
        ),
        placement="packed",
        n_hosts=6,
    )
    mix_core = CompiledCore(build_jobmix_graph(None, mix_spec),
                            get_platform("envC"))
    mix = SimVariant(mix_core, None, SimConfig(trace=trace))

    return {
        "iteration_unscheduled": (lambda: plain.run_iteration(0), 1),
        "iteration_scheduled": (lambda: sched.run_iteration(0), 1),
        "batch_10": (lambda: plain.run_iterations(0, 10), 10),
        "jobmix_packed": (lambda: mix.run_iteration(0), 1),
    }


def build_compose_workloads():
    """The compose stage (see module docstring)."""
    from repro.sim import CompiledCore, JobMixSpec, JobSpec, build_jobmix_graph
    from repro.timing import get_platform

    spec = JobMixSpec(
        jobs=tuple(
            JobSpec(model, n_workers=2, n_ps=1, algorithm="tic",
                    arrival=0.5 * i)
            for i, model in enumerate(
                ("AlexNet v2", "Inception v1", "AlexNet v2", "Inception v1",
                 "AlexNet v2")
            )
        ),
        placement="packed",
        n_hosts=8,
    )
    env_c = get_platform("envC")
    return {
        "jobmix_compose": (
            lambda: CompiledCore(build_jobmix_graph(None, spec), env_c), 1
        ),
    }


def build_pr8_workloads():
    """The pr8 stage (see module docstring)."""
    from repro.models import build_model
    from repro.ps import ClusterSpec, build_cluster_graph
    from repro.sim import CompiledCore, SimConfig, SimVariant
    from repro.timing import ENV_G

    ir = build_model("AlexNet v2")
    spec = ClusterSpec(2, 1, "training")
    core = CompiledCore(build_cluster_graph(ir, spec), ENV_G)
    iters = 2
    variants = [
        SimVariant(core, None, SimConfig(seed=s))
        for s in range(8)
    ]

    def dispatch():
        return [v.run_iterations(0, iters) for v in variants]

    return {"variant_dispatch_8": (dispatch, 8 * iters)}


def build_graph_build_workloads():
    """The graph_build stage (see module docstring)."""
    from repro.collectives import CollectiveSpec, build_collective_graph
    from repro.models import build_model
    from repro.ps import ClusterSpec, build_cluster_graph

    ir = build_model("Inception v3")
    return {
        "graph_build_ps_8w2ps": (
            lambda: build_cluster_graph(ir, ClusterSpec(8, 2)), 1
        ),
        "graph_build_allreduce_8w": (
            lambda: build_collective_graph(ir, CollectiveSpec(n_workers=8)), 1
        ),
    }


#: command (= ``--update`` value = BENCH_engine.json block) -> (workload
#: builder, label) of the stages ``check`` gates next to pr4.
STAGES = {
    "pr8": (build_pr8_workloads, "variant dispatch"),
    "compose": (build_compose_workloads, "job-mix core composition"),
    "graph_build": (build_graph_build_workloads, "cluster graph build"),
}


def _calibration_kernel() -> float:
    """Engine-independent host-speed probe: the same interpreter/numpy
    operation mix the event loop leans on (heap tuples, list queues,
    scalar Generator draws). Returns a checksum so the work is not
    optimized away."""
    rng = np.random.default_rng(12345)
    rng_integers = rng.integers
    heap: list = []
    seq = 0
    acc = 0.0
    queue: list[int] = []
    for i in range(150_000):
        heapq.heappush(heap, (float(i % 997) * 1e-3, seq, i & 3, i))
        seq += 1
        if i & 1:
            t, _s, _c, _op = heapq.heappop(heap)
            acc += t
        queue.append(i)
        if len(queue) > 64:
            queue.pop(0)
    for _ in range(15_000):
        acc += float(rng_integers(7))
    return acc


def measure(repeats: int = 5, trace: bool = False) -> tuple[dict, float]:
    """(seconds-per-iteration per workload, calibration seconds)."""
    return measure_stage(build_workloads(trace), repeats), _calibrate(repeats)


def _calibrate(repeats: int) -> float:
    """Best-of-``repeats`` seconds of the calibration kernel, warmed once."""
    _calibration_kernel()
    return min(_time_once(_calibration_kernel) for _ in range(repeats))


def measure_stage(workloads, repeats: int = 5) -> dict:
    """Seconds per call unit of each workload: the best of ``repeats``
    warm timings."""
    results = {}
    for name, (fn, per_call) in workloads.items():
        fn()  # warm caches (allocator, first-touch numpy paths)
        results[name] = min(_time_once(fn) for _ in range(repeats)) / per_call
    return results


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def load_baseline() -> dict:
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def save_baseline(bench: dict) -> None:
    with open(BASELINE_PATH, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")


def _print_results(results: dict, calibration: float) -> None:
    print(json.dumps(
        {**{k: round(v, 6) for k, v in results.items()},
         "calibration": round(calibration, 6)},
        indent=1,
    ))


def _gate(results: dict, baseline: dict, base_cal, calibration: float,
          tolerance: float) -> list[str]:
    """Print each workload against its calibration-scaled baseline and
    return the names more than ``tolerance`` slower."""
    scale = calibration / base_cal if base_cal else 1.0
    failures = []
    for name, sec in results.items():
        ref = baseline.get(name)
        if ref is None:
            continue
        slowdown = sec / (ref * scale) - 1.0
        bad = slowdown > tolerance
        status = "FAIL" if bad else "ok"
        print(f"  {name}: {sec*1e3:.1f} ms vs scaled baseline "
              f"{ref*scale*1e3:.1f} ms ({slowdown:+.0%}) {status}")
        if bad:
            failures.append(name)
    return failures


def _gate_baseline(bench: dict) -> tuple[dict, float, str]:
    """(workload baseline, its calibration, label): the pr4 stage entry
    when committed, else the pr3 'after'."""
    entry = (bench.get("pr4") or {}).get(STAGE_KEY)
    if entry and entry.get("workloads"):
        return entry["workloads"], entry.get("calibration"), "pr4"
    return bench["after"], bench.get("after_calibration"), "after (pr3)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command",
                        choices=["measure", "check", "trace-overhead", *STAGES])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown vs baseline (check)")
    parser.add_argument("--update",
                        choices=["before", "after", "pr4", "pr7", *STAGES],
                        help="write measurements into BENCH_engine.json "
                        "(pr7 records the trace-overhead stage; a stage "
                        f"command ({', '.join(STAGES)}) records its own "
                        "block)")
    args = parser.parse_args(argv)
    if args.update in STAGES and args.command != args.update:
        parser.error(f"--update {args.update} belongs to the "
                     f"{args.update!r} command")
    if args.command in STAGES:
        if args.update not in (None, args.command):
            parser.error(f"the {args.command!r} command only accepts "
                         f"--update {args.command}")
        return run_stage(args)
    if args.command == "trace-overhead":
        return trace_overhead(args)

    results, calibration = measure(args.repeats)
    _print_results(results, calibration)

    if args.update:
        bench = load_baseline()
        if args.update == "pr4":
            stage = bench.setdefault("pr4", {})
            stage[STAGE_KEY] = {
                "workloads": {k: round(v, 6) for k, v in results.items()},
                "calibration": round(calibration, 6),
            }
        else:
            bench[args.update] = {k: round(v, 6) for k, v in results.items()}
            bench[f"{args.update}_calibration"] = round(calibration, 6)
        _rederive(bench)
        save_baseline(bench)
        print(f"updated {args.update!r} in {BASELINE_PATH}")

    if args.command == "check":
        bench = load_baseline()
        baseline, base_cal, label = _gate_baseline(bench)
        print(f"baseline: {label}")
        print(f"host speed vs baseline host: {calibration / base_cal:.2f}x "
              f"(calibration {calibration*1e3:.0f} ms vs {base_cal*1e3:.0f} ms)"
              if base_cal else "no calibration baseline; absolute comparison")
        failures = _gate(results, baseline, base_cal, calibration,
                         args.tolerance)
        for name, (build, label) in STAGES.items():
            entry = (bench.get(name) or {}).get(STAGE_KEY)
            if entry and entry.get("workloads"):
                print(f"{name} stage ({label}):")
                failures += _gate(
                    measure_stage(build(), args.repeats), entry["workloads"],
                    entry.get("calibration"), calibration, args.tolerance,
                )
        if failures:
            print(f"REGRESSION: {', '.join(failures)} exceeded "
                  f"{args.tolerance:.0%} over the committed baseline",
                  file=sys.stderr)
            return 1
        print("engine perf within tolerance")
    return 0


def run_stage(args) -> int:
    """Measure one ``STAGES`` entry and optionally record it (``--update
    <stage>``) in its own block."""
    build, _label = STAGES[args.command]
    results = measure_stage(build(), args.repeats)
    calibration = _calibrate(args.repeats)
    _print_results(results, calibration)
    if args.update == args.command:
        bench = load_baseline()
        bench.setdefault(args.command, {})[STAGE_KEY] = {
            "workloads": {k: round(v, 6) for k, v in results.items()},
            "calibration": round(calibration, 6),
        }
        save_baseline(bench)
        print(f"updated {args.command!r} in {BASELINE_PATH}")
    return 0


def trace_overhead(args) -> int:
    """Time each workload untraced then traced and report the opt-in
    cost of event recording. Informational (the ``check`` gate times the
    untraced path, which the trace flag leaves untouched); ``--update
    pr7`` records the stage in ``BENCH_engine.json``.

    Samples are PAIRED: each repeat times the untraced and traced
    variant back to back, so slow host-frequency drift hits both sides
    of the ratio equally instead of skewing whichever loop ran last."""
    untraced_w = build_workloads(trace=False)
    traced_w = build_workloads(trace=True)
    untraced, traced = {}, {}
    for name, (fn_u, per_call) in untraced_w.items():
        fn_t, _ = traced_w[name]
        fn_u()  # warm both variants before the paired repeats
        fn_t()
        best_u = best_t = float("inf")
        for _ in range(args.repeats):
            best_u = min(best_u, _time_once(fn_u))
            best_t = min(best_t, _time_once(fn_t))
        untraced[name] = best_u / per_call
        traced[name] = best_t / per_call
    calibration = _calibrate(args.repeats)
    overhead = {
        name: round(traced[name] / untraced[name] - 1.0, 4)
        for name in untraced
    }
    for name in untraced:
        print(f"  {name}: {untraced[name]*1e3:.1f} ms untraced, "
              f"{traced[name]*1e3:.1f} ms traced ({overhead[name]:+.1%})")
    if args.update == "pr7":
        bench = load_baseline()
        bench.setdefault("pr7_trace", {})[STAGE_KEY] = {
            "untraced": {k: round(v, 6) for k, v in untraced.items()},
            "traced": {k: round(v, 6) for k, v in traced.items()},
            "overhead_frac": overhead,
            "calibration": round(calibration, 6),
        }
        save_baseline(bench)
        print(f"updated 'pr7_trace' in {BASELINE_PATH}")
    return 0


def _rederive(bench: dict) -> None:
    """Recompute the derived speedup blocks from whichever stages exist."""
    before, after = bench.get("before"), bench.get("after")
    if before and after:
        bench["speedup"] = {
            k: round(before[k] / after[k], 2)
            for k in after
            if k in before and after[k]
        }


if __name__ == "__main__":
    sys.exit(main())
