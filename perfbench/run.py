"""Study-level benchmark of the TicTac simulator, split by layer.

    python3 perfbench/run.py --workload replay_day --seed 0 --seconds 15 --trace 0

Each pass of a workload runs in a fresh interpreter (``unit.py``) so no
in-process memo carries over between passes. A run keeps starting
passes until their timed regions fill ``--seconds`` (at least one pass),
then prints one JSON object as its last stdout line:

* ``--trace 0`` — the end-to-end metrics (``E2E_METRICS``), each the
  median over the run's passes;
* ``--trace 1`` — the per-layer metrics (``LAYER_METRICS``) of one extra
  pass under the layer tracer (``layers.py``), with the untraced passes
  as the reference for ``trace.overhead_frac``.

Every run checks outputs: every pass of one seed must write identical
files (traced or not), every replayed job and every cell must finish,
and at the committed seed the CSVs must equal ``results/*.csv`` byte for
byte. Failed checks, quarantined cells and replay rate fallbacks count
into ``failed``.

``--scale tiny`` shrinks every workload to a few seconds (self-tests).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import studies  # noqa: E402

#: name -> (unit, better). Throughputs are per host second of the timed
#: pass; "jobs" are trace jobs summed over modes on replay_day and one
#: per simulated cell elsewhere.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "sim_iters_per_s": ("1/s", "higher"),
    "cells_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); a layer a workload never calls reports 0.
LAYER_METRICS = {
    "import.repro_api_s": ("s", "lower"),
    "models.build_model_s": ("s", "lower"),
    "backends.build_comm_graph_s": ("s", "lower"),
    "backends.build_comm_graph_calls": ("count", "lower"),
    "backends.graph_memo_hit_frac": ("frac", "higher"),
    "backends.prepare_comm_schedule_s": ("s", "lower"),
    "backends.prepare_comm_schedule_calls": ("count", "lower"),
    "backends.schedule_memo_hit_frac": ("frac", "higher"),
    "sim.compiled_core_s": ("s", "lower"),
    "sim.compiled_core_calls": ("count", "lower"),
    "sim.loop_s": ("s", "lower"),
    "sim.loop_iterations": ("count", "lower"),
    "sim.loop_ms_per_iter": ("ms", "lower"),
    "sim.summarize_s": ("s", "lower"),
    "sweep.run_cells_self_s": ("s", "lower"),
    "sweep.cache_put_s": ("s", "lower"),
    "sweep.cache_put_calls": ("count", "lower"),
    "sweep.worker_sim_s": ("s", "lower"),
    "sweep.pool_busy_frac": ("frac", "higher"),
    "replay.self_s": ("s", "lower"),
    "replay.epochs": ("count", "lower"),
    "replay.compositions": ("count", "lower"),
    "replay.memo_hit_frac": ("frac", "higher"),
    "replay.composition_p50_ms": ("ms", "lower"),
    "replay.composition_p90_ms": ("ms", "lower"),
    "replay.composition_samples": ("count", "lower"),
    "replay.sink_s": ("s", "lower"),
    "replay.sink_rows": ("count", "lower"),
    "api.session_run_self_s": ("s", "lower"),
    "trace.coverage_frac": ("frac", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
}

#: setup_s is a median over at least this many fresh interpreters.
MIN_SETUP_SAMPLES = 3
#: a run that has not finished by then is killed (the limit is 180 s).
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A pass crashed or the run overran: no result is printed."""


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone


class Runner:
    """Spawns passes of one workload and keeps the run's deadline."""

    def __init__(self, args, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.count = 0

    def spawn(self, *, trace: int = 0, setup_only: bool = False):
        """Run one pass; returns (setup seconds, report or None)."""
        a = self.args
        cmd = [
            sys.executable, str(HERE / "unit.py"),
            "--workload", a.workload, "--seed", str(a.seed),
            "--scale", a.scale, "--trace", str(trace),
        ]
        report_path = None
        if setup_only:
            cmd.append("--setup-only")
        else:
            self.count += 1
            pass_dir = self.workdir / f"pass-{self.count}"
            report_path = self.workdir / f"pass-{self.count}.json"
            cmd += [
                "--workdir", str(pass_dir), "--out", str(report_path),
            ]
        t0 = time.perf_counter()
        # its own session, so a kill also reaches the pass's pool workers
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        timer = threading.Timer(
            max(0.0, self.deadline - time.monotonic()), _kill_group, (proc,)
        )
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        except BaseException:
            _kill_group(proc)
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        if time.monotonic() >= self.deadline:
            raise BenchError(f"run overran its {DEADLINE_S:.0f} s deadline")
        if rc != 0 or ready.strip() != "READY":
            raise BenchError(f"pass exited with code {rc}: {' '.join(cmd)}")
        if report_path is None:
            return setup_s, None
        with open(report_path) as fh:
            return setup_s, json.load(fh)

    def measure(self, budget_s: float):
        """Untraced passes until their timed walls fill ``budget_s``: a
        new pass starts only if it should end by ``budget_s`` plus half a
        pass. Returns (setup samples, reports)."""
        setups, reports = [], []
        while True:
            setup_s, rep = self.spawn()
            setups.append(setup_s)
            reports.append(rep)
            spent = sum(r["wall_s"] for r in reports)
            if spent + spent / len(reports) / 2 >= budget_s:
                return setups, reports


def _quantile(values, q: int) -> float:
    """The q-th percentile (q in 10..90 by 10) of a sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def e2e_metrics(setups, reports) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": statistics.median(r["jobs"] / r["wall_s"] for r in reports),
        "sim_iters_per_s": statistics.median(r["iterations"] / r["wall_s"] for r in reports),
        "cells_per_s": statistics.median(r["cells"] / r["wall_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def layer_metrics(traced: dict, reports) -> dict:
    """Per-layer metrics of the traced pass; ``reports`` are the run's
    untraced passes (the overhead reference)."""
    lay = traced["layers"]
    self_s, calls, memo = lay["self_s"], lay["calls"], lay["memo"]
    extras = traced["extras"]

    def frac(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    loop_s = self_s.get("sim.loop", 0.0)
    iters = lay["loop_iterations"]
    epochs = extras.get("epochs", 0)
    comp = lay["composition_s"]
    wall = traced["wall_s"]
    worker_sim_s = extras.get("worker_sim_s", 0.0)
    return {
        "import.repro_api_s": statistics.median(r["import_s"] for r in [traced, *reports]),
        "models.build_model_s": self_s.get("models.build_model", 0.0),
        "backends.build_comm_graph_s": self_s.get("backends.build_comm_graph", 0.0),
        "backends.build_comm_graph_calls": calls.get("backends.build_comm_graph", 0),
        "backends.graph_memo_hit_frac": frac(
            memo.get("graph_memo_hits", 0), memo.get("graph_memo_misses", 0)
        ),
        "backends.prepare_comm_schedule_s": self_s.get(
            "backends.prepare_comm_schedule", 0.0
        ),
        "backends.prepare_comm_schedule_calls": calls.get(
            "backends.prepare_comm_schedule", 0
        ),
        "backends.schedule_memo_hit_frac": frac(
            memo.get("wizard_memo_hits", 0), memo.get("wizard_memo_misses", 0)
        ),
        "sim.compiled_core_s": self_s.get("sim.compiled_core", 0.0),
        "sim.compiled_core_calls": calls.get("sim.compiled_core", 0),
        "sim.loop_s": loop_s,
        "sim.loop_iterations": iters,
        "sim.loop_ms_per_iter": loop_s / iters * 1e3 if iters else 0.0,
        "sim.summarize_s": self_s.get("sim.summarize", 0.0),
        "sweep.run_cells_self_s": lay["main_self_s"].get("sweep.run_cells", 0.0),
        "sweep.cache_put_s": self_s.get("sweep.cache_put", 0.0),
        "sweep.cache_put_calls": calls.get("sweep.cache_put", 0),
        "sweep.worker_sim_s": worker_sim_s,
        "sweep.pool_busy_frac": worker_sim_s / (extras.get("pool_jobs", 1) * wall),
        "replay.self_s": self_s.get("replay", 0.0),
        "replay.epochs": epochs,
        "replay.compositions": extras.get("compositions", 0),
        "replay.memo_hit_frac": (
            1.0 - extras.get("compositions", 0) / epochs if epochs else 0.0
        ),
        "replay.composition_p50_ms": _quantile(comp, 50) * 1e3,
        "replay.composition_p90_ms": _quantile(comp, 90) * 1e3,
        "replay.composition_samples": len(comp),
        "replay.sink_s": self_s.get("replay.sink", 0.0),
        "replay.sink_rows": extras.get("sink_rows", 0),
        "api.session_run_self_s": self_s.get("api.session_run", 0.0),
        "trace.coverage_frac": sum(lay["main_self_s"].values()) / wall,
        "trace.overhead_frac": wall / statistics.median(r["wall_s"] for r in reports) - 1.0,
    }


def _info(message: str) -> None:
    print(f"info: {message}", flush=True)


def run(args) -> dict:
    work_root = ROOT / ".perfbench-work"
    workdir = work_root / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # the "build": byte-compile once so every pass imports from .pyc
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
            check=True, stdout=subprocess.DEVNULL,
        )
        runner = Runner(args, workdir)
        budget = args.seconds / 2 if args.trace else args.seconds
        setups, reports = runner.measure(budget)
        traced = None
        if args.trace:
            _, traced = runner.spawn(trace=1)
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(runner.spawn(setup_only=True)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    passes = reports + ([traced] if traced else [])
    attempted = sum(r["ops"] + r["checks"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    # same seed, same inputs: every pass, traced or not, writes the same files
    attempted += len(passes) - 1
    for i, r in enumerate(passes[1:], start=2):
        if r["digest"] != passes[0]["digest"]:
            failures.append(f"pass {i} wrote different outputs than pass 1")
    for f in failures:
        _info(f"FAILED {f}")
    _info(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, "
        f"attempted {attempted}, failed {len(failures)}, "
        f"fail_frac {len(failures) / attempted:.6f}"
    )
    _info("timed pass walls (s): " + ", ".join(f"{r['wall_s']:.3f}" for r in passes))
    for name, value in sorted(passes[0]["sim_stats"].items()):
        _info(
            f"simulated {name} = {value} (unvalidated model output: the repo "
            f"holds no hardware reference)"
        )
    if args.trace:
        values, specs = layer_metrics(traced, reports), LAYER_METRICS
    else:
        values, specs = e2e_metrics(setups, reports), E2E_METRICS
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in specs.items()
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=studies.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=studies.SCALES, default="full")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, subprocess.CalledProcessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
