"""The benchmark's workloads: inputs, one timed pass, and output checks.

Each workload is a study a user runs, driven through the public API:

* ``replay_day`` — the ``cluster_day`` study: a seeded 1000-job day
  replayed serially through :func:`repro.replay.replay` under
  baseline/tic/tac/mix on the 16-slot envC cluster, rows streaming to a
  :class:`~repro.replay.CsvChunkSink`;
* ``study_grid`` — the ``fig7`` and ``allreduce`` studies at quick scale
  through ``Session(jobs=1, seed=...)`` with a fresh disk cache;
* ``sweep_pool`` — many cheap cells (small envC PS shapes x
  baseline/tic/tac x seeds derived from the workload seed, one iteration,
  no warmup) through ``SweepRunner(jobs=2)`` with a fresh disk cache.

A pass returns an :class:`Outcome`: the work it did, the files it wrote,
a digest of its outputs, and the checks it ran. :func:`check_outputs`
holds the checks that compare files.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

#: the committed quick-scale outputs the checks compare against.
COMMITTED_DIR = Path(__file__).resolve().parent.parent / "results"

#: the seed the committed ``results/*.csv`` were generated with; a pass
#: at this seed and full size must reproduce them byte for byte.
COMMITTED_SEED = 0

WORKLOADS = ("replay_day", "study_grid", "sweep_pool")
SCALES = ("full", "tiny")

#: sweep_pool's grid: (model, workers, PS) shapes x algorithms x seeds.
POOL_SHAPES = (
    ("AlexNet v2", 2, 1),
    ("AlexNet v2", 4, 1),
    ("Inception v1", 2, 1),
    ("Inception v1", 4, 1),
)
POOL_ALGORITHMS = ("baseline", "tic", "tac")
POOL_SEEDS = 12
POOL_JOBS = 2

STUDY_GRID = ("fig7", "allreduce")


@dataclass
class Outcome:
    """What one pass of a workload did and produced."""

    jobs: int = 0  # trace jobs replayed (one per cell outside replay_day)
    cells: int = 0  # cells simulated (distinct, fresh cache)
    iterations: int = 0  # simulated iterations, warmup included
    ops: int = 0  # operations attempted (jobs or cells)
    failures: list = field(default_factory=list)  # one line per failure
    checks: int = 0  # output checks run
    outputs: dict = field(default_factory=dict)  # name -> path
    digest: str = ""
    extras: dict = field(default_factory=dict)  # per-layer facts
    sim_stats: dict = field(default_factory=dict)  # information only
    results: list = field(default_factory=list)  # sweep_pool's, for verify


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def file_digest(paths: dict) -> str:
    """One sha256 over the named files' bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(paths):
        h.update(name.encode())
        with open(paths[name], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cache_work(cache_dir: str) -> tuple[int, int]:
    """(cells, iterations) simulated into a fresh sweep cache: one entry
    per distinct cell, whose result lists its warmup and recorded
    iterations."""
    cells = iterations = 0
    for path in glob.glob(os.path.join(cache_dir, "*", "*.json")):
        with open(path) as fh:
            payload = json.load(fh)
        if "iterations" in payload:
            cells += 1
            iterations += len(payload["iterations"]) + len(payload["warmup"])
    return cells, iterations


def check_outputs(outputs: dict, committed_dir: str, exact: bool) -> list:
    """Compare produced CSVs with the committed ones.

    ``exact`` (committed seed, full size): byte-identical files. Else the
    shape must match: the same header and the same number of lines (the
    grid does not depend on the seed, only the simulated values do).
    Returns one failure line per mismatch.
    """
    failures = []
    for name, path in sorted(outputs.items()):
        ref = os.path.join(committed_dir, f"{name}.csv")
        with open(path, "rb") as fh:
            got = fh.read()
        with open(ref, "rb") as fh:
            want = fh.read()
        if exact:
            if got != want:
                failures.append(f"{name}.csv differs from the committed file")
            continue
        got_lines, want_lines = got.splitlines(), want.splitlines()
        if got_lines[:1] != want_lines[:1]:
            failures.append(f"{name}.csv header differs from the committed file")
        elif len(got_lines) != len(want_lines):
            failures.append(
                f"{name}.csv has {len(got_lines)} lines, committed "
                f"{len(want_lines)}"
            )
    return failures


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


# ----------------------------------------------------------------------
# replay_day
# ----------------------------------------------------------------------
def _replay_setup(seed: int, scale: str) -> dict:
    from repro.api.replay_scenarios import CLUSTER_DAY
    from repro.replay import generate_trace

    traces = generate_trace(CLUSTER_DAY.trace, seed=seed)
    if scale == "tiny":
        traces = traces[:8]
    return {"study": CLUSTER_DAY, "traces": traces}


def _replay_run(inputs: dict, seed: int, workdir: str) -> Outcome:
    from repro.analysis.render import write_csv
    from repro.api.context import QUICK
    from repro.replay import CsvChunkSink, ReplayAggregate, replay
    from repro.replay.engine import JOB_COLUMNS
    from repro.sim import SimConfig
    from repro.sweep import SweepRunner

    study, traces = inputs["study"], inputs["traces"]
    out = Outcome()
    outputs = {
        "cluster_day": os.path.join(workdir, "cluster_day.csv"),
        "cluster_day_jobs": os.path.join(workdir, "cluster_day_jobs.csv"),
        "cluster_day_stats": os.path.join(workdir, "cluster_day_stats.csv"),
    }
    # the cluster_day scenario's config at quick scale (replay reduces it
    # to one iteration, no warmup)
    config = SimConfig(seed=seed, iterations=QUICK.iterations, warmup=QUICK.warmup)
    aggregate = ReplayAggregate(study.cluster.total_slots)
    sink = CsvChunkSink(
        outputs["cluster_day_jobs"], JOB_COLUMNS,
        chunk_rows=study.chunk_rows, aggregate=aggregate,
    )
    stats = []
    with SweepRunner(jobs=1, cache_dir=os.path.join(workdir, "cache")) as runner:
        try:
            for mode in study.modes:
                res = replay(
                    traces, study.cluster, runner=runner, algorithm=mode,
                    admission=study.admission, config=config, sink=sink,
                )
                stats.append({
                    "algorithm": res.label,
                    "admission": res.admission,
                    "jobs": res.jobs,
                    "done": res.done,
                    "quarantined": len(res.quarantined),
                    "epochs": res.epochs,
                    "compositions": res.compositions,
                    "rate_fallbacks": res.rate_fallbacks,
                    "jobs_waited": res.queued,
                    "queue_peak": res.queue_peak,
                })
        finally:
            info = sink.close()
        os.remove(sink.manifest_path)
        write_csv(outputs["cluster_day"], aggregate.summary_rows())
        write_csv(outputs["cluster_day_stats"], stats)
        quarantined = list(runner.quarantined)
    out.outputs = outputs
    out.jobs = out.ops = len(traces) * len(study.modes)
    for row in stats:
        if row["done"] + row["quarantined"] != len(traces):
            out.failures.append(
                f"replay {row['algorithm']}: done {row['done']} + "
                f"quarantined {row['quarantined']} != {len(traces)} jobs"
            )
        if row["rate_fallbacks"]:
            out.failures.append(
                f"replay {row['algorithm']}: {row['rate_fallbacks']} "
                f"rate fallbacks"
            )
    out.failures += [f"quarantined cell: {err}" for _cell, err in quarantined]
    out.checks += len(stats)
    out.extras = {
        "epochs": sum(r["epochs"] for r in stats),
        "compositions": sum(r["compositions"] for r in stats),
        "sink_rows": info["rows"],
    }
    out.sim_stats = {
        f"{r['algorithm']}_{key}": r[key]
        for r in aggregate.summary_rows()
        for key in ("mean_jct_s", "p99_jct_s")
    }
    return out


# ----------------------------------------------------------------------
# study_grid
# ----------------------------------------------------------------------
def _grid_setup(seed: int, scale: str) -> dict:
    from repro.api import QUICK, Scale, scenario

    if scale == "tiny":
        size = Scale(
            name="tiny", models=("AlexNet v2",), worker_counts=(2, 4),
            ps_counts=(1,), iterations=1, warmup=0,
            consistency_runs=1, loss_iterations=1,
        )
    else:
        size = QUICK
    return {"scale": size, "scenarios": [scenario(n) for n in STUDY_GRID]}


def _grid_run(inputs: dict, seed: int, workdir: str) -> Outcome:
    from repro.api import Session

    out = Outcome()
    results_dir = os.path.join(workdir, "results")
    with Session(
        scale=inputs["scale"], jobs=1, seed=seed, results_dir=results_dir,
    ) as session:
        gains = {}
        for sc in inputs["scenarios"]:
            rs = session.run(sc)
            out.outputs.update(rs.save(results_dir))
            gains[sc.name] = [
                (row.get("algorithm", "tic"), row["speedup_pct"]) for row in rs.rows
            ]
        quarantined = list(session.sweep.quarantined)
    out.failures += [f"quarantined cell: {err}" for _cell, err in quarantined]
    out.sim_stats = {
        "fig7_tic_gain_pct_mean": round(_mean(g for _a, g in gains["fig7"]), 3),
        **{
            f"allreduce_{alg}_gain_pct_mean": round(
                _mean(g for a, g in gains["allreduce"] if a == alg), 3
            )
            for alg in ("tic", "tac")
        },
    }
    return out


# ----------------------------------------------------------------------
# sweep_pool
# ----------------------------------------------------------------------
def _pool_setup(seed: int, scale: str) -> dict:
    import numpy as np

    from repro.backends import make_spec
    from repro.sim import SimConfig
    from repro.sweep.spec import SimCell

    shapes, n_seeds = POOL_SHAPES, POOL_SEEDS
    if scale == "tiny":
        shapes, n_seeds = POOL_SHAPES[:1], 2
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=n_seeds)]
    cells = [
        SimCell(
            model=model,
            spec=make_spec("ps", n_workers=workers, n_ps=ps),
            algorithm=algorithm,
            platform="envC",
            config=SimConfig(seed=cell_seed, iterations=1, warmup=0),
        )
        for model, workers, ps in shapes
        for algorithm in POOL_ALGORITHMS
        for cell_seed in seeds
    ]
    return {"cells": cells}


def _pool_run(inputs: dict, seed: int, workdir: str) -> Outcome:
    from repro.sweep import SweepRunner

    cells = inputs["cells"]
    out = Outcome()
    with SweepRunner(jobs=POOL_JOBS, cache_dir=os.path.join(workdir, "cache")) as runner:
        results = runner.run_cells(cells)
        quarantined = list(runner.quarantined)
        worker_sim_s = runner.telemetry.get("sim_wall_s")
    out.ops = out.jobs = len(cells)
    out.failures += [f"quarantined cell: {err}" for _cell, err in quarantined]
    out.extras = {"worker_sim_s": worker_sim_s, "pool_jobs": POOL_JOBS}
    out.results = results
    return out


def _pool_verify(inputs: dict, out: Outcome, workdir: str) -> None:
    """Digest every cell's result; re-simulate the first tic cell of
    each shape in-process and require the pool's result bit for bit."""
    from repro.sim.runner import simulate_cell_group
    from repro.sweep.serialize import result_to_dict

    cells, results = inputs["cells"], out.results
    payloads = []
    for cell, result in zip(cells, results):
        if result is None:
            out.failures.append(f"no result for {cell.model} {cell.algorithm}")
            payloads.append(None)
        else:
            payloads.append(result_to_dict(result))
    path = os.path.join(workdir, "sweep_pool.json")
    with open(path, "w") as fh:
        json.dump(payloads, fh, sort_keys=True)
    out.outputs = {"sweep_pool": path}
    out.checks += len(cells)
    firsts = {}
    for i, cell in enumerate(cells):
        if cell.algorithm == "tic":
            firsts.setdefault(cell.group_key, i)
    for i in firsts.values():
        cell = cells[i]
        serial = simulate_cell_group(
            cell.model, cell.spec, [(cell.algorithm, cell.config)],
            platform=cell.platform, batch_factor=cell.batch_factor,
        )[0]
        out.checks += 1
        if payloads[i] != result_to_dict(serial):
            out.failures.append(
                f"pool result differs from in-process run: {cell.model} "
                f"{cell.spec.n_workers}w {cell.algorithm}"
            )
    base = {}
    gains: dict = {}
    for cell, result in zip(cells, results):
        if result is None:
            continue
        key = (cell.group_key, cell.config.seed)
        if cell.algorithm == "baseline":
            base[key] = result.throughput
        else:
            gains.setdefault(cell.algorithm, []).append(
                (result.throughput / base[key] - 1.0) * 100.0
            )
    out.sim_stats = {
        f"pool_{alg}_gain_pct_mean": round(_mean(v), 3) for alg, v in gains.items()
    }


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def setup(workload: str, seed: int, scale: str) -> dict:
    return {
        "replay_day": _replay_setup,
        "study_grid": _grid_setup,
        "sweep_pool": _pool_setup,
    }[workload](seed, scale)


def run(workload: str, inputs: dict, seed: int, workdir: str) -> Outcome:
    """The timed pass: exactly what a user of the study waits for."""
    return {
        "replay_day": _replay_run,
        "study_grid": _grid_run,
        "sweep_pool": _pool_run,
    }[workload](inputs, seed, workdir)


def verify(
    workload: str, inputs: dict, out: Outcome, seed: int, scale: str, workdir: str
) -> None:
    """Untimed checks and counts after a pass; fills ``out`` in place."""
    if workload == "sweep_pool":
        _pool_verify(inputs, out, workdir)
    elif scale == "full":
        exact = seed == COMMITTED_SEED
        out.failures += check_outputs(out.outputs, str(COMMITTED_DIR), exact)
        out.checks += len(out.outputs)
    if workload == "study_grid":  # the Session's default cache location
        cache_dir = os.path.join(workdir, "results", ".sweep-cache")
    else:
        cache_dir = os.path.join(workdir, "cache")
    out.cells, out.iterations = cache_work(cache_dir)
    if workload == "study_grid":
        out.ops = out.jobs = out.cells
    out.digest = file_digest(out.outputs)
