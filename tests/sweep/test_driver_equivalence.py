"""End-to-end: a figure driver through the sweep runner reproduces the
seed's hand-rolled serial loop exactly, serial == parallel, and a warm
cache serves the same rows without simulating."""

import csv

import pytest

from repro.api import Scale, Session
from repro.ps import ClusterSpec
from repro.sim import speedup_vs_baseline


def run_fig7(session: Session):
    """The scenario path every caller goes through."""
    out = session.run("fig7")
    paths = session.save(out)
    return out, paths[out.name]

MICRO = Scale(
    name="micro",
    models=("AlexNet v2", "Inception v1"),
    worker_counts=(2, 4),
    ps_counts=(1,),
    iterations=2,
    warmup=0,
    consistency_runs=8,
    loss_iterations=10,
)


def micro_session(tmp_path, **overrides) -> Session:
    kwargs = dict(scale=MICRO, results_dir=str(tmp_path), jobs=1)
    kwargs.update(overrides)
    return Session(**kwargs)


def seed_style_fig7_rows(session: Session, algorithm: str = "tic") -> list[dict]:
    """The seed's original fig7 loop, kept verbatim as the reference."""
    rows = []
    for workload in ("inference", "training"):
        for model in session.scale.models:
            for w in session.scale.worker_counts:
                spec = ClusterSpec(
                    n_workers=w, n_ps=max(1, w // 4), workload=workload
                )
                gain, sched, base = speedup_vs_baseline(
                    model, spec, algorithm=algorithm, platform="envG",
                    config=session.sim_config(),
                )
                rows.append(
                    {
                        "model": model,
                        "workload": workload,
                        "workers": w,
                        "ps": spec.n_ps,
                        "baseline_sps": round(base.throughput, 1),
                        f"{algorithm}_sps": round(sched.throughput, 1),
                        "speedup_pct": round(gain, 1),
                    }
                )
    return rows


@pytest.fixture(scope="module")
def reference_rows(tmp_path_factory):
    with micro_session(tmp_path_factory.mktemp("ref"), cache=False) as session:
        return seed_style_fig7_rows(session)


def test_fig7_matches_seed_serial_loop(tmp_path, reference_rows):
    with micro_session(tmp_path) as session:
        out, _ = run_fig7(session)
    assert out.rows == reference_rows


def test_fig7_parallel_matches_serial(tmp_path, reference_rows):
    with micro_session(tmp_path, jobs=2, cache=False) as session:
        out, _ = run_fig7(session)
    assert out.rows == reference_rows


def test_fig7_warm_cache_matches_and_skips_simulation(tmp_path, reference_rows):
    with micro_session(tmp_path) as cold_session:
        cold, _ = run_fig7(cold_session)
        assert cold_session.sweep.stats.hits == 0

    with micro_session(tmp_path) as warm_session:
        warm, warm_csv = run_fig7(warm_session)
        assert warm.rows == cold.rows == reference_rows
        assert warm_session.sweep.stats.misses == 0  # all served from cache
        assert warm_session.sweep.stats.hits > 0

    with open(warm_csv) as fh:
        csv_rows = list(csv.DictReader(fh))
    assert len(csv_rows) == len(reference_rows)
    assert csv_rows[0]["speedup_pct"] == str(reference_rows[0]["speedup_pct"])
