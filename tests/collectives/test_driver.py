"""The allreduce experiment driver: outputs, guarantees, determinism."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Scale, Session

REPO_ROOT = Path(__file__).resolve().parents[2]

TINY_SCALE = Scale(
    name="quick",
    models=("AlexNet v2",),
    worker_counts=(2,),
    ps_counts=(1,),
    iterations=2,
    warmup=0,
    consistency_runs=1,
    loss_iterations=1,
)


@pytest.fixture(scope="module")
def driver_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("allreduce")
    with Session(
        scale=TINY_SCALE, results_dir=str(tmp), jobs=1, cache=False
    ) as session:
        out = session.run("allreduce")
        out.extras["csv_path"] = session.save(out)[out.name]
    return out, tmp


def test_driver_covers_the_grid(driver_output):
    out, _ = driver_output
    rows = out.rows
    assert {r["topology"] for r in rows} == {"ring", "hierarchical"}
    assert {r["algorithm"] for r in rows} == {"baseline", "tic", "tac"}
    assert len({r["partition_mib"] for r in rows}) == 2
    assert len(rows) == 2 * 2 * 3  # topologies x partitions x algorithms


def test_driver_writes_all_csvs(driver_output):
    out, tmp = driver_output
    csv_path = out.extras["csv_path"]
    assert os.path.exists(csv_path)
    assert csv_path.endswith("allreduce_comparison.csv")
    assert os.path.exists(out.extras["wire_check_csv"])
    assert os.path.exists(out.extras["vs_ps_csv"])


def test_ring_wire_check_within_5pct(driver_output):
    out, _ = driver_output
    import csv

    with open(out.extras["wire_check_csv"]) as fh:
        for row in csv.DictReader(fh):
            assert 1.0 - 1e-6 <= float(row["ratio"]) <= 1.05


def test_tac_never_slower_than_baseline(driver_output):
    out, _ = driver_output
    for row in out.rows:
        if row["algorithm"] == "tac":
            assert row["speedup_pct"] >= 0.0


_SUBPROCESS_SCRIPT = """
import sys
from repro.api import Scale, Session

scale = Scale(
    name="quick", models=("AlexNet v2",), worker_counts=(2,), ps_counts=(1,),
    iterations=2, warmup=0, consistency_runs=1, loss_iterations=1,
)
with Session(scale=scale, results_dir=sys.argv[1], jobs=1,
             cache=False) as session:
    session.save(session.run("allreduce"))
"""


def _run_driver_in_subprocess(results_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT, str(results_dir)],
        check=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(results_dir.glob("*.csv"))
    }


def test_driver_is_deterministic_across_processes(tmp_path):
    """Two independent interpreter processes produce byte-identical CSVs
    (no caching involved)."""
    a = _run_driver_in_subprocess(tmp_path / "a")
    b = _run_driver_in_subprocess(tmp_path / "b")
    assert a and a == b
