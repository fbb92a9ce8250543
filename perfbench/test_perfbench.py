"""Self-tests of the benchmark (not part of the repository's test suite).

    python -m pytest perfbench -q

Tiny runs of every workload must print every metric by name and unit;
a corrupted output must fail the output check; the benchmark must refuse
to run without the simulator's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import studies  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", studies.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = run.LAYER_METRICS if trace else run.E2E_METRICS
    assert list(result["metrics"]) == list(specs)
    for name, (unit, _better) in specs.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert 0.5 < metrics["trace.coverage_frac"] <= 1.0
        assert metrics["sim.loop_iterations"] > 0
        # on sweep_pool the wizard runs in pool workers: their totals count
        assert metrics["backends.prepare_comm_schedule_calls"] > 0
    else:
        assert all(value > 0 for value in metrics.values())
    assert "unvalidated model output" in proc.stdout


def test_corrupted_output_fails_the_check(tmp_path):
    committed = ROOT / "results"
    name = "fig7_worker_scaling"
    good = tmp_path / f"{name}.csv"
    shutil.copy(committed / f"{name}.csv", good)
    outputs = {name: str(good)}
    assert studies.check_outputs(outputs, str(committed), exact=True) == []
    assert studies.check_outputs(outputs, str(committed), exact=False) == []

    data = bytearray(good.read_bytes())
    data[-3] = ord("9") if data[-3] != ord("9") else ord("8")
    good.write_bytes(bytes(data))
    assert studies.check_outputs(outputs, str(committed), exact=True)

    good.write_bytes(b"\n".join(bytes(data).splitlines()[:-1]) + b"\n")
    assert studies.check_outputs(outputs, str(committed), exact=False)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(studies.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == (
        run.E2E_METRICS
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        run.LAYER_METRICS
    )


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = _bench("--workload", "sweep_pool", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
