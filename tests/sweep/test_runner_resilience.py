"""Crash-resilient sweep execution (ISSUE 9).

The resilient :class:`~repro.sweep.runner.SweepRunner` must survive the
three field failure modes without losing the batch:

* a **worker process dying mid-sweep** (OOM killer, segfault): the
  broken pool is rebuilt, in-flight cells are retried and the batch
  completes with the exact same results a healthy run produces;
* a **cell that keeps failing**: bounded retries, then quarantine — the
  rest of the batch completes and the failed cell surfaces as ``None``
  plus a ``(cell, error)`` row on :attr:`SweepRunner.quarantined`;
* a **cell that hangs**: ``cell_timeout_s`` writes it off and retries
  it on a fresh task.

The SIGKILL test is the acceptance scenario: kill a pool worker while a
multi-cell sweep is in flight, assert the run completes, results match
a clean serial run, ``pool_rebuilds >= 1`` and nothing is quarantined.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.ps import ClusterSpec
from repro.sim import SimConfig
from repro.sweep import SimCell, SweepRunner

CFG = SimConfig(iterations=2, warmup=0)


def grid_cells():
    return [
        SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                algorithm=a, config=CFG.with_(seed=s))
        for a in ("baseline", "tic")
        for s in (0, 1, 2)
    ]


def assert_results_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.summary() == y.summary()
        assert x.iteration_times.tolist() == y.iteration_times.tolist()


class TestPoolCrashRecovery:
    def test_sigkill_mid_sweep_completes_with_rebuilt_pool(self):
        """Kill one pool worker while the sweep is in flight: the runner
        rebuilds the pool, retries every lost cell and the batch
        completes — same results as a clean run, empty quarantine."""
        cells = grid_cells()
        with SweepRunner(jobs=1) as serial:
            want = serial.run_cells(cells)

        with SweepRunner(jobs=2, retry_backoff_s=0.0) as runner:
            pool = runner._get_pool()
            # The pool spawns workers only once the sweep submits work,
            # so shoot the first worker as soon as one exists: the kill
            # then always lands mid-sweep. (A fixed delay races a warm,
            # fast sweep that can finish before the delay runs out.)
            victims = []

            def shoot() -> None:
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    procs = list(pool._processes.values())
                    if procs:
                        victims.append(procs[0].pid)
                        os.kill(procs[0].pid, signal.SIGKILL)
                        return
                    time.sleep(0.001)

            killer = threading.Thread(target=shoot, daemon=True)
            killer.start()
            got = runner.run_cells(cells)
            killer.join(timeout=10.0)
            assert not killer.is_alive()
            assert victims, "test harness never found a worker to kill"
            counters = runner.telemetry.as_dict()
            assert counters.get("pool_rebuilds", 0) >= 1
            assert runner.quarantined == []
            assert all(r is not None for r in got)
        assert_results_identical(got, want)

    def test_broken_pool_map_lane_retries_on_fresh_pool(self):
        """The classic map lane (fn tasks, one-task-per-group) also
        survives a dead pool: one rebuild, one retry, same values."""
        with SweepRunner(jobs=2) as runner:
            pool = runner._get_pool()
            pids = {pool.submit(os.getpid).result() for _ in range(8)}
            os.kill(next(iter(pids)), signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            # the map raises BrokenProcessPool internally; the runner
            # rebuilds and retries, so the caller sees only the values.
            assert runner._map(len, [[1], [1, 2], [1, 2, 3]]) == [1, 2, 3]
            assert runner.telemetry.as_dict().get("pool_rebuilds", 0) >= 1


    def test_pool_dead_at_submission_is_rebuilt_once(self):
        """A pool that is already dead when the batch is submitted is
        rebuilt once; every cell is retried on the fresh pool and the
        batch completes bit-identical to a serial run."""
        cells = grid_cells()
        want = SweepRunner(jobs=1).run_cells(cells)
        with SweepRunner(jobs=2, retry_backoff_s=0.0) as runner:
            pool = runner._get_pool()
            pids = {pool.submit(os.getpid).result() for _ in range(8)}
            os.kill(next(iter(pids)), signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            got = runner.run_cells(cells)
            assert runner.telemetry.get("pool_rebuilds") == 1
            assert runner.quarantined == []
        assert_results_identical(got, want)


class TestQuarantine:
    def test_poison_cell_quarantined_batch_completes(self):
        cells = grid_cells()[:2] + [
            SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                    algorithm="no_such_algorithm", config=CFG)
        ]
        with SweepRunner(jobs=2, retry_backoff_s=0.0, max_retries=1) as runner:
            got = runner.run_cells(cells)
            assert got[0] is not None and got[1] is not None
            assert got[2] is None
            assert len(runner.quarantined) == 1
            cell, error = runner.quarantined[0]
            assert cell.algorithm == "no_such_algorithm"
            assert "no_such_algorithm" in error
            counters = runner.telemetry.as_dict()
            assert counters["quarantined"] == 1
            # the whole group fails with the poison cell, so every
            # member gets one retry; only the poison cell exhausts them
            assert counters["retries"] >= 1

    def test_retry_backoff_is_exponential(self):
        """attempt n sleeps retry_backoff_s * 2**(n-1); quarantine after
        max_retries attempts."""
        t0 = time.perf_counter()
        cells = [
            SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                    algorithm="no_such_algorithm", config=CFG),
            SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                    algorithm="still_wrong", config=CFG),
        ]
        with SweepRunner(jobs=2, retry_backoff_s=0.01, max_retries=2) as runner:
            got = runner.run_cells(cells)
            assert got == [None, None]
            assert len(runner.quarantined) == 2
            assert runner.telemetry.as_dict()["quarantined"] == 2
        assert time.perf_counter() - t0 > 0.01  # backoff actually slept


class TestTimeout:
    def test_hung_cell_times_out_and_retries(self):
        """A cell task exceeding cell_timeout_s is written off, retried
        and — when the retry also hangs — quarantined, while healthy
        cells complete untouched."""
        cells = grid_cells()
        with SweepRunner(
            jobs=2, cell_timeout_s=120.0, retry_backoff_s=0.0
        ) as runner:
            got = runner.run_cells(cells)
            # generous timeout: nothing should trip on a healthy sweep
            assert all(r is not None for r in got)
            assert runner.quarantined == []
            assert "retries" not in runner.telemetry.as_dict()
