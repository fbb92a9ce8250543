"""The sweep runner's persistent pool: parallel runs equal serial ones.

With ``jobs > 1`` every compile-once group is one pool task (a batch
with fewer groups than workers splits each group into strided chunks).
Whatever the split, results must be bit-identical to a serial run, a
scheduled cell must never degrade to baseline, cache entries must be
interchangeable between serial and parallel runs, and the pool must
persist across calls.
"""

from __future__ import annotations

import os

import pytest

from repro.ps import ClusterSpec
from repro.sim import SimConfig
from repro.sweep import FnTask, SimCell, SweepRunner

CFG = SimConfig(iterations=2, warmup=0)


def grid_cells() -> list[SimCell]:
    cells = [
        SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                algorithm=a, config=CFG)
        for a in ("baseline", "tic", "tac")
    ]
    # a second group with a single cell and a different seed variant
    cells.append(SimCell(model="AlexNet v2", spec=ClusterSpec(4, 1, "training"),
                         algorithm="tic", config=CFG))
    cells.append(SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                         algorithm="tic", config=CFG.with_(seed=3)))
    return cells


def _pid(_=None, tag=None) -> int:
    return os.getpid()


def assert_results_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.summary() == y.summary()
        assert x.iteration_times.tolist() == y.iteration_times.tolist()


# ----------------------------------------------------------------------
# runner integration
# ----------------------------------------------------------------------
class TestSharedSweep:
    def test_shared_parallel_equals_serial(self):
        cells = grid_cells()
        serial = SweepRunner(jobs=1).run_cells(cells)
        with SweepRunner(jobs=2) as runner:
            parallel = runner.run_cells(cells)
            # two groups on two workers: one task per group
            assert runner.telemetry.get("groups_run") == 2
            # a second call on the same runner recomputes identically
            again = runner.run_cells(cells)
        assert_results_identical(serial, parallel)
        assert_results_identical(serial, again)

    def test_single_group_batch_splits_into_chunks(self):
        """A 12-cell single-group batch on two workers runs as two
        strided chunks, bit-identical to the serial run."""
        spec = ClusterSpec(2, 1, "training")
        cells = [
            SimCell(model="AlexNet v2", spec=spec, algorithm=a,
                    config=CFG.with_(seed=s))
            for a in ("baseline", "tic", "tac")
            for s in range(4)
        ]
        serial = SweepRunner(jobs=1).run_cells(cells)
        with SweepRunner(jobs=2) as runner:
            parallel = runner.run_cells(cells)
            assert runner.telemetry.get("groups_run") == 2
        assert_results_identical(serial, parallel)
        assert [r.algorithm for r in parallel] == [c.algorithm for c in cells]

    def test_reused_core_with_new_algorithm_is_not_baseline(self):
        """Regression: a runner whose workers already simulated a group
        for {baseline, tic} must run a later tic_plus/tac cell of the
        same group under its own schedule, never silently as baseline."""
        spec = ClusterSpec(2, 1, "training")
        first_call = [
            SimCell(model="AlexNet v2", spec=spec, algorithm=a, config=CFG)
            for a in ("baseline", "tic")
        ]
        second_call = [
            SimCell(model="AlexNet v2", spec=spec, algorithm=a, config=CFG)
            for a in ("tac", "tic_plus")
        ]
        third_call = [  # single-cell batch: runs in-process
            SimCell(model="AlexNet v2", spec=spec, algorithm="tac",
                    config=CFG.with_(seed=5))
        ]
        serial = SweepRunner(jobs=1).run_cells(
            first_call + second_call + third_call
        )
        with SweepRunner(jobs=2) as runner:
            got = runner.run_cells(first_call)
            got += runner.run_cells(second_call)
            got += runner.run_cells(third_call)
        assert_results_identical(serial, got)
        assert [r.algorithm for r in got] == [
            "baseline", "tic", "tac", "tic_plus", "tac",
        ]

    def test_batched_group_with_wizarded_algorithm_never_baseline(self):
        """A group split into chunks across workers must wizard each
        chunk's scheduled cells — never silently run them as baseline."""
        spec = ClusterSpec(2, 1, "training")
        cells = [
            SimCell(model="AlexNet v2", spec=spec, algorithm=a, config=CFG)
            for a in ("baseline", "tic", "tac", "tic_plus")
        ]
        serial = SweepRunner(jobs=1).run_cells(cells)
        with SweepRunner(jobs=2) as runner:
            got = runner.run_cells(cells)
            assert runner.telemetry.get("groups_run") == 2  # two chunks
            more = runner.run_cells(
                [SimCell(model="AlexNet v2", spec=spec, algorithm="tac",
                         config=CFG.with_(seed=5))]
            )
        assert [r.algorithm for r in got] == ["baseline", "tic", "tac",
                                              "tic_plus"]
        assert more[0].algorithm == "tac"
        assert_results_identical(serial, got)
        # distinct algorithms must differ from baseline (tic reorders):
        # equality here would mean the schedule was dropped in transit
        base, tic = got[0], got[1]
        assert base.iteration_times.tolist() != tic.iteration_times.tolist()

    def test_cached_shared_and_serial_share_entries(self, tmp_path):
        cells = grid_cells()
        with SweepRunner(jobs=2, cache_dir=str(tmp_path)) as runner:
            fresh = runner.run_cells(cells)
            assert runner.stats.writes == len(set(cells))
        warm = SweepRunner(jobs=1, cache_dir=str(tmp_path))
        hits = warm.run_cells(cells)
        assert warm.stats.hits == len(set(cells))
        assert_results_identical(fresh, hits)

    def test_failed_group_prep_leaks_nothing(self):
        """A wizard failure in one chunk of a group leaks nothing into
        the rest of the batch: the healthy cell completes without a
        retry, and the poisoned cell is quarantined after its retries
        instead of raising."""
        cells = [
            SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                    algorithm=a, config=CFG)
            for a in ("baseline", "nonexistent_algo")
        ]
        with SweepRunner(jobs=2, retry_backoff_s=0.0) as runner:
            results = runner.run_cells(cells)
            assert results[0] is not None  # the healthy cell completed
            assert results[1] is None  # the poisoned cell was given up on
            assert len(runner.quarantined) == 1
            cell, error = runner.quarantined[0]
            assert cell.algorithm == "nonexistent_algo"
            assert "nonexistent_algo" in error
            counters = runner.telemetry.as_dict()
            assert counters["quarantined"] == 1
            # one group, two workers: each cell is its own chunk, so
            # only the poisoned cell is ever retried
            assert counters["retries"] == runner.max_retries
        serial = SweepRunner(jobs=1).run_cells(cells[:1])
        assert_results_identical(serial, results[:1])

    @pytest.mark.parametrize("knob", ["share_cores", "batch_cells"])
    def test_removed_lane_knobs_are_rejected(self, knob):
        with pytest.raises(TypeError):
            SweepRunner(jobs=2, **{knob: False})

    def test_pool_is_persistent_across_maps(self):
        with SweepRunner(jobs=2) as runner:
            first = runner._map(_pid, list(range(8)))
            pool = runner._pool
            assert pool is not None
            second = runner._map(_pid, list(range(8)))
            assert runner._pool is pool
            assert set(first) & set(second)  # same worker processes
            assert os.getpid() not in first
        assert runner._pool is None

    def test_fn_tasks_use_persistent_pool(self):
        with SweepRunner(jobs=2) as runner:
            runner.run_cells(grid_cells()[:3])
            pool = runner._pool
            assert pool is not None
            # two DISTINCT tasks (identical ones dedupe to a single
            # pending item, which _map would run inline in the parent)
            values = runner.run_tasks(
                [FnTask.make(_pid, tag=1), FnTask.make(_pid, tag=2)]
            )
            assert runner._pool is pool  # same pool, not a fresh spawn
            assert os.getpid() not in values  # ran on workers, not inline
