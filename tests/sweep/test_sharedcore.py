"""Cross-process shared cores: zero-copy fidelity + lifecycle hygiene.

Covers the ISSUE 4 sweep tentpole: workers attaching a published
:class:`~repro.sim.engine.CompiledCore` must see byte-identical arrays
and produce bit-identical simulations; the persistent pool must actually
persist; and shared-memory blocks must never outlive their runner
(``close``/``finally``/``atexit``), even when the sweep dies mid-run.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.ps import ClusterSpec, build_cluster_graph
from repro.models import build_model
from repro.sim import CompiledCore, SimConfig, SimVariant
from repro.sweep import FnTask, SimCell, SweepRunner, sharedcore
from repro.timing import ENV_G

CFG = SimConfig(iterations=2, warmup=0)


def make_core() -> CompiledCore:
    ir = build_model("AlexNet v2")
    cluster = build_cluster_graph(ir, ClusterSpec(2, 1, "training"))
    return CompiledCore(cluster, ENV_G)


def grid_cells() -> list[SimCell]:
    cells = [
        SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                algorithm=a, config=CFG)
        for a in ("baseline", "tic", "tac")
    ]
    # a second group with a single cell (exercises the legacy lane of
    # the mixed phase-A map) and a different seed variant
    cells.append(SimCell(model="AlexNet v2", spec=ClusterSpec(4, 1, "training"),
                         algorithm="tic", config=CFG))
    cells.append(SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                         algorithm="tic", config=CFG.with_(seed=3)))
    return cells


def core_checksum(core: CompiledCore) -> str:
    digest = hashlib.sha256()
    for attr in sharedcore.ARRAY_ATTRS:
        digest.update(np.ascontiguousarray(getattr(core, attr)).tobytes())
    return digest.hexdigest()


def _attach_checksum(handle) -> tuple[int, str]:
    """Worker probe: attach and fingerprint the shared arrays."""
    core, _meta = sharedcore.attach(handle)
    return os.getpid(), core_checksum(core)


def _pid(_=None, tag=None) -> int:
    return os.getpid()


def assert_unlinked(names):
    """The given blocks are gone (other live runners' blocks may remain)."""
    live = set(sharedcore.leaked_segments())
    assert not (set(names) & live), (names, live)


def assert_results_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.summary() == y.summary()
        assert x.iteration_times.tolist() == y.iteration_times.tolist()


# ----------------------------------------------------------------------
# publish/attach fidelity
# ----------------------------------------------------------------------
class TestPublishAttach:
    def test_roundtrip_arrays_and_simulation(self):
        core = make_core()
        handle = sharedcore.publish(
            core, meta={"model": "AlexNet v2", "batch_size": 1, "n_params": 1}
        )
        try:
            attached, meta = sharedcore.attach(handle)
            assert meta["model"] == "AlexNet v2"
            assert core_checksum(attached) == core_checksum(core)
            assert attached.n == core.n
            assert attached.param_groups == core.param_groups
            assert attached.resource_names() == core.resource_names()
            # the attached arrays are zero-copy views, enforced read-only
            assert not attached.op_res.flags.writeable
            with pytest.raises(ValueError):
                attached.op_res[0] = 1
            # simulations on the attached core are bit-identical
            cfg = SimConfig(iterations=1, seed=4)
            a = SimVariant(core, None, cfg).run_iteration(0)
            b = SimVariant(attached, None, cfg).run_iteration(0)
            assert a.makespan == b.makespan
            assert np.array_equal(a.start, b.start)
            assert np.array_equal(a.end, b.end)
        finally:
            sharedcore.detach_all()
            handle.unlink()
        assert_unlinked([handle.shm_name])

    def test_attach_is_cached_per_process(self):
        core = make_core()
        handle = sharedcore.publish(core, meta={})
        try:
            first, _ = sharedcore.attach(handle)
            again, _ = sharedcore.attach(handle)
            assert first is again
        finally:
            sharedcore.detach_all()
            handle.unlink()

    def test_unlink_is_idempotent(self):
        handle = sharedcore.publish(make_core(), meta={})
        assert handle.shm_name in sharedcore.leaked_segments()
        handle.unlink()
        handle.unlink()  # second call is a no-op, not an error
        assert_unlinked([handle.shm_name])

    def test_workers_see_identical_cores(self):
        """Every pool worker attaches the same bytes the parent published."""
        from concurrent.futures import ProcessPoolExecutor

        core = make_core()
        handle = sharedcore.publish(core, meta={})
        want = core_checksum(core)
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(_attach_checksum, [handle] * 4))
            assert {checksum for _pid_, checksum in got} == {want}
            assert len({pid for pid, _ in got}) >= 1  # ran somewhere real
        finally:
            handle.unlink()
        assert_unlinked([handle.shm_name])


# ----------------------------------------------------------------------
# runner integration
# ----------------------------------------------------------------------
class TestSharedSweep:
    def test_shared_parallel_equals_serial(self):
        cells = grid_cells()
        serial = SweepRunner(jobs=1).run_cells(cells)
        with SweepRunner(jobs=2) as runner:
            parallel = runner.run_cells(cells)
            assert runner._group_cores  # the multi-cell group was published
            # cross-call reuse: same grid again attaches, not recompiles
            published = {
                k: p.handle.shm_name for k, p in runner._group_cores.items()
            }
            again = runner.run_cells(cells)
            assert {
                k: p.handle.shm_name for k, p in runner._group_cores.items()
            } == published
        assert_results_identical(serial, parallel)
        assert_results_identical(serial, again)
        assert_unlinked(published.values())

    def test_reused_core_with_new_algorithm_is_not_baseline(self):
        """Regression: a core published for {baseline, tic} must not
        silently serve a later tic_plus/tac cell as baseline — the
        schedule set is topped up on reuse."""
        spec = ClusterSpec(2, 1, "training")
        first_call = [
            SimCell(model="AlexNet v2", spec=spec, algorithm=a, config=CFG)
            for a in ("baseline", "tic")
        ]
        second_call = [
            SimCell(model="AlexNet v2", spec=spec, algorithm=a, config=CFG)
            for a in ("tac", "tic_plus")
        ]
        third_call = [  # single-cell batch against the published core
            SimCell(model="AlexNet v2", spec=spec, algorithm="tac",
                    config=CFG.with_(seed=5))
        ]
        serial = SweepRunner(jobs=1).run_cells(
            first_call + second_call + third_call
        )
        with SweepRunner(jobs=2) as runner:
            got = runner.run_cells(first_call)
            got += runner.run_cells(second_call)  # reuses the published core
            got += runner.run_cells(third_call)  # 1 pending cell, still shared
            assert len(runner._group_cores) == 1  # never republished
        assert_results_identical(serial, got)
        assert [r.algorithm for r in got] == [
            "baseline", "tic", "tac", "tic_plus", "tac",
        ]

    def test_batched_lane_equals_per_cell_lane(self):
        """The batched phase-B lane (chunks of a group's cells per
        worker task) is bit-identical to one task per cell, and
        telemetry shows which lane ran."""
        cells = grid_cells()
        with SweepRunner(jobs=2, batch_cells=False) as per_cell:
            dispatched = per_cell.run_cells(cells)
            assert per_cell.telemetry.get("shared_batch_tasks") == 0
            assert per_cell.telemetry.get("shared_cell_tasks") > 0
        with SweepRunner(jobs=2) as batched:  # batch_cells defaults on
            fanned = batched.run_cells(cells)
            assert batched.telemetry.get("shared_batch_tasks") > 0
        assert_results_identical(dispatched, fanned)

    def test_batched_group_with_wizarded_algorithm_never_baseline(self):
        """ISSUE 8 regression: a batched group whose schedule was JUST
        wizarded (phase A of the same run_cells call) must carry that
        schedule into the batched task — never silently run baseline."""
        spec = ClusterSpec(2, 1, "training")
        cells = [
            SimCell(model="AlexNet v2", spec=spec, algorithm=a, config=CFG)
            for a in ("baseline", "tic", "tac", "tic_plus")
        ]
        serial = SweepRunner(jobs=1).run_cells(cells)
        with SweepRunner(jobs=2) as runner:
            got = runner.run_cells(cells)
            assert runner.telemetry.get("shared_batch_tasks") > 0
            # top-up reuse stays correct through the batched lane too
            more = runner.run_cells(
                [SimCell(model="AlexNet v2", spec=spec, algorithm="tac",
                         config=CFG.with_(seed=5))]
            )
            assert len(runner._group_cores) == 1
        assert [r.algorithm for r in got] == ["baseline", "tic", "tac",
                                              "tic_plus"]
        assert more[0].algorithm == "tac"
        assert_results_identical(serial, got)
        # distinct algorithms must differ from baseline (tic reorders):
        # equality here would mean the schedule was dropped in transit
        base, tic = got[0], got[1]
        assert base.iteration_times.tolist() != tic.iteration_times.tolist()

    def test_shared_matches_legacy_grouped_path(self):
        cells = grid_cells()
        with SweepRunner(jobs=2, share_cores=False) as legacy:
            grouped = legacy.run_cells(cells)
        with SweepRunner(jobs=2) as shared:
            fanned = shared.run_cells(cells)
        assert_results_identical(grouped, fanned)

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
        """A wizard failure during group prep must not strand a published
        block (the wizard runs before publish; an unreachable handle
        could never be unlinked). The resilient runner quarantines the
        failing cell after its retries and completes the rest of the
        batch instead of raising."""
        before = set(sharedcore.leaked_segments())
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
            assert counters["retries"] >= 1
        assert set(sharedcore.leaked_segments()) <= before

    def test_close_unlinks_published_cores(self):
        runner = SweepRunner(jobs=2)
        runner.run_cells(grid_cells())
        names = [p.handle.shm_name for p in runner._group_cores.values()]
        assert names
        live = set(sharedcore.leaked_segments())
        assert set(names) <= live
        runner.close()
        assert runner._group_cores == {}
        assert_unlinked(names)

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


def test_crashed_sweep_leaves_no_segments(tmp_path):
    """A sweep that dies mid-run must not leak /dev/shm blocks: the
    runner's atexit hook unlinks everything it published."""
    script = textwrap.dedent(
        """
        import sys
        from repro.ps import ClusterSpec
        from repro.sim import SimConfig
        from repro.sweep import SimCell, SweepRunner, sharedcore

        cells = [
            SimCell(model="AlexNet v2", spec=ClusterSpec(2, 1, "training"),
                    algorithm=a, config=SimConfig(iterations=1))
            for a in ("baseline", "tic")
        ]
        runner = SweepRunner(jobs=2)
        runner.run_cells(cells)
        mine = [p.handle.shm_name for p in runner._group_cores.values()]
        assert mine and set(mine) <= set(sharedcore.leaked_segments())
        print("LIVE", *mine, flush=True)
        raise RuntimeError("simulated crash before close()")
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "simulated crash" in proc.stderr
    live = [ln for ln in proc.stdout.splitlines() if ln.startswith("LIVE")]
    # blocks named by the crashed process existed mid-run...
    names = live[0].split()[1:]
    assert names
    # ...and its atexit hook removed them on the way down
    assert not (set(names) & set(sharedcore.leaked_segments()))
