"""The sweep runner: parallel, cached execution of evaluation grids.

Execution pipeline for a batch of :class:`~repro.sweep.spec.SimCell`:

1. **Dedupe** — identical cells (drivers overlap heavily; e.g. Fig. 7 and
   the headline scan share their whole grid, and every speedup pair wants
   the same baseline cell) collapse to one simulation.
2. **Cache probe** — each unique cell's key (config + code fingerprint)
   is looked up in the on-disk JSON cache; hits skip simulation entirely.
3. **Group** — misses are grouped by (model, batch factor, cluster spec,
   platform); each group compiles its model IR and cluster graph once and
   runs all member cells against it (:func:`simulate_cell_group`).
4. **Fan out** — groups execute either in-process (``jobs <= 1``) or on a
   **persistent** ``ProcessPoolExecutor`` that lives for the whole runner
   (one pool spawn per run, not one per grid). With ``jobs > 1``,
   variant-heavy groups go through the shared-core path: one worker
   compiles the group's :class:`~repro.sim.engine.CompiledCore` *once*,
   publishes its arrays into a shared-memory block
   (:mod:`repro.sweep.sharedcore`) together with the group's wizard
   schedules, and — as soon as that completes, no cross-group barrier —
   the group's cells fan out against the attached read-only core, so a
   grid's variants parallelize across the pool instead of serializing
   inside one group task. By default the fan-out is **batched**: each
   worker receives a contiguous chunk of the group's cells and runs them
   all in one task, attaching the core once (``batch_cells=False``
   restores one task per cell). Small groups in a group-rich batch keep
   the classic one-task-per-group lane on the same pool (group-level
   parallelism already saturates it). Cells are independent and the
   engine seeds from ``(config.seed, iteration)``, so serial, grouped,
   shared-core and batched execution produce bitwise-identical results.
5. **Round-trip** — every fresh result passes through the JSON
   serialization (lossless for IEEE doubles) before being returned and
   cached, so the first run and every cached re-run yield the exact same
   numbers.

:class:`FnTask` batches follow the same dedupe/cache/fan-out path, minus
the grouping.

Shared-memory blocks are owned by the runner: they are reused across
``run_cells`` calls (a driver re-sweeping a group never recompiles it)
and unlinked on :meth:`SweepRunner.close` — which runs from ``with``
blocks, ``__del__`` and ``atexit``, so aborted runs do not leak
``/dev/shm`` segments.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from ..core.schedules import Schedule
from ..obs.telemetry import Telemetry
from ..sim.metrics import SimulationResult
from ..sim.runner import simulate_cell_group, throughput_gain_pct
from .cache import CacheStats, ResultCache, cache_key
from .serialize import result_from_dict, result_to_dict
from .spec import FnTask, SimCell
from . import sharedcore


def _run_group(cells: Sequence[SimCell]) -> tuple:
    """Worker entry point: simulate one compile-once group (module-level
    so process pools can pickle it). Cacheable cells come back as
    serialized dicts; ``keep_op_times`` cells keep their live result (the
    per-op arrays do not fit the JSON cache). Returns ``(elapsed_s,
    payloads)`` so the runner's telemetry sees worker-side wall time."""
    t0 = time.perf_counter()
    first = cells[0]
    variants = [(c.algorithm, c.config) for c in cells]
    results = simulate_cell_group(
        first.model,
        first.spec,
        variants,
        platform=first.platform,
        batch_factor=first.batch_factor,
    )
    payloads = [
        result_to_dict(r) if cell.cacheable else r
        for cell, r in zip(cells, results)
    ]
    return time.perf_counter() - t0, payloads


class _PreparedGroup(NamedTuple):
    """One published group core plus everything phase-B workers need."""

    handle: sharedcore.SharedCoreHandle
    #: (algorithm, seed) -> wizard Schedule ('baseline' entries omitted).
    schedules: dict


def _prepare_schedules(cells: Sequence[SimCell]) -> dict:
    """Run the ordering wizard once per distinct (algorithm, seed) of
    ``cells``. Identical inputs to
    :func:`repro.sim.runner.simulate_cluster`'s own schedule prep, so
    phase-B results match the one-shot path bit-for-bit."""
    from ..backends import prepare_comm_schedule
    from ..models import build_model
    from ..timing import get_platform

    first = cells[0]
    plat = get_platform(first.platform)
    ir = build_model(first.model, batch_factor=first.batch_factor)
    schedules: dict = {}
    for cell in cells:
        key = (cell.algorithm, cell.config.seed)
        if cell.algorithm != "baseline" and key not in schedules:
            schedules[key] = prepare_comm_schedule(
                ir, cell.spec, cell.algorithm, plat, seed=cell.config.seed
            )
    return schedules


def _prepare_group(cells: Sequence[SimCell]) -> _PreparedGroup:
    """Phase A worker entry point: compile one group's model IR, cluster
    graph and engine core, publish the core to shared memory, and run the
    ordering wizard for the group's variants."""
    from ..backends import build_comm_graph
    from ..models import build_model
    from ..sim.engine import CompiledCore
    from ..timing import get_platform

    first = cells[0]
    plat = get_platform(first.platform)
    ir = build_model(first.model, batch_factor=first.batch_factor)
    cluster = build_comm_graph(ir, first.spec)
    core = CompiledCore(cluster, plat)
    # wizard BEFORE publish: once a block exists, only the returned
    # handle can unlink it — a schedule failure after publish would
    # leak the segment past close()/atexit.
    schedules = _prepare_schedules(cells)
    handle = sharedcore.publish(
        core,
        meta={
            "model": ir.name,
            "batch_size": ir.batch_size,
            "n_params": ir.n_param_tensors,
        },
    )
    return _PreparedGroup(handle=handle, schedules=schedules)




def _simulate_shared(core, meta, schedule, cell):
    """Simulate one cell against an attached shared core. Mirrors
    :func:`repro.sim.runner.simulate_cluster` (same variant binding,
    same iteration protocol, same summarization), so the result is
    bit-identical to the grouped/serial paths. Returns the cell's
    payload."""
    from ..sim.engine import SimVariant
    from ..sim.metrics import summarize_iteration
    from ..timing import get_platform

    plat = get_platform(cell.platform)
    cfg = cell.config
    if cell.algorithm == "baseline":
        schedule = Schedule("baseline")
    elif schedule is None:
        # belt-and-braces: a missing schedule must never silently mean
        # 'baseline' — recompute it here (memoized per worker process).
        from ..backends import prepare_comm_schedule
        from ..models import build_model

        ir = build_model(cell.model, batch_factor=cell.batch_factor)
        schedule = prepare_comm_schedule(
            ir, cell.spec, cell.algorithm, plat, seed=cfg.seed
        )
    sim = SimVariant(core, schedule, cfg)
    result = SimulationResult(
        model=meta["model"],
        batch_size=meta["batch_size"],
        n_workers=cell.spec.n_workers,
        n_ps=cell.spec.n_ps,
        workload=cell.spec.workload,
        algorithm=schedule.algorithm,
        platform=plat.name,
        n_params=meta["n_params"],
    )
    for i, record in enumerate(sim.iter_iterations(0, cfg.total_iterations)):
        summary = summarize_iteration(sim, record, keep_op_times=cfg.keep_op_times)
        (result.warmup if i < cfg.warmup else result.iterations).append(summary)
    return result_to_dict(result) if cell.cacheable else result


def _run_shared_cell(args: tuple) -> tuple:
    """Phase B worker entry point: simulate one cell against an attached
    shared core. ``args`` is ``(handle, schedule, cell)``; returns
    ``(elapsed_s, payload)``."""
    t0 = time.perf_counter()
    handle, schedule, cell = args
    core, meta = sharedcore.attach(handle)
    payload = _simulate_shared(core, meta, schedule, cell)
    return time.perf_counter() - t0, payload


def _run_shared_cells_batched(args: tuple) -> tuple:
    """Phase B worker entry point (batched lane): simulate MANY cells of
    one group against the attached shared core in one task, so the
    attach and per-task dispatch are paid once per chunk instead of once
    per cell. Each cell runs exactly as in :func:`_run_shared_cell`, so
    payloads match the per-cell path byte for byte. ``args`` is
    ``(handle, [(schedule, cell), ...])``; returns ``(elapsed_s,
    payloads)`` in input cell order."""
    t0 = time.perf_counter()
    handle, items = args
    core, meta = sharedcore.attach(handle)
    payloads = [
        _simulate_shared(core, meta, schedule, cell)
        for schedule, cell in items
    ]
    return time.perf_counter() - t0, payloads


def _balanced_chunks(seq: list, n_chunks: int) -> list[list]:
    """Split ``seq`` into at most ``n_chunks`` contiguous, size-balanced
    (difference <= 1) non-empty chunks, preserving order."""
    n_chunks = max(1, min(n_chunks, len(seq)))
    size, extra = divmod(len(seq), n_chunks)
    chunks = []
    i = 0
    for j in range(n_chunks):
        step = size + (1 if j < extra else 0)
        chunks.append(seq[i:i + step])
        i += step
    return chunks


def _run_task(task: FnTask) -> object:
    """Worker entry point for function tasks."""
    return task.resolve()(**dict(task.kwargs))


class Speedup(NamedTuple):
    """One scheduled-vs-baseline comparison (Fig. 7/9/10/13's unit)."""

    gain_pct: float
    sched: SimulationResult
    base: SimulationResult


@dataclass
class SweepRunner:
    """Executes cell and task batches with caching and parallelism.

    ``jobs`` caps worker processes (<=1 means in-process serial).
    ``cache_dir=None`` disables the on-disk cache; ``rerun`` recomputes
    every unit and refreshes its cache entry. ``share_cores=False``
    forces the legacy one-task-per-group fan-out (no shared memory).
    ``batch_cells=False`` forces one task per shared-core cell instead
    of the batched lane that hands each worker a chunk of a group's
    cells to run in one task — batching, like sharing, never changes
    results (bit-exact lanes) and is excluded from cache keys.

    The worker pool is persistent: it is spawned on first use and reused
    by every subsequent ``run_cells``/``run_tasks`` call until
    :meth:`close` (usable as a context manager; ``atexit`` covers runs
    that never close explicitly).
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    rerun: bool = False
    share_cores: bool = True
    batch_cells: bool = True
    #: resilience knobs (ISSUE 9): a cell task that raises, times out or
    #: is lost to a worker-pool crash is retried up to ``max_retries``
    #: times (exponential backoff ``retry_backoff_s * 2**(attempt-1)``)
    #: on a robust self-contained lane before being quarantined;
    #: ``cell_timeout_s`` bounds any single task's wall time (``None`` =
    #: unbounded). A dead pool (``BrokenProcessPool`` — a worker was
    #: OOM-killed or segfaulted) is rebuilt transparently, surviving
    #: shared cores are kept, lost ones re-prepare on next use.
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    cell_timeout_s: Optional[float] = None
    #: cells that exhausted their retries, as ``(cell, error)`` pairs —
    #: the batch completes with partial results instead of raising
    #: (``run_cells`` returns ``None`` at their positions).
    quarantined: list = field(init=False, default_factory=list, repr=False)
    stats: CacheStats = field(init=False)
    #: run-level counters (see :mod:`repro.obs.telemetry`): cells
    #: requested/deduped/cached/simulated, group/shared-core activity,
    #: worker wall time. Always on — surfaced per scenario as
    #: ``ResultSet.telemetry``.
    telemetry: Telemetry = field(init=False)
    _cache: Optional[ResultCache] = field(init=False, default=None, repr=False)
    _pool: Optional[ProcessPoolExecutor] = field(init=False, default=None, repr=False)
    _group_cores: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.cache_dir:
            self._cache = ResultCache(os.fspath(self.cache_dir))
            self.stats = self._cache.stats
        else:
            self.stats = CacheStats()
        self.telemetry = Telemetry()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down and unlink published shared cores.
        Idempotent; runs from ``with`` exits, ``__del__`` and ``atexit``
        so crashed sweeps do not leak ``/dev/shm`` blocks."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        groups, self._group_cores = self._group_cores, {}
        for prepared in groups.values():
            prepared.handle.unlink()
        atexit.unregister(self.close)

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    # -- cells ----------------------------------------------------------
    def run_cells(self, cells: Sequence[SimCell]) -> list[SimulationResult]:
        """Simulate a batch of cells; returns results in input order.

        Cells that exhausted their retries (see :attr:`quarantined`)
        come back as ``None`` — the rest of the batch still completes.
        """
        tm = self.telemetry
        tm.add("run_cells_calls")
        with tm.timer("run_cells_wall_s"):
            order: dict[SimCell, None] = dict.fromkeys(cells)
            tm.add("cells_requested", len(cells))
            tm.add("cells_deduped", len(cells) - len(order))
            resolved: dict[SimCell, SimulationResult] = {}
            keys: dict[SimCell, str] = {}

            pending: list[SimCell] = []
            for cell in order:
                payload = None
                if self._cache is not None and cell.cacheable:
                    keys[cell] = cache_key(cell.cache_key_material())
                    if not self.rerun:
                        payload = self._cache.get(keys[cell])
                if payload is not None:
                    try:
                        resolved[cell] = result_from_dict(payload)
                        tm.add("cells_cached")
                        continue
                    except (KeyError, ValueError):
                        self._cache.note_invalid()  # stale/foreign: recompute
                pending.append(cell)
            tm.add("cells_simulated", len(pending))

            groups: dict[tuple, list[SimCell]] = {}
            for cell in pending:
                groups.setdefault(cell.group_key, []).append(cell)

            reusable = any(gk in self._group_cores for gk in groups)
            if self.jobs > 1 and self.share_cores and (len(pending) > 1 or reusable):
                # also route single-cell batches through the shared path
                # when their group's core is already published — attaching
                # beats recompiling the IR/cluster/core from scratch.
                self._run_groups_shared(groups, resolved, keys)
            else:
                tm.add("groups_run", len(groups))
                for group, (elapsed, payloads) in zip(
                    groups.values(), self._map(_run_group, list(groups.values()))
                ):
                    tm.add("sim_wall_s", elapsed)
                    tm.peak("cell_wall_max_s", elapsed)
                    for cell, payload in zip(group, payloads):
                        self._store(cell, payload, resolved, keys)
        return [resolved.get(cell) for cell in cells]

    def _worth_sharing(self, n_cells: int, n_groups: int) -> bool:
        """Split a group's cells across workers only when that buys
        parallelism or amortization: either the batch has fewer groups
        than workers (group-level fan-out would leave the pool starved),
        or the group is variant-heavy enough that the publish/attach
        overhead is dwarfed. Small groups in a group-rich batch stay on
        the one-task-per-group lane, which already saturates the pool
        with no shared-memory round trips. The batched lane lowered the
        variant-heavy threshold from 4 to 3: chunked cells amortize the
        attach + per-task dispatch that made small shared groups
        marginal."""
        return n_groups < self.jobs or n_cells >= 3

    def _run_groups_shared(self, groups, resolved, keys) -> None:
        """Streaming shared-core fan-out (``jobs > 1``).

        Each new shareable group gets a *prepare* task (compile the
        IR/cluster/core once, publish to shared memory, wizard the
        schedules); the moment it completes, one *cell* task per member
        fans out against the attached core — no barrier between groups,
        so a slow-compiling group never stalls the others' simulations.
        Already-published groups (cross-call reuse) skip straight to cell
        tasks, topping up wizard schedules first when the reuse brings
        algorithms/seeds the original publish did not cover (a missing
        schedule must never degrade a cell to baseline). Groups not worth
        sharing run as classic one-task-per-group units on the same pool.
        Cores persist on the runner for reuse and are unlinked in
        :meth:`close`.

        **Resilience** (ISSUE 9): any lost unit — a task that raised,
        exceeded ``cell_timeout_s``, or was in flight when the pool
        crashed — is decomposed into its member cells and each cell
        retried as a self-contained single-cell group task (no
        shared-memory dependency, so retries survive lost cores), with
        exponential backoff and at most ``max_retries`` attempts before
        the cell is quarantined. ``BrokenProcessPool`` rebuilds the pool,
        drops published cores whose ``/dev/shm`` blocks did not survive
        and retries everything that was in flight; the batch always
        completes without raising.
        """
        tm = self.telemetry
        pending: dict = {}  # future -> ("cell", cell) | ("group", cells) | ...
        deadlines: dict = {}  # future -> monotonic deadline (opt-in)
        attempts: dict = {}  # cell -> retries consumed

        def track(fut, tag) -> None:
            pending[fut] = tag
            if self.cell_timeout_s is not None:
                deadlines[fut] = time.monotonic() + self.cell_timeout_s

        def submit_cells(group_key, cells) -> None:
            prepared = self._group_cores[group_key]
            pool = self._get_pool()
            tm.add("shared_cell_tasks", len(cells))
            items = [
                (prepared.schedules.get((cell.algorithm, cell.config.seed)),
                 cell)
                for cell in cells
            ]
            if self.batch_cells and len(cells) > 1:
                # batched lane: one chunk of cells per worker, each
                # chunk run as one task.
                for chunk in _balanced_chunks(items, self.jobs):
                    tm.add("shared_batch_tasks")
                    fut = pool.submit(
                        _run_shared_cells_batched, (prepared.handle, chunk)
                    )
                    track(fut, ("batch", [cell for _s, cell in chunk]))
                return
            for schedule, cell in items:
                fut = pool.submit(
                    _run_shared_cell, (prepared.handle, schedule, cell)
                )
                track(fut, ("cell", cell))

        def cells_of(tag) -> list:
            kind = tag[0]
            if kind == "cell":
                return [tag[1]]
            if kind in ("group", "batch"):
                return list(tag[1])
            return list(tag[2])  # prep / sched carry their member cells

        def fail(tag, err) -> list:
            """Split a lost unit into cells to retry vs. quarantine."""
            retry = []
            for cell in cells_of(tag):
                if cell in resolved:
                    continue
                n = attempts.get(cell, 0) + 1
                if n > self.max_retries:
                    tm.add("quarantined")
                    self.quarantined.append(
                        (cell, f"{type(err).__name__}: {err}")
                    )
                    continue
                attempts[cell] = n
                tm.add("retries")
                retry.append(cell)
            return retry

        def resubmit(cells_to_retry) -> None:
            if not cells_to_retry:
                return
            delay = self.retry_backoff_s * (
                2 ** (max(attempts[c] for c in cells_to_retry) - 1)
            )
            if delay > 0:
                time.sleep(delay)
            pool = self._get_pool()
            for cell in cells_to_retry:
                tm.add("groups_run")
                track(pool.submit(_run_group, [cell]), ("group", [cell]))

        pool = self._get_pool()
        for group_key, cells in groups.items():
            prepared = self._group_cores.get(group_key)
            if prepared is not None:
                missing = [
                    cell
                    for cell in cells
                    if cell.algorithm != "baseline"
                    and (cell.algorithm, cell.config.seed)
                    not in prepared.schedules
                ]
                submit_cells(
                    group_key, [c for c in cells if c not in missing]
                )
                if missing:
                    fut = pool.submit(_prepare_schedules, missing)
                    track(fut, ("sched", group_key, missing))
            elif len(cells) > 1 and self._worth_sharing(len(cells), len(groups)):
                fut = pool.submit(_prepare_group, cells)
                track(fut, ("prep", group_key, cells))
            else:
                tm.add("groups_run")
                fut = pool.submit(_run_group, cells)
                track(fut, ("group", cells))

        while pending:
            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines.values()) - time.monotonic())
            done, _ = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
            retry: list = []
            if deadlines:
                now = time.monotonic()
                for fut in [
                    f for f, dl in list(deadlines.items())
                    if dl <= now and f not in done
                ]:
                    tag = pending.pop(fut)
                    deadlines.pop(fut, None)
                    # cancel() frees the slot if the task never started;
                    # a running worker keeps burning but its eventual
                    # result is discarded (the future is untracked now).
                    fut.cancel()
                    retry += fail(
                        tag,
                        TimeoutError(
                            f"cell task exceeded {self.cell_timeout_s}s"
                        ),
                    )
            for fut in done:
                tag = pending.pop(fut, None)
                if tag is None:
                    continue  # already written off by a pool rebuild
                deadlines.pop(fut, None)
                kind = tag[0]
                try:
                    value = fut.result()
                except BrokenProcessPool as err:
                    # the pool is dead: every in-flight future is lost.
                    tm.add("pool_rebuilds")
                    lost = [tag] + list(pending.values())
                    pending.clear()
                    deadlines.clear()
                    self._rebuild_pool()
                    self._drop_dead_cores()
                    for t in lost:
                        retry += fail(t, err)
                    continue
                except Exception as err:
                    retry += fail(tag, err)
                    continue
                if kind == "cell":
                    elapsed, payload = value
                    tm.add("sim_wall_s", elapsed)
                    tm.peak("cell_wall_max_s", elapsed)
                    self._store(tag[1], payload, resolved, keys)
                elif kind in ("group", "batch"):
                    elapsed, payloads = value
                    tm.add("sim_wall_s", elapsed)
                    tm.peak("cell_wall_max_s", elapsed)
                    for cell, payload in zip(tag[1], payloads):
                        self._store(cell, payload, resolved, keys)
                elif kind == "prep":
                    _, group_key, cells = tag
                    self._group_cores[group_key] = value
                    tm.add("cores_published")
                    submit_cells(group_key, cells)
                else:  # sched top-up completed
                    _, group_key, cells = tag
                    self._group_cores[group_key].schedules.update(value)
                    tm.add("schedule_topups")
                    submit_cells(group_key, cells)
            resubmit(retry)

    def _store(self, cell, payload, resolved, keys) -> None:
        if isinstance(payload, dict):
            resolved[cell] = result_from_dict(payload)
            if self._cache is not None:
                self._cache.put(keys[cell], payload)
        else:  # keep_op_times: live result, never cached
            resolved[cell] = payload

    def run_speedups(self, cells: Sequence[SimCell]) -> list[Speedup]:
        """For each scheduled cell, also run its baseline twin and report
        the throughput gain — the batched form of
        :func:`~repro.sim.runner.speedup_vs_baseline` (identical numbers:
        same shared cluster graph, same pairing, same gain formula)."""
        flat: list[SimCell] = []
        for cell in cells:
            flat.append(cell.with_(algorithm="baseline"))
            flat.append(cell)
        results = self.run_cells(flat)
        return [
            Speedup(
                throughput_gain_pct(sched, base)
                if sched is not None and base is not None
                else float("nan"),
                sched,
                base,
            )
            for base, sched in zip(results[::2], results[1::2])
        ]

    # -- function tasks -------------------------------------------------
    def run_tasks(self, tasks: Sequence[FnTask]) -> list[object]:
        """Execute a batch of function tasks; returns values in input
        order. Values are JSON-normalized (tuples become lists) so cached
        and fresh runs are indistinguishable."""
        import json

        order: dict[FnTask, None] = dict.fromkeys(tasks)
        resolved: dict[FnTask, object] = {}
        keys: dict[FnTask, str] = {}

        pending: list[FnTask] = []
        for task in order:
            payload = None
            if self._cache is not None:
                keys[task] = cache_key(task.cache_key_material())
                if not self.rerun:
                    payload = self._cache.get(keys[task])
            if payload is not None:
                if "value" in payload:
                    resolved[task] = payload["value"]
                    continue
                self._cache.note_invalid()  # foreign entry: recompute
            pending.append(task)

        self.telemetry.add("fn_tasks", len(pending))
        for task, value in zip(pending, self._map(_run_task, pending)):
            value = json.loads(json.dumps(value))
            resolved[task] = value
            if self._cache is not None:
                self._cache.put(keys[task], {"value": value})
        return [resolved[task] for task in tasks]

    # -- cache maintenance ----------------------------------------------
    def gc_cache(self, max_mb: float) -> Optional[dict]:
        """Evict least-recently-used cache entries down to ``max_mb``
        mebibytes (see :meth:`~repro.sweep.cache.ResultCache.gc`).
        Returns the eviction summary, or ``None`` when caching is off."""
        if self._cache is None:
            return None
        return self._cache.gc(int(max_mb * 2**20))

    # -- execution ------------------------------------------------------
    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            atexit.register(self.close)
        return self._pool

    def _rebuild_pool(self) -> None:
        """Discard a dead pool so the next :meth:`_get_pool` spawns a
        fresh one (a broken pool rejects all further submissions)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _drop_dead_cores(self) -> None:
        """After a pool crash, drop published cores whose ``/dev/shm``
        blocks did not survive (publish untracks blocks, so a SIGKILLed
        worker normally leaves them intact — this guards the abnormal
        teardown orders where a tracker reaped them anyway). Survivors
        keep serving; dropped groups re-prepare on next use."""
        from multiprocessing import shared_memory

        for group_key, prepared in list(self._group_cores.items()):
            try:
                shm = shared_memory.SharedMemory(name=prepared.handle.shm_name)
                sharedcore._untrack(shm)
                shm.close()
            except FileNotFoundError:
                self._group_cores.pop(group_key)

    def _map(self, fn, items: list) -> list:
        if not items:
            return []
        if self.jobs <= 1 or len(items) == 1:
            return [fn(item) for item in items]
        # explicit chunksize: default (1) pickles one task per IPC round
        # trip; batching amortizes it while keeping the pool balanced.
        chunksize = max(1, len(items) // (self.jobs * 4) or 1)
        try:
            return list(self._get_pool().map(fn, items, chunksize=chunksize))
        except BrokenProcessPool:
            # one retry on a fresh pool: a crashed worker (OOM-killed,
            # segfaulted) must not take the whole batch down.
            self.telemetry.add("pool_rebuilds")
            self._rebuild_pool()
            return list(self._get_pool().map(fn, items, chunksize=chunksize))
