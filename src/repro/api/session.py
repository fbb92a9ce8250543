"""The Session: the one execution context every scenario runs against.

A :class:`Session` is the stable programmatic entry point to the whole
pipeline::

    from repro.api import Session

    with Session(scale="quick", jobs=2) as session:
        rs = session.run("fig7")            # a registered scenario
        print(rs.to_table())                # rows are values...
        rs.to_csv("results")                # ...writing CSV is explicit
        print(rs.provenance.as_dict())      # engine rev, cache

It owns the shared :class:`~repro.sweep.SweepRunner` — its persistent
worker pool and on-disk result cache — and guarantees cleanup on
``close()``/``__exit__`` (the runner's ``atexit`` hook is the backstop).
Scenarios may be names from the registry or ad-hoc
:class:`~repro.api.scenario.Scenario` objects; either way execution goes
through :meth:`Session.run`, so a custom scenario gets caching,
parallelism and provenance for free. The CLI, trace capture and the
benchmark suite all run through a session.
"""

from __future__ import annotations

import difflib
import os
import time
from typing import Callable, Optional, Union

from ..obs.telemetry import memo_counters
from ..sim import SimConfig
from ..sim.engine import ENGINE_REV
from ..sweep import SweepRunner
from .context import SCALES, Scale
from .engine import ScenarioRun, _quarantined_row
from .registry import analysis as get_analysis
from .registry import scenario as get_scenario
from .registry import scenario_names
from .resultset import Provenance, Report, ResultSet
from .scenario import Scenario


def _named_scale(name: str, source: str = "") -> Scale:
    if name in SCALES:
        return SCALES[name]
    message = (
        f"unknown scale {name!r}{source}; expected one of "
        f"{sorted(SCALES)} or a Scale instance"
    )
    hints = difflib.get_close_matches(name, sorted(SCALES), n=1)
    if hints:
        message += f" — did you mean {hints[0]!r}?"
    raise ValueError(message)


def _env_number(name: str, parse: Callable, default):
    """``$name`` parsed by ``parse`` (``int``/``float``); unset or empty
    gives ``default``, anything unparsable a ValueError naming it."""
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ValueError(f"${name} must be {kind}, got {raw!r}") from None


class Session:
    """Owns execution for one or more scenario runs.

    Parameters
    ----------
    scale:
        ``"quick"`` / ``"full"``, a custom :class:`Scale`, or ``None``
        to consult ``REPRO_SCALE`` (default quick, like the CLI).
    jobs:
        Worker processes for the sweep runner (``<= 1``: serial,
        in-process); ``None`` consults ``REPRO_JOBS`` (default 1).
    cache:
        ``True`` — the default on-disk cache under
        ``<results_dir>/.sweep-cache`` (``REPRO_NO_CACHE=1`` still
        disables it, like the CLI); ``False`` — no cache; a path — that
        directory, unconditionally (an explicit argument defeats the
        env toggle).
    results_dir, seed, rerun, verbose:
        As on the CLI; ``results_dir`` is also the default target of
        :meth:`save`.
    cache_max_mb:
        Size cap (MiB) for the sweep cache, enforced by :meth:`gc_cache`
        on :meth:`close` (LRU eviction); ``None`` consults
        ``REPRO_CACHE_MAX_MB`` (default: entries are kept forever).

    Environment defaults are resolved once, here; an unknown
    ``REPRO_SCALE`` or an unparsable ``REPRO_JOBS``/``REPRO_CACHE_MAX_MB``
    raises ``ValueError``.
    """

    def __init__(
        self,
        *,
        scale: Union[str, Scale, None] = "quick",
        results_dir: str = "results",
        seed: int = 0,
        jobs: Optional[int] = None,
        cache: Union[bool, str, os.PathLike] = True,
        rerun: bool = False,
        verbose: bool = False,
        cache_max_mb: Optional[float] = None,
    ) -> None:
        if scale is None:
            scale = _named_scale(
                os.environ.get("REPRO_SCALE", "").lower() or "quick",
                " (from $REPRO_SCALE)",
            )
        elif not isinstance(scale, Scale):
            scale = _named_scale(scale)
        if cache is True and os.environ.get("REPRO_NO_CACHE", "") == "1":
            cache = False
        elif cache is True:
            cache = os.path.join(results_dir, ".sweep-cache")
        self.scale: Scale = scale
        self.results_dir = results_dir
        self.seed = seed
        self.verbose = verbose
        self.jobs: int = jobs if jobs is not None else _env_number(
            "REPRO_JOBS", int, 1
        )
        #: the on-disk sweep cache directory, ``None`` when disabled.
        self.cache_dir: Optional[str] = (
            None if cache is False else os.fspath(cache)
        )
        self.rerun = rerun
        self.cache_max_mb: Optional[float] = (
            cache_max_mb
            if cache_max_mb is not None
            else _env_number("REPRO_CACHE_MAX_MB", float, None)
        )
        self._sweep: Optional[SweepRunner] = None

    # -- lifecycle ------------------------------------------------------
    @property
    def sweep(self) -> SweepRunner:
        """The session's lazily created, shared sweep runner."""
        if self._sweep is None:
            self._sweep = SweepRunner(
                jobs=self.jobs, cache_dir=self.cache_dir, rerun=self.rerun
            )
        return self._sweep

    def gc_cache(self) -> Optional[dict]:
        """Apply the ``cache_max_mb`` cap to the on-disk sweep cache
        (no-op when no cap is configured).

        Operates on the cache directory directly, so an explicitly
        requested eviction works even when this session runs without the
        cache (``--no-cache`` / ``REPRO_NO_CACHE=1``): it then evicts
        from the default ``<results_dir>/.sweep-cache``.
        """
        if self.cache_max_mb is None:
            return None
        if self.cache_dir is not None:
            runner = self.sweep
        else:  # no-cache session: point a throwaway runner at the directory
            runner = SweepRunner(
                cache_dir=os.path.join(self.results_dir, ".sweep-cache")
            )
        summary = runner.gc_cache(self.cache_max_mb)
        self.log(
            f"sweep cache gc: removed {summary['entries_removed']} "
            f"entries ({summary['bytes_removed'] / 2**20:.1f} MiB), "
            f"kept {summary['entries_kept']} "
            f"({summary['bytes_kept'] / 2**20:.1f} MiB <= "
            f"{self.cache_max_mb:.0f} MiB cap)"
        )
        return summary

    def close(self) -> None:
        """Apply the cache size cap (``cache_max_mb`` — no-op without
        one), then shut the worker pool down. Idempotent; also runs from
        ``with`` exits."""
        try:
            self.gc_cache()
        finally:
            runner, self._sweep = self._sweep, None
            if runner is not None:
                runner.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------
    def sim_config(self, **overrides) -> SimConfig:
        """The session's :class:`~repro.sim.SimConfig` (seed, scale
        iterations/warm-up), with ``overrides`` applied."""
        base = dict(
            seed=self.seed,
            iterations=self.scale.iterations,
            warmup=self.scale.warmup,
        )
        base.update(overrides)
        return SimConfig(**base)

    def log(self, message: str) -> None:
        if self.verbose:
            print(message, flush=True)

    def run(
        self, scenario: Union[str, Scenario], /, **overrides
    ) -> ResultSet:
        """Execute one scenario (registry name or Scenario object) and
        return its :class:`~repro.api.resultset.ResultSet` (no CSV is
        written — see :meth:`save`). Keyword overrides rebind the
        scenario's declared parameters, e.g.
        ``session.run("fig12", model="VGG-16")``.

        Binds the parameters, sweeps the scenario's grid (speedup pairs
        or plain cells) on the shared runner, hands the
        :class:`~repro.api.engine.ScenarioRun` to the named analysis
        callback, and records provenance plus this run's telemetry
        delta (runner counters, cache activity, memo hits)."""
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        t0 = time.perf_counter()
        params = scenario.bind(**overrides)
        sweep = self.sweep
        stats_before = sweep.stats.as_dict()
        telemetry_before = sweep.telemetry.as_dict()
        memo_before = memo_counters()
        quarantine_before = len(sweep.quarantined)

        run = ScenarioRun(session=self, scenario=scenario, params=params)
        if scenario.grid is not None:
            run.cells = scenario.grid.resolve(self.scale, params, self.sim_config)
            if scenario.grid.compare_baseline:
                run.speedups = sweep.run_speedups(run.cells)
            else:
                run.results = sweep.run_cells(run.cells)

        report: Report = get_analysis(scenario.analyze)(run)

        stats_after = sweep.stats.as_dict()
        telemetry = sweep.telemetry.delta_since(telemetry_before)
        for name, value in stats_after.items():
            d = value - stats_before[name]
            if d:
                telemetry[f"cache_{name}"] = float(d)
        for name, value in memo_counters().items():
            d = value - memo_before.get(name, 0.0)
            if d:
                telemetry[name] = d
        provenance = Provenance(
            scenario=scenario.name,
            scale=self.scale.name,
            seed=self.seed,
            jobs=self.jobs,
            engine_rev=ENGINE_REV,
            backends=scenario.backends,
            cache={k: stats_after[k] - stats_before[k] for k in stats_after},
            elapsed_s=time.perf_counter() - t0,
        )
        extras = dict(report.extras)
        # cells the resilient runner gave up on during THIS scenario: tidy
        # error rows so partial sweeps are inspectable instead of silent.
        lost = sweep.quarantined[quarantine_before:]
        if lost:
            extras["quarantined"] = [
                _quarantined_row(cell, error) for cell, error in lost
            ]
        result = ResultSet(
            name=scenario.output,
            scenario=scenario,
            rows=report.rows,
            text=report.text,
            tables=dict(report.tables),
            extras=extras,
            provenance=provenance,
            telemetry=dict(sorted(telemetry.items())),
        )
        self.log(report.text)
        self.log(
            f"[{scenario.output}] {len(result.rows)} rows "
            f"({provenance.elapsed_s:.1f}s)"
        )
        return result

    def run_all(
        self, names: Optional[list[str]] = None
    ) -> dict[str, ResultSet]:
        """Run several scenarios (``None``: the whole registry in
        presentation order; an explicit empty list runs nothing);
        returns name -> ResultSet."""
        if names is None:
            names = list(scenario_names())
        return {name: self.run(name) for name in names}

    def save(self, result: ResultSet) -> dict[str, str]:
        """Write a result's tables under this session's results dir."""
        return result.save(self.results_dir)

    def scenarios(self) -> tuple[str, ...]:
        """Registered scenario names, in presentation order."""
        return scenario_names()

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return (
            f"Session(scale={self.scale.name!r}, jobs={self.jobs}, "
            f"results_dir={self.results_dir!r}, cache={self.cache_dir!r})"
        )
