"""Benchmark-suite configuration.

Every paper table/figure has one bench module. Each bench (a) times the
experiment driver (or a representative slice of it) with pytest-benchmark
and (b) prints/persists the regenerated rows so the run doubles as a
results artifact. Set ``REPRO_SCALE=full`` for the paper-scale protocol;
the default quick scale keeps the whole suite in minutes.

Drivers submit their grids to the sweep runner, so ``REPRO_JOBS=N`` fans
simulations out across N processes and a warm ``results/.sweep-cache``
turns re-runs into cache reads (delete it or set ``REPRO_NO_CACHE=1``
to time cold simulations).

Artifacts land in ``results/`` (CSV) — see EXPERIMENTS.md for the
paper-vs-measured read-out of a full run.
"""

from __future__ import annotations

import pytest

from repro.api import Session


@pytest.fixture(scope="session")
def session():
    """Shared session for the whole benchmark run (scale, jobs and cache
    from ``REPRO_*``); closed — worker pool shut down — at the end."""
    with Session(scale=None) as shared:
        yield shared


@pytest.fixture(scope="session")
def run_scenario(session):
    """Run a registry scenario on the shared session and persist its
    CSVs under ``results/``."""

    def run(name: str, **overrides):
        out = session.run(name, **overrides)
        session.save(out)
        return out

    return run


@pytest.fixture(scope="session")
def results():
    """Mutable session store so benches can cross-check one another."""
    return {}
