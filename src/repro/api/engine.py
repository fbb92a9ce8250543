"""What a scenario's analysis callback receives.

:meth:`repro.api.Session.run` is the one generic scenario executor: it
binds parameters, sweeps the scenario's :class:`~repro.api.scenario.Grid`
(if any) on the session's shared :class:`~repro.sweep.SweepRunner`,
hands a :class:`ScenarioRun` to the scenario's named analysis callback
and wraps the returned tables in a
:class:`~repro.api.resultset.ResultSet` with provenance. The CLI is a
loop over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..sim.metrics import SimulationResult
from ..sweep.runner import Speedup
from ..sweep.spec import SimCell
from .scenario import Scenario

if TYPE_CHECKING:
    from .session import Session


@dataclass
class ScenarioRun:
    """Everything an analysis callback may touch: the session (scale,
    seed, sweep runner, logging), the scenario with its bound parameters,
    and — for grid scenarios — the resolved cells with their sweep
    results."""

    session: Session
    scenario: Scenario
    params: dict
    cells: list[SimCell] = field(default_factory=list)
    #: populated when ``grid.compare_baseline`` (one per cell) ...
    speedups: Optional[list[Speedup]] = None
    #: ... or plain results otherwise (also one per cell).
    results: Optional[list[SimulationResult]] = None

    @property
    def scale(self):
        return self.session.scale

    @property
    def sweep(self):
        return self.session.sweep

    @property
    def seed(self) -> int:
        return self.session.seed

    def sim_config(self, **overrides):
        return self.session.sim_config(**overrides)

    def log(self, message: str) -> None:
        self.session.log(message)

    def param(self, name: str):
        return self.params[name]


def _quarantined_row(cell, error: str) -> dict:
    """A tidy row identifying one quarantined cell: the coordinates plus
    the bound parameter values (cluster shape, workload, batch factor,
    seed) that distinguish it from its grid siblings — without them a
    replay/sweep log's quarantine report cannot say *which* cell died."""
    spec = getattr(cell, "spec", None)
    config = getattr(cell, "config", None)
    return {
        "model": getattr(cell, "model", ""),
        "algorithm": getattr(cell, "algorithm", ""),
        "platform": getattr(cell, "platform", ""),
        "workers": getattr(spec, "n_workers", ""),
        "ps": getattr(spec, "n_ps", ""),
        "workload": getattr(spec, "workload", ""),
        "placement": getattr(spec, "placement", ""),
        "batch_factor": getattr(cell, "batch_factor", ""),
        "seed": getattr(config, "seed", ""),
        "error": error,
    }
