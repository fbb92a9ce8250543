"""The scale protocol for scenario runs.

Every scenario runs at one of two scales:

* ``quick`` (default) — a representative subset sized for CI / the
  benchmark suite: fewer models, fewer worker counts, fewer iterations.
* ``full`` — the paper's protocol (all models, workers 1..16, 10 recorded
  iterations after 2 warm-up, 1000-run consistency study). Select with
  ``REPRO_SCALE=full`` or ``--full`` on the CLI.

A :class:`~repro.api.Session` runs every scenario at one :class:`Scale`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fig. 7's model set (the paper's nine; Table 1 lists ten — ResNet-101 v2
#: appears only in Table 1).
FIG7_MODELS: tuple[str, ...] = (
    "Inception v1",
    "VGG-19",
    "Inception v2",
    "AlexNet v2",
    "VGG-16",
    "ResNet-50 v1",
    "ResNet-50 v2",
    "Inception v3",
    "ResNet-101 v1",
)

QUICK_MODELS: tuple[str, ...] = (
    "Inception v1",
    "AlexNet v2",
    "VGG-16",
    "ResNet-50 v1",
)


@dataclass(frozen=True)
class Scale:
    """Knobs that differ between quick and full runs."""

    name: str
    models: tuple[str, ...]
    worker_counts: tuple[int, ...]
    ps_counts: tuple[int, ...]
    iterations: int
    warmup: int
    consistency_runs: int  # Fig. 12's run count
    loss_iterations: int  # Fig. 8's SGD steps


QUICK = Scale(
    name="quick",
    models=QUICK_MODELS,
    worker_counts=(2, 4, 8),
    ps_counts=(1, 2),
    iterations=4,
    warmup=1,
    consistency_runs=80,
    loss_iterations=150,
)

FULL = Scale(
    name="full",
    models=FIG7_MODELS,
    worker_counts=(1, 2, 4, 8, 16),
    ps_counts=(1, 2, 4),
    iterations=10,
    warmup=2,
    consistency_runs=1000,
    loss_iterations=500,
)

#: Named scales a :class:`~repro.api.Session` accepts.
SCALES: dict[str, Scale] = {"quick": QUICK, "full": FULL}
