"""Experiment harness: the paper's evaluation (Section VI) as code.

* :mod:`repro.experiments.runner` -- run one configuration (workload x
  system x scheduler) for one or more replications and collect O/N/T/P.
* :mod:`repro.experiments.configs` -- the per-figure experiment definitions
  (Figures 2-9), each in a laptop-sized *scaled* profile and the paper's
  original *paper* profile.
* :mod:`repro.experiments.pool` -- parallel sweep engine: fan a
  (configuration x replication) grid out over worker processes with
  deterministic per-cell seeding and order-independent merging.
* :mod:`repro.experiments.reporting` -- plain-text series/tables matching
  the figures' data.
"""

from repro.experiments.runner import (
    RunConfig,
    SystemConfig,
    run_once,
    run_replicated,
)
from repro.experiments.pool import (
    CellOutcome,
    SweepCell,
    SweepResult,
    SweepSpec,
    cell_seed,
    run_sweep,
)
from repro.experiments.configs import (
    PAPER,
    SCALED,
    FigureSeries,
    LabeledConfig,
    figure_series,
    list_figures,
)
from repro.experiments.reporting import format_series, run_series

__all__ = [
    "RunConfig",
    "SystemConfig",
    "run_once",
    "run_replicated",
    "CellOutcome",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "cell_seed",
    "run_sweep",
    "SCALED",
    "PAPER",
    "LabeledConfig",
    "FigureSeries",
    "figure_series",
    "list_figures",
    "format_series",
    "run_series",
]
