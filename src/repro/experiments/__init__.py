"""Experiment harness: the paper's evaluation (Section VI) as code.

* :mod:`repro.experiments.runner` -- run one replication of one
  configuration (workload x system x scheduler) and collect O/N/T/P.
* :mod:`repro.experiments.configs` -- the per-figure experiment definitions
  (Figures 2-9), each in a laptop-sized *scaled* profile and the paper's
  original *paper* profile.
* :mod:`repro.experiments.pool` -- the one experiment driver: fan a
  (configuration x replication) grid out over worker processes under one
  seeding rule (common random numbers per replication) with
  order-independent merging.  ``mrcp-rm run`` is a one-worker sweep.
* :mod:`repro.experiments.reporting` -- the plain-text series table both
  ``run`` and ``sweep`` print.
"""

from repro.experiments.runner import (
    RunConfig,
    SystemConfig,
    run_once,
)
from repro.experiments.pool import (
    CellOutcome,
    SweepCell,
    SweepResult,
    SweepSpec,
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
from repro.experiments.reporting import format_series

__all__ = [
    "RunConfig",
    "SystemConfig",
    "run_once",
    "CellOutcome",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    "SCALED",
    "PAPER",
    "LabeledConfig",
    "FigureSeries",
    "figure_series",
    "list_figures",
    "format_series",
]
