"""Plain-text reporting of figure series: the one table ``run`` and ``sweep`` print.

Formats a sweep's cells as the series the paper's figures plot: one row
per (factor value, scheduler), columns O, T (s), P (%) as the mean over the
label's ok replications with its Student-t 95 % confidence half-width.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.configs import FigureSeries
from repro.experiments.pool import SweepResult
from repro.sim.stats import mean_ci

#: Display title and scaling per metric.  O's unit depends on the clock the
#: cells ran on (see :func:`format_series`).
_METRIC_FORMAT = {
    "T": ("T (s)", 1.0),
    "P": ("P (%)", 1.0),
    "N": ("N (jobs)", 1.0),
}


def format_series(
    series: FigureSeries,
    result: SweepResult,
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """Human-readable table for one figure.

    O is milliseconds per job when the cells ran on the wall clock
    (``deterministic=False``); under the pinned clock it counts clock
    samples (1 ms ticks) per job, which is not a time.
    """
    metrics = list(metrics or series.metrics)
    o_title = "O (pinned ticks/job)" if result.deterministic else "O (ms/job)"
    formats = {"O": (o_title, 1000.0), **_METRIC_FORMAT}
    samples = result.samples()
    header_cells = [f"{series.factor:>16}", f"{'scheduler':>10}"]
    for m in metrics:
        title, _ = formats.get(m, (m, 1.0))
        header_cells.append(f"{title:>22}")
    lines = [
        f"== {series.figure}: {series.title} ==",
    ]
    if series.notes:
        lines.append(f"   expected shape: {series.notes}")
    lines.append(" | ".join(header_cells))
    lines.append("-" * len(lines[-1]))
    for labeled in series.configs:
        values = samples.get(labeled.label, {})
        cells = [
            f"{labeled.factor_value:>16g}",
            f"{labeled.scheduler:>10}",
        ]
        for m in metrics:
            if not values.get(m):
                cells.append(f"{'no ok cell':>22}")
                continue
            _, scale = formats.get(m, (m, 1.0))
            mean, hw = mean_ci(values[m])
            hw_text = "inf" if hw == float("inf") else f"{hw * scale:.3g}"
            cells.append(f"{mean * scale:>12.4g} ± {hw_text:>7}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)
