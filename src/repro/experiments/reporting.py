"""Plain-text reporting of figure series.

Formats the replicated metrics as the rows/series the paper's figures plot:
one row per (factor value, scheduler), columns O (ms), T (s), P (%) with
their confidence-interval half-widths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.configs import FigureSeries
from repro.experiments.runner import run_replicated
from repro.sim.stats import ReplicationResult

#: Display scaling and units per metric.
_METRIC_FORMAT = {
    "O": ("O (ms/job)", 1000.0),
    "T": ("T (s)", 1.0),
    "P": ("P (%)", 1.0),
    "N": ("N (jobs)", 1.0),
}


def run_series(
    series: FigureSeries,
    replications: int = 3,
    targets: Optional[Dict[str, float]] = None,
    verbose: bool = False,
) -> Dict[str, ReplicationResult]:
    """Execute every configuration of a figure; returns label -> result."""
    results: Dict[str, ReplicationResult] = {}
    for labeled in series.configs:
        if verbose:
            print(f"  running {labeled.label} ...", flush=True)
        results[labeled.label] = run_replicated(
            labeled.config, replications=replications, targets=targets
        )
    return results


def series_rows(
    series: FigureSeries,
    results: Dict[str, ReplicationResult],
    metrics: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Tabular data: one dict per configuration with mean +/- half-width."""
    metrics = list(metrics or series.metrics)
    rows: List[Dict[str, object]] = []
    for labeled in series.configs:
        result = results[labeled.label]
        row: Dict[str, object] = {
            "label": labeled.label,
            series.factor: labeled.factor_value,
            "scheduler": labeled.scheduler,
            "replications": result.replications,
        }
        for m in metrics:
            mean = result.mean(m)
            hw = result.half_width(m)
            row[m] = mean
            row[f"{m}_hw"] = hw
        rows.append(row)
    return rows


def format_series(
    series: FigureSeries,
    results: Dict[str, ReplicationResult],
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """Human-readable table for one figure."""
    metrics = list(metrics or series.metrics)
    header_cells = [f"{series.factor:>16}", f"{'scheduler':>10}"]
    for m in metrics:
        title, _ = _METRIC_FORMAT.get(m, (m, 1.0))
        header_cells.append(f"{title:>22}")
    lines = [
        f"== {series.figure}: {series.title} ==",
    ]
    if series.notes:
        lines.append(f"   expected shape: {series.notes}")
    lines.append(" | ".join(header_cells))
    lines.append("-" * len(lines[-1]))
    for labeled in series.configs:
        result = results[labeled.label]
        cells = [
            f"{labeled.factor_value:>16g}",
            f"{labeled.scheduler:>10}",
        ]
        for m in metrics:
            _, scale = _METRIC_FORMAT.get(m, (m, 1.0))
            mean = result.mean(m) * scale
            hw = result.half_width(m) * scale
            hw_text = "inf" if hw == float("inf") else f"{hw:.3g}"
            cells.append(f"{mean:>12.4g} ± {hw_text:>7}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)
