"""Series execution and text reporting."""

from dataclasses import replace

from repro.experiments.configs import SCALED, figure_series
from repro.experiments.reporting import format_series, run_series, series_rows


def _small_series():
    """fig7 shrunk to 2 points and a handful of jobs for test speed."""
    series = figure_series("fig7", SCALED)
    series.configs = series.configs[:2]
    for labeled in series.configs:
        labeled.config.synthetic = replace(
            labeled.config.synthetic, num_jobs=5, map_tasks_range=(1, 4),
            reduce_tasks_range=(1, 2), arrival_rate=0.05,
        )
        labeled.config.mrcp.solver.time_limit = 0.1
    return series


def test_run_series_and_rows():
    series = _small_series()
    results = run_series(series, replications=2)
    rows = series_rows(series, results)
    assert len(rows) == 2
    for row in rows:
        assert row["scheduler"] == "mrcp-rm"
        assert "P" in row and "P_hw" in row
        assert row["replications"] >= 1
        assert row["T"] > 0


def test_format_series_renders_table():
    series = _small_series()
    results = run_series(series, replications=2)
    text = format_series(series, results)
    assert "fig7" in text
    assert "O (ms/job)" in text
    assert "P (%)" in text
    assert "mrcp-rm" in text
    # one line per configuration plus headers
    assert len(text.splitlines()) >= 2 + len(series.configs)
