"""The series table ``run`` and ``sweep`` print, over a sweep's cells."""

from dataclasses import replace

from repro.experiments.configs import SCALED, figure_series
from repro.experiments.pool import SweepSpec, run_sweep
from repro.experiments.reporting import format_series

from tests.experiments.test_figure_shapes import series_rows


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


def _sweep(series, deterministic=False):
    spec = SweepSpec.from_series(series, 2, deterministic=deterministic)
    return run_sweep(spec, workers=1)


def test_sweep_series_and_rows():
    series = _small_series()
    rows = series_rows(series, _sweep(series))
    assert len(rows) == 2
    for row in rows:
        assert row["scheduler"] == "mrcp-rm"
        assert "P" in row and "P_hw" in row
        assert row["replications"] >= 1
        assert row["T"] > 0


def test_format_series_renders_table():
    series = _small_series()
    text = format_series(series, _sweep(series))
    assert "fig7" in text
    assert "O (ms/job)" in text
    assert "P (%)" in text
    assert "mrcp-rm" in text
    # one line per configuration plus headers
    assert len(text.splitlines()) >= 2 + len(series.configs)


def test_o_column_names_the_clock_the_cells_ran_on():
    series = _small_series()
    pinned = format_series(series, _sweep(series, deterministic=True))
    assert "O (pinned ticks/job)" in pinned and "ms/job" not in pinned
    wall = format_series(series, _sweep(series, deterministic=False))
    assert "O (ms/job)" in wall and "ticks" not in wall


def test_a_label_without_an_ok_cell_says_so():
    series = _small_series()
    result = _sweep(series)
    for outcome in result.outcomes[:2]:
        outcome.status = "failed"
    text = format_series(series, result)
    assert text.splitlines()[-2].count("no ok cell") == len(series.metrics)
