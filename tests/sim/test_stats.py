"""Replication statistics."""

import math

import pytest

from repro.sim.stats import mean_ci, student_t_quantile


def test_mean_ci_known_values():
    # t(0.975, df=3) = 3.1824 ; data mean 5, sample std 2.5820
    data = [2.0, 4.0, 6.0, 8.0]
    mean, hw = mean_ci(data, 0.95)
    assert mean == 5.0
    se = math.sqrt(sum((x - 5) ** 2 for x in data) / 3 / 4)
    assert hw == pytest.approx(3.1824 * se, rel=1e-3)


@pytest.mark.parametrize(
    "df, t975", [(1, 12.7062047), (4, 2.77644511), (29, 2.04522964)]
)
def test_student_t_quantile_table_values(df, t975):
    assert student_t_quantile(0.975, df) == pytest.approx(t975, rel=1e-8)


def test_student_t_quantile_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for df in (*range(1, 41), 60, 120, 500, 1000):
        for confidence in (0.8, 0.9, 0.95, 0.99, 0.999):
            p = 0.5 + confidence / 2.0
            assert student_t_quantile(p, df) == pytest.approx(
                float(scipy_stats.t.ppf(p, df=df)), rel=1e-9
            ), (df, confidence)


def test_student_t_quantile_rejects_out_of_range():
    assert student_t_quantile(0.5, 3) == 0.0
    for p, df in ((0.4, 3), (1.0, 3), (0.9, 0)):
        with pytest.raises(ValueError):
            student_t_quantile(p, df)


def test_mean_ci_single_sample_infinite():
    mean, hw = mean_ci([3.0])
    assert mean == 3.0 and hw == float("inf")


def test_mean_ci_empty_rejected():
    with pytest.raises(ValueError):
        mean_ci([])
