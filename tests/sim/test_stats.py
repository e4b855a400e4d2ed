"""Replication statistics."""

import math

import pytest

from repro.sim.stats import (
    RunningStats,
    batch_means,
    mean_ci,
    relative_half_width,
    run_replications,
    student_t_quantile,
    trim_warmup,
)


def test_running_stats_matches_formulas():
    data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    rs = RunningStats()
    for x in data:
        rs.add(x)
    mean = sum(data) / len(data)
    var = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
    assert rs.n == len(data)
    assert rs.mean == pytest.approx(mean)
    assert rs.variance == pytest.approx(var)
    assert rs.std == pytest.approx(math.sqrt(var))


def test_running_stats_degenerate():
    rs = RunningStats()
    assert rs.variance == 0.0
    rs.add(5.0)
    assert rs.mean == 5.0 and rs.variance == 0.0


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


def test_relative_half_width():
    assert relative_half_width([5.0, 5.0, 5.0]) == 0.0
    assert relative_half_width([0.0, 0.0, 1e-13]) in (0.0, float("inf"))


def test_run_replications_stops_when_converged():
    # constant metric: converges at min_replications
    result = run_replications(
        lambda rep: {"T": 100.0},
        targets={"T": 0.01},
        min_replications=3,
        max_replications=20,
    )
    assert result.converged
    assert result.replications == 3


def test_run_replications_hits_max_when_noisy():
    values = iter([1.0, 100.0, 1.0, 100.0, 1.0, 100.0])
    result = run_replications(
        lambda rep: {"T": next(values)},
        targets={"T": 0.001},
        min_replications=2,
        max_replications=6,
    )
    assert not result.converged
    assert result.replications == 6


def test_run_replications_zero_mean_metric_continues():
    # P = 0 everywhere: half-width 0 -> converged despite zero mean
    result = run_replications(
        lambda rep: {"P": 0.0},
        targets={"P": 0.05},
        min_replications=3,
        max_replications=10,
    )
    assert result.converged


def test_run_replications_collects_all_metrics():
    result = run_replications(
        lambda rep: {"T": float(rep), "P": 1.0},
        targets={},
        min_replications=2,
        max_replications=5,
    )
    assert result.samples["T"] == [0.0, 1.0]
    assert result.mean("P") == 1.0


def test_run_replications_argument_validation():
    with pytest.raises(ValueError):
        run_replications(lambda rep: {}, min_replications=0)
    with pytest.raises(ValueError):
        run_replications(lambda rep: {}, min_replications=5, max_replications=2)


def test_trim_warmup():
    assert trim_warmup([1, 2, 3, 4, 5], 0.4) == [3, 4, 5]
    assert trim_warmup([1, 2], 0.0) == [1, 2]
    with pytest.raises(ValueError):
        trim_warmup([1], 1.0)


def test_batch_means():
    data = list(range(10))
    assert batch_means(data, 5) == [0.5, 2.5, 4.5, 6.5, 8.5]
    with pytest.raises(ValueError):
        batch_means([1], 2)
