"""Metrics collection: O / N / T / P semantics."""

import pytest

from repro.cp.solution import SearchStats, SolveProfile, SolveResult, SolveStatus
from repro.metrics import MetricsCollector

from tests.conftest import make_job


def test_empty_run():
    m = MetricsCollector().finalize()
    assert m.jobs_arrived == 0
    assert m.proportion_late == 0.0
    assert m.avg_sched_overhead == 0.0
    assert m.avg_turnaround == 0.0


def test_basic_metrics():
    c = MetricsCollector()
    j1 = make_job(1, earliest_start=0, deadline=50)
    j2 = make_job(2, earliest_start=10, deadline=30)
    c.job_arrived(j1)
    c.job_arrived(j2)
    c.job_completed(j1, 40)  # on time, turnaround 40
    c.job_completed(j2, 35)  # late, turnaround 25
    c.record_overhead(0.2)
    c.record_overhead(0.4)
    m = c.finalize()
    assert m.jobs_arrived == m.jobs_completed == 2
    assert m.late_jobs == 1
    assert m.late_job_ids == [2]
    assert m.proportion_late == 0.5
    assert m.percent_late == 50.0
    assert m.avg_turnaround == (40 + 25) / 2
    assert m.avg_sched_overhead == pytest.approx(0.6 / 2)
    assert m.total_sched_overhead == pytest.approx(0.6)
    assert m.scheduler_invocations == 2
    assert m.makespan == 40
    assert m.turnarounds == {1: 40, 2: 25}


def test_turnaround_measured_from_earliest_start():
    c = MetricsCollector()
    j = make_job(1, arrival=0, earliest_start=100, deadline=300)
    c.job_arrived(j)
    c.job_completed(j, 150)
    assert c.finalize().avg_turnaround == 50


def test_completion_exactly_at_deadline_is_on_time():
    c = MetricsCollector()
    j = make_job(1, deadline=50)
    c.job_arrived(j)
    c.job_completed(j, 50)
    assert c.finalize().late_jobs == 0


def test_incomplete_jobs_counted_in_p_denominator():
    c = MetricsCollector()
    j1 = make_job(1, deadline=50)
    j2 = make_job(2, deadline=50)
    c.job_arrived(j1)
    c.job_arrived(j2)
    c.job_completed(j1, 60)
    m = c.finalize()
    assert m.jobs_completed == 1
    assert m.proportion_late == 0.5  # 1 late of 2 arrived


def test_duplicate_events_rejected():
    c = MetricsCollector()
    j = make_job(1)
    c.job_arrived(j)
    with pytest.raises(ValueError):
        c.job_arrived(j)
    c.job_completed(j, 10)
    with pytest.raises(ValueError):
        c.job_completed(j, 12)


def test_as_dict_exports_paper_metrics():
    c = MetricsCollector()
    j = make_job(1, deadline=5)
    c.job_arrived(j)
    c.job_completed(j, 10)
    c.record_overhead(0.5)
    d = c.finalize().as_dict()
    assert set(d) == {"O", "N", "T", "P"}
    assert d["N"] == 1.0
    assert d["P"] == 100.0


def test_solver_stats_accumulate():
    def result(status, branches, fails, lns):
        stats = SearchStats(branches=branches, fails=fails, lns_iterations=lns)
        return SolveResult(status, None, stats, SolveProfile(solved_by="tree"))

    c = MetricsCollector()
    c.record_solve(result(SolveStatus.FEASIBLE, 10, 5, 2))
    c.record_solve(result(SolveStatus.OPTIMAL, 3, 1, 0))
    # An empty solve counts its profile, not its search effort.
    c.record_solve(result(SolveStatus.UNKNOWN, 100, 100, 100))
    m = c.finalize()
    assert m.solver_branches == 13
    assert m.solver_fails == 6
    assert m.solver_lns_iterations == 2
    assert m.solves_by_phase == {"tree": 3}


def test_tardiness_by_job_and_stats():
    """Late jobs get per-job tardiness and verbose summary statistics."""
    c = MetricsCollector()
    jobs = [make_job(i, earliest_start=0, deadline=100) for i in range(4)]
    for j in jobs:
        c.job_arrived(j)
    c.job_completed(jobs[0], 90)   # on time
    c.job_completed(jobs[1], 110)  # tardy 10
    c.job_completed(jobs[2], 130)  # tardy 30
    c.job_completed(jobs[3], 120)  # tardy 20
    m = c.finalize()
    assert m.tardiness_by_job == {1: 10, 2: 30, 3: 20}
    assert m.mean_tardiness == pytest.approx(20.0)
    assert m.max_tardiness == 30
    assert m.tardiness_percentile(50) == 20
    assert m.tardiness_percentile(95) == 30


def test_verbose_dict_includes_tardiness_stats():
    c = MetricsCollector()
    j = make_job(1, earliest_start=0, deadline=10)
    c.job_arrived(j)
    c.job_completed(j, 25)  # tardy 15
    m = c.finalize()
    # the happy-path export stays exactly the paper's four metrics
    assert set(m.as_dict()) == {"O", "N", "T", "P"}
    verbose = m.as_dict(verbose=True)
    assert verbose["tardiness_mean"] == pytest.approx(15.0)
    assert verbose["tardiness_p50"] == pytest.approx(15.0)
    assert verbose["tardiness_p95"] == pytest.approx(15.0)
    assert verbose["tardiness_max"] == pytest.approx(15.0)


def test_no_late_jobs_no_tardiness():
    c = MetricsCollector()
    j = make_job(1, earliest_start=0, deadline=100)
    c.job_arrived(j)
    c.job_completed(j, 50)
    m = c.finalize()
    assert m.tardiness_by_job == {}
    assert m.mean_tardiness == 0.0
    assert m.max_tardiness == 0
    assert m.tardiness_percentile(95) == 0
    verbose = m.as_dict(verbose=True)
    assert verbose.get("tardiness_mean", 0.0) == 0.0


def test_overhead_sim_times_align_with_series():
    c = MetricsCollector()
    c.record_overhead(0.25, sim_time=12.0)
    c.record_overhead(0.5)  # no timeline: its sim time stays None
    m = c.finalize()
    assert m.overhead_series == [0.25, 0.5]
    assert m.overhead_sim_times == [12.0, None]
    assert sum(m.overhead_series) == m.total_sched_overhead
