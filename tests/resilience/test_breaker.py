"""Circuit breaker state machine and degradation ladder unit tests."""

import pytest

from repro.core import MrcpRm, MrcpRmConfig
from repro.cp.solver import SolverParams
from repro.metrics import MetricsCollector
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    RUNGS,
    CircuitBreaker,
    DegradationLadder,
    InjectedSolverFailures,
    LadderConfig,
)
from repro.sim import Simulator
from repro.workload.entities import make_uniform_cluster

from tests.conftest import make_job


# ------------------------------------------------------------------ breaker
def test_breaker_opens_after_threshold_consecutive_failures():
    b = CircuitBreaker("cp_full", threshold=2, cooldown=3)
    assert b.allow()
    assert b.record(False) is None  # 1 failure: still closed
    assert b.state == CLOSED
    assert b.record(False) == (CLOSED, OPEN)
    assert b.opened_count == 1


def test_breaker_success_resets_the_failure_streak():
    b = CircuitBreaker("cp_full", threshold=2, cooldown=3)
    b.record(False)
    b.record(True)
    b.record(False)
    assert b.state == CLOSED  # streak broken by the success


def test_open_breaker_skips_then_half_opens_a_probe():
    b = CircuitBreaker("cp_full", threshold=1, cooldown=2)
    b.record(False)
    assert b.state == OPEN
    assert not b.allow()  # cooldown tick 1: skipped
    assert b.allow()  # cooldown expired: probe admitted
    assert b.state == HALF_OPEN


def test_failed_probe_reopens_successful_probe_closes():
    b = CircuitBreaker("cp_full", threshold=1, cooldown=2)
    b.record(False)
    b.allow(), b.allow()  # burn cooldown, half-open
    assert b.record(False) == (HALF_OPEN, OPEN)
    b.allow(), b.allow()
    assert b.record(True) == (HALF_OPEN, CLOSED)
    assert b.failures == 0


# ------------------------------------------------------ injected failures
class _SolvingSolver:
    """Solver stub whose every solve succeeds (no model needed)."""

    def solve(self, model, hint=None, **overrides):
        from repro.cp.solution import SolveResult, SolveStatus

        return SolveResult(SolveStatus.FEASIBLE, "plan")


def _chaos_ladder(counts, failure_threshold=99):
    chaos = InjectedSolverFailures(counts=counts)
    config = LadderConfig(failure_threshold=failure_threshold, chaos=chaos)
    return DegradationLadder(config, solver=_SolvingSolver())


def test_injected_failures_consume_budget_in_call_order():
    ladder = _chaos_ladder({"cp_full": 2})
    rungs = [ladder.solve(model=None).rung for _ in range(3)]
    assert rungs == ["cp_limited", "cp_limited", "cp_full"]  # budget spent
    # cp_limited has no budget configured, so it is never charged.
    assert ladder.snapshot()["chaos"] == {"cp_full": 2}


def test_injected_failures_repr_stable_across_consumption():
    """config_fingerprint hashes the config repr; a ladder consuming the
    budget must leave the config (and its repr) untouched."""
    ladder = _chaos_ladder({"cp_full": 1})
    chaos = ladder.config.chaos
    before = repr(chaos)
    ladder.solve(model=None)
    assert ladder.snapshot()["chaos"] == {"cp_full": 1}
    assert repr(chaos) == before
    assert chaos == InjectedSolverFailures(counts={"cp_full": 1})


# ------------------------------------------------------------------- ladder
def _run_with_ladder(jobs, ladder_config):
    sim = Simulator()
    metrics = MetricsCollector()
    rm = MrcpRm(
        sim,
        make_uniform_cluster(2, 2, 2),
        MrcpRmConfig(
            solver=SolverParams(time_limit=0.5),
            resilience=ladder_config,
            record_plan_history=True,
        ),
        metrics,
    )
    for job in jobs:
        sim.schedule_at(job.arrival_time, lambda j=job: rm.submit(j))
    sim.run()
    rm.executor.assert_quiescent()
    return metrics.finalize(), rm


def _jobs(n=3):
    return [
        make_job(
            i, (4, 4), (6,), arrival=i * 5, earliest_start=i * 5, deadline=i * 5 + 500
        )
        for i in range(n)
    ]


def test_healthy_solver_stays_on_cp_full():
    metrics, rm = _run_with_ladder(_jobs(), LadderConfig())
    assert metrics.jobs_completed == 3
    assert set(metrics.solves_by_rung) == {"cp_full"}
    assert metrics.breaker_opens == 0
    assert all(rec.rung == "cp_full" for rec in rm.plan_history)


def test_injected_cp_failures_escalate_to_edf_and_count_fallbacks():
    """CP rungs forced down -> the ladder lands on EDF, which must feed
    the PR 1 fallback counter so existing dashboards keep working."""
    config = LadderConfig(
        failure_threshold=10,  # never open: every invocation retries CP
        chaos=InjectedSolverFailures(counts={"cp_full": 99, "cp_limited": 99}),
    )
    metrics, _ = _run_with_ladder(_jobs(), config)
    assert metrics.jobs_completed == 3
    assert metrics.solves_by_rung.get("edf", 0) > 0
    assert metrics.fallback_solves == metrics.solves_by_rung["edf"]
    assert "ladder_edf" in metrics.as_dict()


def test_breaker_escalation_walks_all_four_rungs():
    config = LadderConfig(
        failure_threshold=1,
        cooldown=2,
        chaos=InjectedSolverFailures(counts={"cp_full": 3, "cp_limited": 2, "edf": 1}),
    )
    # 8 arrivals = 8 solver invocations: with threshold 1 / cooldown 2 the
    # cp_full breaker needs 7 invocations to exhaust its injected budget
    # and win a half-open probe.
    metrics, rm = _run_with_ladder(_jobs(8), config)
    assert metrics.jobs_completed == 8
    for rung in RUNGS:
        assert metrics.solves_by_rung.get(rung, 0) > 0, (
            f"rung {rung} never produced a plan: {metrics.solves_by_rung}"
        )
    assert metrics.breaker_opens >= 3  # each guarded rung tripped at least once
    assert metrics.as_dict()["breaker_opens"] == float(metrics.breaker_opens)
    # Plan history attributes each invocation to the rung that planned it.
    rungs_in_history = {rec.rung for rec in rm.plan_history}
    assert "greedy" in rungs_in_history


def test_greedy_rung_drops_a_stale_hint():
    """A hinted successor can keep a start its re-planned predecessor has
    passed; the greedy rung must check the hinted plan and fall back to
    input order instead of handing an invalid schedule to the executor."""
    from repro.experiments.runner import run_once
    from repro.resilience.chaos import default_chaos_config, escalation_ladder

    config = default_chaos_config(
        seed=2, num_jobs=16, arrival_rate=0.5, ladder=escalation_ladder()
    )
    metrics = run_once(config)
    assert metrics.jobs_arrived == 16
    assert metrics.solves_by_rung.get("greedy", 0) > 0


def test_ladder_exhaustion_raises_scheduling_error():
    from repro.core.schedule import SchedulingError

    config = LadderConfig(
        failure_threshold=10,
        chaos=InjectedSolverFailures(
            counts={"cp_full": 99, "cp_limited": 99, "edf": 99, "greedy": 99}
        ),
    )
    with pytest.raises(SchedulingError):
        _run_with_ladder(_jobs(1), config)


def test_proven_infeasible_does_not_trip_the_breaker():
    """INFEASIBLE is the instance's verdict, not a solver-health signal:
    the ladder escalates but the CP rungs' breakers stay closed."""
    from repro.cp.solution import SolveResult, SolveStatus

    class InfeasibleSolver:
        def solve(self, model, hint=None, **overrides):
            return SolveResult(SolveStatus.INFEASIBLE, None)

    config = LadderConfig(
        failure_threshold=1,
        cooldown=2,
        # Chaos keeps the heuristic rungs from touching the (absent) model.
        chaos=InjectedSolverFailures(counts={"edf": 5, "greedy": 5}),
    )
    ladder = DegradationLadder(config, solver=InfeasibleSolver())
    outcome = ladder.solve(model=None)
    assert outcome.solution is None
    assert ladder.breakers["cp_full"].state == CLOSED
    assert ladder.breakers["cp_full"].failures == 0
    assert ladder.breakers["cp_limited"].state == CLOSED
    # The chaos-forced edf failure is health-relevant and does count.
    assert ladder.breakers["edf"].state == OPEN


def test_budget_exhaustion_does_trip_the_breaker():
    from repro.cp.solution import SolveResult, SolveStatus

    class ExhaustedSolver:
        def solve(self, model, hint=None, **overrides):
            return SolveResult(SolveStatus.UNKNOWN, None)

    config = LadderConfig(
        failure_threshold=1,
        cooldown=2,
        chaos=InjectedSolverFailures(counts={"edf": 5, "greedy": 5}),
    )
    ladder = DegradationLadder(config, solver=ExhaustedSolver())
    ladder.solve(model=None)
    assert ladder.breakers["cp_full"].state == OPEN
    assert ladder.breakers["cp_limited"].state == OPEN
