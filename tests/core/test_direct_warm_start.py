"""The direct warm start answers exactly where the model's warm start closes.

``solve_invocation`` list-schedules a COMBINED invocation straight on the
slot profiles before it builds anything.  Every invocation of the seeded
runs below is checked both ways against the model path, built and solved
beside it: where the model's warm start ends at 0 late jobs the direct
path answers with the same start for every task, the same ``solved_by``
and the same installed assignments; everywhere else it falls through.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import replace

import pytest

import repro.core.mrcp_rm as mrcp_rm
import repro.service.admission as admission
from repro.core.formulation import FormulationMode, build_model, direct_attempts
from repro.core.invocation import extract_assignments
from repro.cp.solver import CpSolver
from repro.experiments.runner import RunConfig, SystemConfig, build_live_run, run_once
from repro.workload.entities import make_uniform_cluster
from tests.conftest import make_job
from tests.service.test_quote_ladder_pin import run_stream
from tests.test_behaviour_pins import (
    _case_fig2_small,
    _case_open_lns_small,
    _deterministic_solver_params,
    _fig7_small_config,
)


def _compare(tally, jobs, resources, now, running, base, solver, hint_starts):
    formulation = build_model(jobs, resources, now=now, running=running, base=base)
    hint = {}
    for task_id, start in (hint_starts or {}).items():
        iv = formulation.interval_of.get(task_id)
        if iv is not None and start >= now:
            hint[iv] = start
    # Phases 1 and 2 of the model path; the tree is kept to its first fail.
    params = replace(solver.params, profile=True, tree_fail_limit=0, use_lns=False)
    model = CpSolver(params).solve(formulation.model, hint=hint or None)
    closed = model.objective == 0 and model.profile.solved_by in ("hint", "warm_start")
    # The direct path gets the hints the model kept, by task id.
    hints = {formulation.task_of[iv].id: start for iv, start in hint.items()}
    attempts = direct_attempts(jobs, resources, now, running, base, hints)
    answer = CpSolver(params).solve_direct(*attempts) if attempts else None
    tally["closed" if closed else "fell_through"] += 1
    if not closed:
        assert answer is None, f"direct answer, model warm start open (t={now})"
        return
    assert answer is not None, f"no direct answer, model warm start closed (t={now})"
    pairs, result = answer
    assert result.profile.solved_by == model.profile.solved_by
    tally[result.profile.solved_by] += 1
    frozen = {a.task.id for a in running}
    expected = {
        task.id: model.solution.start_of(iv)
        for iv, task in formulation.task_of.items()
        if task.id not in frozen
    }
    assert {task.id: start for task, start in pairs} == expected

    def installed(formulation, solution):
        placed = extract_assignments(
            formulation, solution, running, resources, copy.deepcopy(base)
        )
        return sorted(
            (a.task.id, a.resource_id, a.slot_index, a.start) for a in placed
        )

    assert installed(None, pairs) == installed(formulation, model.solution)


@pytest.fixture
def tally(monkeypatch):
    """Check every COMBINED invocation of both callers; count the outcomes."""
    counts: Counter = Counter()
    real = mrcp_rm.solve_invocation

    def checked(jobs, resources, now, **kw):
        if kw.get("mode", FormulationMode.COMBINED) is FormulationMode.COMBINED:
            _compare(
                counts,
                jobs,
                resources,
                now,
                kw.get("running", ()),
                kw.get("base"),
                kw["solver"],
                kw.get("hint_starts"),
            )
        return real(jobs, resources, now, **kw)

    monkeypatch.setattr(mrcp_rm, "solve_invocation", checked)
    monkeypatch.setattr(admission, "solve_invocation", checked)
    return counts


def _open_steady_geometry():
    from repro.core import MrcpRmConfig
    from repro.workload import SyntheticWorkloadParams

    jobs = SyntheticWorkloadParams(
        num_jobs=120,
        map_tasks_range=(1, 20),
        reduce_tasks_range=(1, 20),
        e_max=50,
        ar_probability=0.5,
        s_max=10_000,
        deadline_multiplier_max=5.0,
        arrival_rate=0.01,
    )
    solver = _deterministic_solver_params()
    run_once(RunConfig(synthetic=jobs, mrcp=MrcpRmConfig(solver=solver), seed=1))


def _chaos():
    """The render oracles' run: faults, an outage and the escalation ladder."""
    from repro.obs.timeseries import TelemetryConfig
    from repro.resilience.chaos import default_chaos_config, escalation_ladder

    config = default_chaos_config(
        seed=0, num_jobs=16, faults=True, ladder=escalation_ladder()
    )
    config = replace(
        config,
        synthetic=replace(
            config.synthetic, arrival_rate=config.synthetic.arrival_rate * 10.0
        ),
        obs=replace(
            config.obs,
            trace=True,
            telemetry=TelemetryConfig(enabled=True, interval=5.0),
        ),
        mrcp=replace(config.mrcp, record_plan_history=True),
    )
    build_live_run(config).finish()


def _workflow_with_delays():
    from repro.core import MrcpRmConfig
    from repro.workload.workflows import WorkflowWorkloadParams

    run_once(
        RunConfig(
            scheduler="mrcp-rm",
            workload="workflow",
            workflow=WorkflowWorkloadParams(
                num_jobs=15,
                stages_range=(2, 4),
                tasks_per_stage_range=(1, 5),
                transfer_delay_range=(1, 6),
                deadline_multiplier_max=1.6,
                arrival_rate=0.05,
            ),
            system=SystemConfig(num_resources=3, map_slots=2, reduce_slots=2),
            mrcp=MrcpRmConfig(solver=_deterministic_solver_params()),
            seed=4,
        )
    )


def _schedule_once():
    config = _fig7_small_config()
    run_once(replace(config, mrcp=replace(config.mrcp, replan=False)))


RUNS = {
    "open_steady_geometry": _open_steady_geometry,
    "fig2_small": _case_fig2_small,
    "fig7_small": lambda: run_once(_fig7_small_config()),
    "open_lns_small": _case_open_lns_small,
    "chaos": _chaos,
    "workflow_delays": _workflow_with_delays,
    "schedule_once": _schedule_once,
    "quote_stream": run_stream,
}


@pytest.mark.parametrize("name", RUNS)
def test_direct_answer_matches_model_warm_start(name, tally):
    RUNS[name]()
    assert tally["closed"] > 0, dict(tally)


#: Hand-made invocations at the edges of the direct path's checks, on one
#: (1, 1) resource at t=0: (jobs, hinted starts by task id).
EDGES = {
    "completion_at_deadline": ([make_job(0, (10,), (5,), deadline=15)], {}),
    "hint_kept": ([make_job(0, (10,), (5,), deadline=50)], {"t0_m0": 3, "t0_r0": 13}),
    "hint_breaks_barrier": ([make_job(0, (10,), (5,), deadline=50)], {"t0_r0": 5}),
    "hint_before_release": (
        [make_job(0, (10,), earliest_start=20, deadline=60)],
        {"t0_m0": 10},
    ),
    "hint_past_horizon": ([make_job(0, (10,), deadline=5000)], {"t0_m0": 4000}),
    "hint_in_the_past": ([make_job(0, (10,), deadline=50)], {"t0_m0": -5}),
    "late_either_way": ([make_job(0, (10, 10), deadline=15)], {}),
}


@pytest.mark.parametrize("name", EDGES)
def test_direct_answer_matches_model_at_the_edges(name):
    jobs, hints = EDGES[name]
    tally: Counter = Counter()
    solver = CpSolver(_deterministic_solver_params())
    _compare(tally, jobs, make_uniform_cluster(1, 1, 1), 0, (), None, solver, hints)
    assert tally["closed"] == (name != "late_either_way"), dict(tally)
