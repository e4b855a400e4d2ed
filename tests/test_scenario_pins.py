"""Exact outcomes of the demo and report scenarios, as the CLI runs them.

``quick_demo`` (behind ``mrcp-rm demo``/``faults``) and the ``mrcp-rm
report`` run draw replication ``seed`` of a seed-0 config through
:func:`~repro.experiments.runner.build_live_run`.  These literal values pin
the random stream and the wiring: a change to either moves a count here.
The longest solve in these runs takes a few milliseconds against a 0.5 s
budget, so the wall clock never decides a plan.
"""

import pytest

from repro import quick_demo
from repro.cli import main
from repro.experiments.configs import default_report_config
from repro.experiments.runner import build_live_run
from repro.faults import FaultModel


def _outcome(metrics):
    return {
        "N": metrics.late_jobs,
        "completed": metrics.jobs_completed,
        "failed": metrics.jobs_failed,
        "makespan": metrics.makespan,
        "invocations": metrics.scheduler_invocations,
        "retries": metrics.retries,
        "late": metrics.late_job_ids,
    }


def test_quick_demo_seed_1():
    assert _outcome(quick_demo(seed=1)) == {
        "N": 0,
        "completed": 10,
        "failed": 0,
        "makespan": 308,
        "invocations": 10,
        "retries": 0,
        "late": [],
    }


def test_faulted_quick_demo_seed_1(capsys):
    assert main(["faults", "--seed", "1", "--failure-prob", "0.4"]) == 0
    printed = capsys.readouterr().out
    assert "jobs arrived/completed/failed : 10/8/2" in printed
    assert "retries                       : 40" in printed
    # The model `mrcp-rm faults --seed 1 --failure-prob 0.4` builds.
    faults = FaultModel(task_failure_prob=0.4, straggler_prob=0.1, straggler_factor=2.5)
    assert _outcome(quick_demo(seed=1, faults=faults)) == {
        "N": 7,
        "completed": 8,
        "failed": 2,
        "makespan": 379,
        "invocations": 71,
        "retries": 40,
        "late": [0, 1, 2, 4, 5, 6, 8],
    }


@pytest.mark.parametrize(
    "faults, expected",
    [
        (
            False,
            {
                "N": 1,
                "completed": 8,
                "failed": 0,
                "makespan": 8550,
                "invocations": 8,
                "retries": 0,
                "late": [4],
                "plans": 8,
            },
        ),
        (
            True,
            {
                "N": 8,
                "completed": 8,
                "failed": 0,
                "makespan": 8595,
                "invocations": 63,
                "retries": 28,
                "late": [0, 1, 2, 3, 4, 5, 6, 7],
                "plans": 63,
            },
        ),
    ],
    ids=["clean", "faults"],
)
def test_report_scenario_jobs_8_seed_1(faults, expected, tmp_path, capsys):
    argv = ["report", "--jobs", "8", "--seed", "1", "--out", str(tmp_path / "r.html")]
    assert main(argv + (["--faults"] if faults else [])) == 0
    late, arrived = expected["N"], expected["completed"] + expected["failed"]
    assert f"{expected['completed']}/{arrived} jobs completed, {late} late" in (
        capsys.readouterr().out
    )
    run = build_live_run(default_report_config(num_jobs=8, faults=faults), replication=1)
    metrics = run.finish()
    assert {**_outcome(metrics), "plans": len(run.manager.plan_history)} == expected
