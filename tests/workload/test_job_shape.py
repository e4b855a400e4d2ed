"""A MapReduce job is its two-stage DAG: every consumer reads both alike.

:func:`~repro.workload.workflows.from_mapreduce` is the oracle: it views a
job as a workflow of a ``map`` stage plus, when reduces exist, a ``reduce``
stage behind one zero-delay edge.  TE, the model's stage structure, the
stage graph the model and the validator read, and slot eligibility must
give the same answer for the job and for that view, map-only jobs
included; and a job's own graph builder, which skips the topological sort,
must build what the generic one does.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.slot_cluster import SlotPolicy
from repro.workload.entities import StagedJob, minimum_execution_time
from repro.workload.facebook import FacebookWorkloadParams, generate_facebook_workload
from repro.workload.synthetic import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
)
from repro.workload.workflows import from_mapreduce

#: Runtime flags a task can hold: pending, dispatched, completed.
STATES = ((False, False), (False, True), (True, True))


@st.composite
def generated_jobs(draw):
    """A Table 3 or Table 4 stream; Table 3 ones may be map-only."""
    seed = draw(st.integers(0, 10_000))
    num_jobs = draw(st.integers(1, 8))
    if draw(st.booleans()):
        params = SyntheticWorkloadParams(
            num_jobs=num_jobs,
            map_tasks_range=(1, draw(st.integers(1, 12))),
            reduce_tasks_range=(0, draw(st.integers(0, 6))),
            e_max=20,
            ar_probability=0.5,
            s_max=100,
            arrival_rate=0.05,
        )
        return generate_synthetic_workload(params, seed=seed)
    params = FacebookWorkloadParams(num_jobs=num_jobs, scale=0.05)
    return generate_facebook_workload(params, seed=seed)


def _ids(tasks):
    return [t.id for t in tasks]


def _graph(job):
    """The job's stage graph, with each stage as its name and task ids."""
    stages, preds, delays, terminal, barriers = job.topological_structure()
    return (
        [(s.name, _ids(s.tasks)) for s in stages],
        preds,
        delays,
        terminal,
        [(p.name, s.name, d) for p, s, d in barriers],
    )


@given(generated_jobs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_every_consumer_reads_a_job_as_its_two_stage_dag(jobs, rng):
    for job in jobs:
        dag = from_mapreduce(job)
        for slots in ((1, 1), (3, 2), (20, 20)):
            assert minimum_execution_time(job, *slots) == minimum_execution_time(
                dag, *slots
            )
        assert _graph(job) == _graph(dag)
        assert job._build_graph() == StagedJob._build_graph(job)
        for _ in range(4):
            for task in job.tasks:
                task.is_completed, task.is_prev_scheduled = rng.choice(STATES)
            assert _ids(SlotPolicy.eligible_tasks(job)) == _ids(
                SlotPolicy.eligible_tasks(dag)
            )
