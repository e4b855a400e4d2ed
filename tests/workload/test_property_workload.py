"""Property-based workload tests: every generated workload is well-formed."""

import json

from hypothesis import given, settings, strategies as st

from repro.workload.entities import minimum_execution_time
from repro.workload.facebook import FacebookWorkloadParams, generate_facebook_workload
from repro.workload.synthetic import SyntheticWorkloadParams, generate_synthetic_workload
from repro.workload.traces import jobs_to_json
from repro.workload.validate import validate_jobs


@st.composite
def synthetic_params(draw):
    map_hi = draw(st.integers(1, 20))
    red_hi = draw(st.integers(0, 20))
    return SyntheticWorkloadParams(
        num_jobs=draw(st.integers(1, 20)),
        map_tasks_range=(1, map_hi),
        reduce_tasks_range=(0 if red_hi == 0 else 1, max(red_hi, 1)),
        e_max=draw(st.integers(1, 50)),
        ar_probability=draw(st.floats(0.0, 1.0)),
        s_max=draw(st.integers(1, 10_000)),
        deadline_multiplier_max=draw(st.floats(1.0, 10.0)),
        arrival_rate=draw(st.floats(0.001, 1.0)),
        total_map_slots=draw(st.integers(1, 50)),
        total_reduce_slots=draw(st.integers(1, 50)),
    )


@given(synthetic_params(), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_synthetic_workloads_always_valid(params, seed):
    jobs = generate_synthetic_workload(params, seed=seed)
    assert validate_jobs(jobs) == []
    for j in jobs:
        # deadline always allows TE at full parallelism
        te = minimum_execution_time(
            j, params.total_map_slots, params.total_reduce_slots
        )
        assert j.deadline - j.earliest_start >= te


@given(synthetic_params(), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_trace_round_trip_property(params, seed):
    jobs = generate_synthetic_workload(params, seed=seed)
    written = json.loads(jobs_to_json(jobs))["jobs"]
    assert [(row["id"], row["deadline"]) for row in written] == [
        (j.id, j.deadline) for j in jobs
    ]
    assert [
        [t["duration"] for t in row["map_tasks"] + row["reduce_tasks"]]
        for row in written
    ] == [[t.duration for t in j.tasks] for j in jobs]


@given(
    st.integers(1, 40),
    st.floats(0.00005, 0.01),
    st.floats(0.005, 1.0),
    st.integers(0, 500),
)
@settings(max_examples=40, deadline=None)
def test_facebook_workloads_always_valid(num_jobs, rate, scale, seed):
    params = FacebookWorkloadParams(
        num_jobs=num_jobs, arrival_rate=rate, scale=scale
    )
    jobs = generate_facebook_workload(params, seed=seed)
    assert validate_jobs(jobs) == []
