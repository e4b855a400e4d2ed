"""Table 4 Facebook workload generator."""

import math

import pytest

from repro.workload.facebook import (
    FACEBOOK_JOB_TYPES,
    FacebookWorkloadParams,
    generate_facebook_workload,
)
from repro.workload.validate import validate_jobs


def test_table4_mix_sums_to_1000():
    assert sum(c for _, _, c in FACEBOOK_JOB_TYPES) == 1000


def test_workload_well_formed():
    params = FacebookWorkloadParams(num_jobs=50, scale=0.05)
    jobs = generate_facebook_workload(params, seed=1)
    assert len(jobs) == 50
    assert validate_jobs(jobs) == []


def test_job_shapes_come_from_table4():
    params = FacebookWorkloadParams(num_jobs=300, scale=1.0)
    jobs = generate_facebook_workload(params, seed=2)
    shapes = {(k, r) for k, r, _ in FACEBOOK_JOB_TYPES}
    for j in jobs:
        assert (len(j.map_tasks), len(j.reduce_tasks)) in shapes


def test_map_only_jobs_exist_and_have_no_reduces():
    params = FacebookWorkloadParams(num_jobs=200, scale=1.0)
    jobs = generate_facebook_workload(params, seed=3)
    map_only = [j for j in jobs if len(j.reduce_tasks) == 0]
    assert map_only  # 74% of the mix is map-only


def test_type_mix_roughly_matches_weights():
    params = FacebookWorkloadParams(num_jobs=2000, scale=1.0)
    jobs = generate_facebook_workload(params, seed=4)
    single_map = sum(
        1 for j in jobs if (len(j.map_tasks), len(j.reduce_tasks)) == (1, 0)
    )
    # expected 38%; allow generous sampling noise
    assert 0.30 <= single_map / len(jobs) <= 0.46


def test_durations_scale_with_lognormal_means():
    params = FacebookWorkloadParams(num_jobs=150, scale=0.05)
    jobs = generate_facebook_workload(params, seed=5)
    map_durs = [t.duration for j in jobs for t in j.map_tasks]
    red_durs = [t.duration for j in jobs for t in j.reduce_tasks]
    # LN means: map ~ exp(9.9511 + 1.6764/2) ms ~ 48.7 s;
    # reduce ~ exp(12.375 + 1.6262/2) ms ~ 534 s.
    assert 15 <= sum(map_durs) / len(map_durs) <= 150
    assert 150 <= sum(red_durs) / len(red_durs) <= 1600
    assert all(d >= 1 for d in map_durs + red_durs)


def test_scale_shrinks_counts_but_preserves_shape():
    params = FacebookWorkloadParams(num_jobs=200, scale=0.01)
    jobs = generate_facebook_workload(params, seed=6)
    for j in jobs:
        assert len(j.map_tasks) >= 1  # never scaled to zero maps
        assert len(j.map_tasks) <= max(1, math.ceil(4800 * 0.01) + 1)


def test_earliest_start_equals_arrival():
    params = FacebookWorkloadParams(num_jobs=30, scale=0.05)
    jobs = generate_facebook_workload(params, seed=7)
    assert all(j.earliest_start == j.arrival_time for j in jobs)  # p = 0


def test_max_task_seconds_cap():
    params = FacebookWorkloadParams(num_jobs=60, scale=0.05, max_task_seconds=30)
    jobs = generate_facebook_workload(params, seed=8)
    assert all(t.duration <= 30 for j in jobs for t in j.tasks)


def test_deterministic_given_seed():
    params = FacebookWorkloadParams(num_jobs=40, scale=0.05)
    a = generate_facebook_workload(params, seed=9)
    b = generate_facebook_workload(params, seed=9)
    assert [j.deadline for j in a] == [j.deadline for j in b]


def test_exact_mix_reproduces_table4_composition():
    params = FacebookWorkloadParams(num_jobs=1000, scale=1.0, exact_mix=True)
    jobs = generate_facebook_workload(params, seed=10)
    counts = {}
    for j in jobs:
        counts[(len(j.map_tasks), len(j.reduce_tasks))] = (
            counts.get((len(j.map_tasks), len(j.reduce_tasks)), 0) + 1
        )
    for k_mp, k_rd, expected in FACEBOOK_JOB_TYPES:
        assert counts[(k_mp, k_rd)] == expected


def test_exact_mix_small_multiple_of_50():
    params = FacebookWorkloadParams(num_jobs=50, scale=1.0, exact_mix=True)
    jobs = generate_facebook_workload(params, seed=11)
    counts = {}
    for j in jobs:
        key = (len(j.map_tasks), len(j.reduce_tasks))
        counts[key] = counts.get(key, 0) + 1
    for k_mp, k_rd, expected in FACEBOOK_JOB_TYPES:
        assert counts[(k_mp, k_rd)] == expected // 20


def test_exact_mix_requires_multiple_of_50():
    params = FacebookWorkloadParams(num_jobs=60, exact_mix=True)
    with pytest.raises(ValueError, match="multiple of 50"):
        generate_facebook_workload(params)


def test_exact_mix_order_is_shuffled_and_deterministic():
    params = FacebookWorkloadParams(num_jobs=100, scale=1.0, exact_mix=True)
    a = generate_facebook_workload(params, seed=12)
    b = generate_facebook_workload(params, seed=12)
    shapes_a = [(len(j.map_tasks), len(j.reduce_tasks)) for j in a]
    shapes_b = [(len(j.map_tasks), len(j.reduce_tasks)) for j in b]
    assert shapes_a == shapes_b  # deterministic
    assert shapes_a != sorted(shapes_a)  # not grouped by type


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate_facebook_workload(FacebookWorkloadParams(num_jobs=0))
    with pytest.raises(ValueError):
        generate_facebook_workload(FacebookWorkloadParams(arrival_rate=0))
    with pytest.raises(ValueError):
        generate_facebook_workload(FacebookWorkloadParams(scale=0))
