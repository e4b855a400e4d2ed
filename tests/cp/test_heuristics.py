"""List-scheduling warm starts."""

import pytest

from repro.cp import CpModel
from repro.cp.checker import check_solution
from repro.cp.heuristics import best_warm_start, group_sort_key, list_schedule


def _mapreduce_model(deadlines=(20, 30), lengths=((4, 4), (6,))):
    """Two jobs on a combined resource (2 map slots, 1 reduce slot)."""
    m = CpModel(horizon=200)
    all_maps, all_reds, bools = [], [], []
    for j, d in enumerate(deadlines):
        maps = [
            m.interval_var(length=lengths[0][k % len(lengths[0])], name=f"j{j}m{k}")
            for k in range(2)
        ]
        red = m.interval_var(length=lengths[1][0], name=f"j{j}r")
        m.add_barrier(maps, [red])
        b = m.add_deadline_indicator([red], deadline=d)
        m.add_group(f"j{j}", maps, [red], deadline=d)
        all_maps += maps
        all_reds.append(red)
        bools.append(b)
    m.add_cumulative(all_maps, capacity=2, name="maps")
    m.add_cumulative(all_reds, capacity=1, name="reds")
    m.minimize_sum(bools)
    m.engine()
    return m


def test_list_schedule_produces_valid_solution():
    m = _mapreduce_model()
    sol = list_schedule(m, "edf")
    assert sol is not None
    assert check_solution(m, sol) == []


def test_all_orderings_valid():
    m = _mapreduce_model()
    for order in ("edf", "laxity", "input"):
        sol = list_schedule(m, order)
        assert sol is not None
        assert check_solution(m, sol) == [], order


def test_unknown_ordering_rejected():
    m = _mapreduce_model()
    with pytest.raises(ValueError):
        list_schedule(m, "bogus")


def test_edf_prioritises_urgent_job():
    # job 0 has the *later* deadline; EDF should run job 1 first
    m = _mapreduce_model(deadlines=(100, 15))
    sol = list_schedule(m, "edf")
    g0, g1 = m.groups
    end_j1_maps = max(sol.end_of(iv) for iv in g1.stages[0])
    start_j0_red = sol.start_of(g0.stages[1][0])
    assert sol.objective == 0
    assert end_j1_maps <= start_j0_red + 100  # sanity; j1 not starved


def test_respects_frozen_tasks():
    m = CpModel(horizon=100)
    frozen = m.fixed_interval(start=0, length=10, name="frozen")
    a = m.interval_var(length=5, name="a")
    m.add_cumulative([frozen, a], capacity=1)
    m.add_group("j", [a])
    m.engine()
    sol = list_schedule(m, "edf")
    assert sol.starts[frozen] == 0
    assert sol.starts[a] >= 10


def test_respects_release_times():
    m = CpModel(horizon=100)
    a = m.interval_var(length=5, est=30, name="a")
    m.add_cumulative([a], capacity=1)
    m.add_group("j", [a], release=30)
    m.engine()
    sol = list_schedule(m, "edf")
    assert sol.starts[a] >= 30


def test_joint_mode_resource_choice():
    m = CpModel(horizon=100)
    t1 = m.interval_var(length=10, name="t1")
    t2 = m.interval_var(length=10, name="t2")
    pools = {0: [], 1: []}
    for t in (t1, t2):
        opts = []
        for rid in (0, 1):
            o = m.interval_var(length=10, name=f"{t.name}@r{rid}", optional=True)
            pools[rid].append(o)
            opts.append(o)
        m.add_alternative(t, opts)
    m.add_cumulative(pools[0], capacity=1, name="r0")
    m.add_cumulative(pools[1], capacity=1, name="r1")
    m.add_group("j1", [t1])
    m.add_group("j2", [t2])
    m.engine()
    sol = list_schedule(m, "edf")
    assert sol is not None
    # the two tasks should go to different resources and run in parallel
    chosen = {sol.choices[t1].name.split("@")[1], sol.choices[t2].name.split("@")[1]}
    assert chosen == {"r0", "r1"}
    assert sol.starts[t1] == sol.starts[t2] == 0


def test_best_warm_start_picks_lowest_objective():
    m = _mapreduce_model(deadlines=(12, 12))
    sol = best_warm_start(m)
    assert sol is not None
    assert check_solution(m, sol) == []


def test_group_sort_key_orderings():
    m = CpModel(horizon=100)
    a = m.interval_var(length=5)
    g = m.add_group("j", [a], release=3, deadline=50)
    assert group_sort_key("edf", 0, g)[0] == 50
    assert group_sort_key("laxity", 0, g)[0] == 50 - 3 - 5
    assert group_sort_key("input", 4, g) == (4,)
    with pytest.raises(ValueError):
        group_sort_key("nope", 0, g)
