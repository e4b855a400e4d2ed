"""Large-neighbourhood search improvement."""

import random
import time

import pytest

from repro.cp import CpModel
from repro.cp.checker import check_solution
from repro.cp.errors import Infeasible
from repro.cp.heuristics import list_schedule
from repro.cp.lns import LnsParams, _PinnedLevel, lns_improve
from repro.cp.search import SearchLimits, SetTimesBrancher, tree_search
from repro.cp.solution import Solution


def _contended_model(n_jobs=4, length=5, deadline=20, capacity=1):
    """n jobs of one task each on one slot; deadline fits all but barely."""
    m = CpModel(horizon=200)
    bools = []
    for j in range(n_jobs):
        iv = m.interval_var(length=length, name=f"t{j}")
        b = m.add_deadline_indicator([iv], deadline=deadline)
        m.add_group(f"j{j}", [iv], deadline=deadline)
        bools.append(b)
    m.add_cumulative(m.intervals, capacity=capacity)
    m.minimize_sum(bools)
    m.engine()
    return m


def _bad_incumbent(m: CpModel) -> Solution:
    """A deliberately poor schedule: all tasks stacked sequentially in
    input order *backwards* (late jobs first)."""
    starts = {}
    t = 100  # start everything absurdly late
    for iv in m.intervals:
        starts[iv] = t
        t += iv.length
    sol = Solution(starts=starts)
    sol.objective = sol.evaluate_objective(m)
    return sol


def test_lns_improves_bad_incumbent():
    m = _contended_model(n_jobs=4, deadline=20)
    engine = m.engine()
    engine.reset()
    engine.propagate()
    bad = _bad_incumbent(m)
    assert bad.objective == 4
    best, stats = lns_improve(
        m,
        engine,
        bad,
        deadline=time.perf_counter() + 5.0,
        params=LnsParams(fail_limit=200, seed=1),
    )
    assert best.objective == 0  # all four fit: 4 x 5 = 20
    assert check_solution(m, best) == []
    assert stats.lns_iterations >= 1


def test_lns_noop_on_optimal_incumbent():
    m = _contended_model()
    engine = m.engine()
    engine.reset()
    engine.propagate()
    good = list_schedule(m, "edf")
    assert good.objective == 0
    best, stats = lns_improve(
        m, engine, good, deadline=time.perf_counter() + 1.0
    )
    assert best is good
    assert stats.lns_iterations == 0


def test_lns_respects_target_bound():
    # Three jobs, only two can make the deadline: target lb = 1.
    m = _contended_model(n_jobs=3, length=10, deadline=20)
    engine = m.engine()
    engine.reset()
    engine.propagate()
    bad = _bad_incumbent(m)
    best, _ = lns_improve(
        m,
        engine,
        bad,
        deadline=time.perf_counter() + 5.0,
        params=LnsParams(fail_limit=300, seed=2),
        target=1,
    )
    assert best.objective == 1
    assert check_solution(m, best) == []


def test_lns_single_group_is_noop():
    m = CpModel(horizon=50)
    iv = m.interval_var(length=5, name="t")
    b = m.add_deadline_indicator([iv], deadline=3)  # unavoidably late
    m.add_group("j", [iv], deadline=3)
    m.add_cumulative([iv], capacity=1)
    m.minimize_sum([b])
    engine = m.engine()
    engine.reset()
    engine.propagate()
    sol = list_schedule(m, "edf")
    best, stats = lns_improve(
        m, engine, sol, deadline=time.perf_counter() + 1.0
    )
    assert stats.lns_iterations == 0
    assert best.objective == 1


# --------------------------------------------------------------------------
# Differential oracle: relaxing out of the pinned level == reset + re-pin
# --------------------------------------------------------------------------


def _repin_reference(model, engine, best, relaxed_groups):
    """What every LNS iteration did before the pinned level existed.

    Kept as the oracle: reset, pin everything outside the relaxed groups to
    the incumbent, propagate from nothing.  Raises ``Infeasible`` when the
    pins alone are inconsistent.
    """
    engine.reset()
    engine.propagate()
    frozen = {iv for iv in model.intervals if iv.est == iv.lst}
    relaxed_intervals = {iv for g in relaxed_groups for iv in g.intervals}
    engine.reset()
    for iv in model.intervals:
        if iv in relaxed_intervals or iv in frozen:
            continue
        iv.fix_start(best.starts[iv], engine)
    for alt in model.alternatives:
        if alt.master in relaxed_intervals or alt.master in frozen:
            continue
        chosen = best.choices.get(alt.master)
        if chosen is not None:
            chosen.set_present(engine)
    engine.propagate()


def _snapshot(model):
    """Every domain a dive can read: start bounds, presence, lateness."""
    snap = {}
    for iv in model.all_intervals:
        presence = None
        if iv.presence is not None:
            presence = (iv.presence.domain.min, iv.presence.domain.max)
        # An absent option's start bounds mean nothing and are read nowhere.
        snap[iv.name] = "absent" if iv.is_absent else (iv.est, iv.lst, presence)
    for spec in model.indicators:
        snap[spec.name] = (spec.indicator.domain.min, spec.indicator.domain.max)
    return snap


def _random_model(seed, joint):
    """A small seeded batch with everything a planner model can hold.

    Two-stage and map-only groups, half of them declared without
    ``indicator=`` (as ``_contended_model`` does), a running task inside a
    group, an orphan frozen task outside every group, and in joint mode two
    unit resources behind ``add_alternative`` -- one alternative with a
    frozen master, whose resource no pin decides.
    """
    rng = random.Random(seed)
    m = CpModel(horizon=400)
    pools = {"map": [], "reduce": [], 0: [], 1: []}
    bools = []

    def place(iv, kind, resource=None):
        if not joint:
            pools[kind].append(iv)
        elif resource is not None:
            pools[resource].append(iv)
        else:
            for r in (0, 1):
                option = m.interval_var(
                    length=iv.length,
                    est=iv.est,
                    lst=iv.lst,
                    name=f"{iv.name}@{r}",
                    optional=True,
                )
                pools[r].append(option)
            m.add_alternative(iv, [pools[0][-1], pools[1][-1]])

    for j in range(rng.randint(3, 6)):
        release = rng.randint(0, 10)
        maps = [
            m.interval_var(length=rng.randint(2, 8), est=release, name=f"j{j}m{i}")
            for i in range(rng.randint(1, 3))
        ]
        for iv in maps:
            place(iv, "map")
        if j == 0:
            running = m.fixed_interval(start=0, length=rng.randint(3, 9), name="run0")
            maps.append(running)
            place(running, "map", resource=0)
        if j == 1:
            running = m.fixed_interval(start=10, length=rng.randint(3, 6), name="run1")
            maps.append(running)
            place(running, "map")  # joint: a frozen master with two options
        reduces = []
        if j < 2 or rng.random() < 0.6:
            reduces = [
                m.interval_var(length=rng.randint(2, 6), est=release, name=f"j{j}r")
            ]
            place(reduces[0], "reduce")
            m.add_barrier(maps, reduces)
        deadline = release + rng.randint(8, 30)
        late = m.add_deadline_indicator(reduces or maps, deadline, name=f"late{j}")
        bools.append(late)
        m.add_group(
            f"j{j}",
            maps,
            reduces,
            release=release,
            deadline=deadline,
            indicator=late if j % 2 else None,
        )
    place(m.fixed_interval(start=30, length=5, name="orphan"), "map", resource=1)
    if joint:
        m.add_cumulative(pools[0], capacity=1)
        m.add_cumulative(pools[1], capacity=1)
    else:
        m.add_cumulative(pools["map"], capacity=2)
        m.add_cumulative(pools["reduce"], capacity=1)
    m.minimize_sum(bools)
    return m


def _root_incumbent(model, engine):
    engine.reset()
    engine.propagate()
    incumbent = list_schedule(model, "edf")
    assert incumbent is not None and check_solution(model, incumbent) == []
    return incumbent


def _relax_outcomes(model, engine, best, relax_sets):
    """Relax each set out of a pinned level and compare with the oracle.

    Every set is relaxed twice on one level with a dive in between, which is
    how ``lns_improve`` re-uses the level.  Returns the outcomes seen.
    """
    groups = [g for g in model.groups if g.intervals]
    brancher = SetTimesBrancher(model)
    outcomes = set()
    for relaxed in relax_sets:
        try:
            _repin_reference(model, engine, best, relaxed)
            expected = _snapshot(model)
        except Infeasible:
            expected = "infeasible"
        # The oracle reset the engine, so the level is built afresh.
        level = _PinnedLevel(model, engine, best, groups)
        for again in (False, True):
            try:
                level.relax({id(g) for g in relaxed})
                got = _snapshot(model)
            except Infeasible:
                got = "infeasible"
            assert got == expected, (sorted(g.name for g in relaxed), again)
            if got != "infeasible":
                # A dive installs the objective bound, which is untrailed:
                # the next relaxation must not be judged under it.
                limits = SearchLimits.from_budget(fail_limit=5)
                tree_search(model, engine, brancher, limits, incumbent=best)
                assert _snapshot(model) == expected  # the dive unwound
            engine.trail.pop_level()
        outcomes.add("infeasible" if expected == "infeasible" else "feasible")
    return outcomes


@pytest.mark.parametrize("joint", [False, True], ids=["combined", "joint"])
@pytest.mark.parametrize("seed", range(8))
def test_relaxed_pinned_level_equals_reset_and_repin(seed, joint):
    model = _random_model(seed, joint)
    engine = model.engine()
    best = _root_incumbent(model, engine)
    rng = random.Random(seed)
    groups = model.groups
    relax_sets = [
        rng.sample(groups, rng.randint(1, min(3, len(groups)))) for _ in range(6)
    ]
    outcomes = _relax_outcomes(model, engine, best, relax_sets)
    assert outcomes == {"feasible"}  # the pins of a real solution never fail


@pytest.mark.parametrize("joint", [False, True], ids=["combined", "joint"])
@pytest.mark.parametrize("seed", range(8))
def test_pins_infeasible_relax_equals_reset_and_repin(seed, joint):
    """An incumbent that breaks a capacity: the pins hold for some sets only."""
    model = _random_model(seed, joint)
    engine = model.engine()
    best = _root_incumbent(model, engine)
    # Stack the reduces of two jobs on one slot of one resource.
    a, b = [g.stages[1][0] for g in model.groups if len(g.stages) > 1][:2]
    best.starts[a] = best.starts[b] = max(best.starts[a], best.starts[b])
    for alt in model.alternatives:
        if alt.master in (a, b):
            best.choices[alt.master] = alt.options[0]
    best.objective = best.evaluate_objective(model)
    assert check_solution(model, best) != []
    groups = model.groups
    relax_sets = [[g] for g in groups]
    relax_sets += [[g, h] for g, h in zip(groups, groups[1:])]
    outcomes = _relax_outcomes(model, engine, best, relax_sets)
    assert outcomes == {"feasible", "infeasible"}


def test_pins_infeasible_iteration_stalls_without_a_fail():
    """Pins that cannot hold are a stall: no dive runs, no fail is counted."""
    m = CpModel(horizon=200)
    bools = []
    for j in range(3):
        iv = m.interval_var(length=10, name=f"t{j}")
        bools.append(m.add_deadline_indicator([iv], deadline=20))
        m.add_group(f"j{j}", [iv], deadline=20)
    m.add_cumulative(m.intervals, capacity=1)
    # Two tasks outside every group share a slot; no relaxation frees them.
    x = m.interval_var(length=5, name="x")
    y = m.interval_var(length=5, name="y")
    m.add_cumulative([x, y], capacity=1)
    m.minimize_sum(bools)
    engine = m.engine()
    bad = _bad_incumbent(m)
    bad.starts[x] = bad.starts[y] = 0
    assert bad.objective == 3
    best, stats = lns_improve(
        m, engine, bad, deadline=time.perf_counter() + 0.05, target=1
    )
    assert best is bad
    assert stats.lns_iterations >= 1
    assert stats.fails == stats.branches == stats.propagations == 0
