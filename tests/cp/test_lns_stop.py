"""When LNS stops: target, stagnation, deadline.

Both stagnation exits -- on gainless iterations and on gainless fails -- may
only cut a run short, never change it: up to the iteration it stops at, the
loop must do exactly what it did when the wall clock and the target were its
only exits.  Both count work, so the loop ends with no deadline at all.
"""

import math
import random
import time

import pytest

from repro.core.formulation import build_model
from repro.cp import CpModel, CpSolver
from repro.cp.heuristics import best_warm_start, list_schedule
from repro.cp.errors import Infeasible
from repro.cp.lns import (
    LnsParams,
    _late_groups,
    _overlap,
    _PinnedLevel,
    _window,
    lns_improve,
)
from repro.cp import solver as cp_solver
from repro.cp.search import SearchLimits, SetTimesBrancher, tree_search
from repro.cp.solution import SearchStats, Solution
from repro.cp.solver import SolverParams
from repro.experiments.pool import deterministic_run_config
from repro.experiments.runner import RunConfig, run_once
from repro.obs.trace import TraceRecorder, Tracer
from repro.workload import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
    make_uniform_cluster,
)

#: Iterations from the initial to the largest neighbourhood at the defaults.
DEFAULT_RAMP = 20
#: Grows 2 -> 4 -> 6 -> 7 after 3 stalls each: a ramp of 9.
ODD_SPAN = LnsParams(initial_neighbourhood=2, max_neighbourhood=7, stall_before_grow=3)
FAR = 3600.0


def _reference_lns(model, engine, incumbent, deadline, params, target, cap, trace=None):
    """The loop before the stagnation exit, stopped after ``cap`` iterations.

    Returns ``(best, stats, gains)``, ``gains`` the iterations that improved.
    A ``trace`` list receives ``(fails so far, improved)`` per iteration.
    """
    stats = SearchStats()
    gains = []
    best = incumbent
    groups = [g for g in model.groups if g.intervals]
    if len(groups) < 2 or best.objective is None or best.objective <= target:
        return best, stats, gains

    rng = random.Random(params.seed)
    brancher = SetTimesBrancher(model, jump=True)
    neighbourhood = params.initial_neighbourhood
    stall = 0
    level = None

    while time.perf_counter() < deadline and stats.lns_iterations < cap:
        if level is None or level.best is not best:
            late = _late_groups(model, best)
            if not late:
                break
            windows = {id(g): _window(best, g) for g in groups}
            level = _PinnedLevel(model, engine, best, groups)
        stats.lns_iterations += 1

        seed_group = rng.choice(late)
        relax = {id(seed_group)}
        seed_win = windows[id(seed_group)]
        neighbours = sorted(
            (g for g in groups if g is not seed_group),
            key=lambda g: -_overlap(seed_win, windows[id(g)]),
        )
        extra_late = [g for g in late if g is not seed_group]
        rng.shuffle(extra_late)
        for g in extra_late[: max(0, neighbourhood // 2)]:
            relax.add(id(g))
        for g in neighbours:
            if len(relax) >= neighbourhood:
                break
            relax.add(id(g))

        result = None
        try:
            level.relax(relax)
        except Infeasible:
            pass
        else:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            limits = SearchLimits.from_budget(
                time_budget=remaining, fail_limit=params.fail_limit
            )
            result = tree_search(model, engine, brancher, limits, incumbent=best)
            stats.merge(result.stats)
        engine.trail.pop_level()

        improved = (
            result is not None
            and result.best.objective is not None
            and result.best.objective < best.objective
        )
        if trace is not None:
            trace.append((stats.fails, improved))
        if improved:
            best = result.best
            gains.append(stats.lns_iterations)
            stall = 0
            neighbourhood = params.initial_neighbourhood
            if best.objective <= target:
                break
        else:
            stall += 1
            if stall >= params.stall_before_grow:
                neighbourhood = min(neighbourhood + 2, params.max_neighbourhood)
                stall = 0

    engine.reset()
    return best, stats, gains


def _micro_batch_model(seed):
    """The ``solver_micro_lns`` bench batch, drawn with generator ``seed``."""
    params = SyntheticWorkloadParams(
        num_jobs=30,
        map_tasks_range=(1, 10),
        reduce_tasks_range=(1, 5),
        e_max=20,
        ar_probability=0.0,
        deadline_multiplier_max=1.2,
        arrival_rate=1.0,
        total_map_slots=20,
        total_reduce_slots=20,
    )
    jobs = generate_synthetic_workload(params, seed=seed)
    return build_model(jobs, make_uniform_cluster(10, 2, 2), now=0).model


def _starts_by_name(solution):
    return {iv.name: start for iv, start in solution.starts.items()}


def _warm(model):
    engine = model.engine()
    engine.reset()
    engine.propagate()
    return engine, best_warm_start(model)


@pytest.mark.parametrize(
    "seed, to_zero",
    [(1, False), (4, False), (5, False), (6, False), (1, True), (3, True), (5, True)],
)
def test_stop_only_truncates_the_parent_loop(seed, to_zero):
    """Same incumbent, iterations and fails as the old loop capped there.

    ``to_zero`` asks for 0 late jobs, which these batches cannot reach, so
    the run ends by stagnation after at least one gain; otherwise the bench
    target (a fifth below the warm start) ends it first.
    """
    params = LnsParams(seed=seed, fail_limit=50)
    model = _micro_batch_model(seed)
    engine, warm = _warm(model)
    target = 0 if to_zero else warm.objective - max(1, round(0.2 * warm.objective))
    best, stats = lns_improve(
        model, engine, warm, time.perf_counter() + FAR, params, target=target
    )
    assert stats.lns_stop == ("stagnated" if to_zero else "target")

    model = _micro_batch_model(seed)
    engine, warm = _warm(model)
    ref_best, ref_stats, gains = _reference_lns(
        model,
        engine,
        warm,
        time.perf_counter() + FAR,
        params,
        target,
        cap=stats.lns_iterations,
    )
    assert ref_stats.lns_iterations == stats.lns_iterations
    assert ref_stats.fails == stats.fails
    assert ref_stats.branches == stats.branches
    assert ref_best.objective == best.objective
    assert _starts_by_name(ref_best) == _starts_by_name(best)
    if to_zero:
        # Each gain lengthened the wait: 2 * ramp past the last gain, plus
        # the last gain's iteration again.
        assert gains
        assert stats.lns_iterations == 2 * DEFAULT_RAMP + 2 * gains[-1]


def _unbeatable(n_jobs=3, stuck_pair=False):
    """``n_jobs`` ten-unit jobs on one slot, two fit their deadline of 20.

    The EDF incumbent is optimal but root propagation cannot prove it, so
    with target 0 every dive fails against the ``best - 1`` cut.  A
    ``stuck_pair`` adds two tasks outside every group that share a slot and
    start together in the incumbent: no relaxation frees them, so every
    iteration fails before its dive.
    """
    m = CpModel(horizon=400)
    bools = []
    for j in range(n_jobs):
        iv = m.interval_var(length=10, name=f"t{j}")
        bools.append(m.add_deadline_indicator([iv], deadline=20))
        m.add_group(f"j{j}", [iv], deadline=20)
    m.add_cumulative(m.intervals, capacity=1)
    if stuck_pair:
        pair = [m.interval_var(length=5, name=n) for n in ("x", "y")]
        m.add_cumulative(pair, capacity=1)
    m.minimize_sum(bools)
    engine = m.engine()
    engine.reset()
    engine.propagate()
    incumbent = list_schedule(m, "edf")
    assert incumbent.objective == n_jobs - 2
    if stuck_pair:
        for iv in pair:
            incumbent.starts[iv] = 0
    return m, engine, incumbent


@pytest.mark.parametrize(
    "params, ramp",
    [
        (LnsParams(), DEFAULT_RAMP),
        (ODD_SPAN, 9),
        (LnsParams(initial_neighbourhood=5, max_neighbourhood=5), 0),
    ],
    ids=["defaults", "odd-span", "no-ramp"],
)
def test_gainless_run_stagnates_after_twice_the_ramp(params, ramp):
    m, engine, incumbent = _unbeatable()
    best, stats = lns_improve(
        m, engine, incumbent, time.perf_counter() + FAR, params, target=0
    )
    assert best is incumbent
    assert stats.lns_stop == "stagnated"
    assert stats.lns_iterations == max(1, 2 * ramp)
    assert stats.fails > 0  # the dives ran and failed


def test_pins_that_never_hold_stagnate_too():
    """Relaxations that fail before any dive count toward the stop."""
    m, engine, incumbent = _unbeatable(stuck_pair=True)
    best, stats = lns_improve(m, engine, incumbent, time.perf_counter() + FAR, target=0)
    assert best is incumbent
    assert stats.lns_stop == "stagnated"
    assert stats.lns_iterations == 2 * DEFAULT_RAMP
    assert stats.fails == stats.branches == 0


def test_target_wins_when_stagnation_is_due_in_the_same_iteration():
    # No ramp: stagnation is due after the first iteration, which is also
    # the one that reaches the target.
    m = CpModel(horizon=200)
    bools = []
    for j in range(4):
        iv = m.interval_var(length=5, name=f"t{j}")
        bools.append(m.add_deadline_indicator([iv], deadline=20))
        m.add_group(f"j{j}", [iv], deadline=20)
    m.add_cumulative(m.intervals, capacity=1)
    m.minimize_sum(bools)
    engine = m.engine()
    engine.reset()
    engine.propagate()
    starts = {iv: 100 + 5 * k for k, iv in enumerate(m.intervals)}
    incumbent = Solution(starts=starts)
    incumbent.objective = incumbent.evaluate_objective(m)
    assert incumbent.objective == 4
    params = LnsParams(initial_neighbourhood=4, max_neighbourhood=4)
    best, stats = lns_improve(
        m, engine, incumbent, time.perf_counter() + FAR, params, target=3
    )
    assert best.objective <= 3
    assert (stats.lns_stop, stats.lns_iterations) == ("target", 1)


def test_deadline_still_caps_the_loop():
    m, engine, incumbent = _unbeatable()
    _, stats = lns_improve(m, engine, incumbent, time.perf_counter(), target=0)
    assert (stats.lns_stop, stats.lns_iterations) == ("deadline", 0)


def test_solver_reports_the_stop_on_profile_and_span():
    """Tree search cannot prove the incumbent optimal; LNS then stagnates."""
    m, _, _ = _unbeatable(n_jobs=8)
    tracer = Tracer(TraceRecorder())
    result = CpSolver(SolverParams(tree_fail_limit=1), tracer=tracer).solve(
        m, time_limit=FAR
    )
    assert result.objective == 6
    assert result.stats.lns_stop == result.profile.lns_stop == "stagnated"
    (span,) = [e for e in tracer.recorder.events if e["name"] == "cp.lns"]
    assert span["args"]["stop"] == "stagnated"


# ------------------------------------------------------------ the fail stop
def _stall_fails(params):
    """The fail budget: ``stall_before_grow + 2`` dives, at least ``(2 ramp)^2``."""
    ramp = params.stall_before_grow * math.ceil(
        (params.max_neighbourhood - params.initial_neighbourhood) / 2
    )
    return max((params.stall_before_grow + 2) * params.fail_limit, (2 * ramp) ** 2)


def _fail_stop_due(trace, params):
    """The iterations of ``trace`` at which the fail stop's condition holds."""
    budget = _stall_fails(params)
    gain_fails, due = 0, []
    for iteration, (fails, improved) in enumerate(trace, 1):
        if improved:
            gain_fails = fails
        elif fails - gain_fails >= budget + gain_fails:
            due.append(iteration)
    return due


def _counts(stats):
    """What a run did, without its timings."""
    return (
        stats.lns_stop,
        stats.lns_iterations,
        stats.fails,
        stats.branches,
        stats.solutions,
        stats.propagations,
    )


def _beatable(n_jobs=12):
    """``n_jobs`` ten-unit jobs on one slot, all late in the incumbent.

    Two can meet their deadline of 20, so LNS gains twice, then every dive
    fails against the ``best - 1`` cut until the fail count stops it.
    """
    m, engine, _ = _unbeatable(n_jobs)
    starts = {iv: 100 + 10 * k for k, iv in enumerate(m.intervals)}
    incumbent = Solution(starts=starts)
    incumbent.objective = incumbent.evaluate_objective(m)
    assert incumbent.objective == n_jobs
    return m, engine, incumbent


@pytest.mark.parametrize(
    "instance", [_beatable, _unbeatable], ids=["gains", "gainless"]
)
def test_fail_stop_only_truncates_the_parent_loop(instance):
    """The fail count fires first; up to it, the old loop ran the same."""
    params = LnsParams()
    m, engine, incumbent = instance(12)
    best, stats = lns_improve(m, engine, incumbent, math.inf, params, target=0)
    assert stats.lns_stop == "stagnated"

    m, engine, incumbent = instance(12)
    trace = []
    ref_best, ref_stats, gains = _reference_lns(
        m,
        engine,
        incumbent,
        math.inf,
        params,
        0,
        cap=stats.lns_iterations,
        trace=trace,
    )
    assert ref_stats.lns_iterations == stats.lns_iterations
    assert ref_stats.fails == stats.fails
    assert ref_stats.branches == stats.branches
    assert ref_best.objective == best.objective == 10
    assert _starts_by_name(ref_best) == _starts_by_name(best)
    # The fail count ended it, before the iteration count was due.
    assert _fail_stop_due(trace, params)[0] == stats.lns_iterations
    last_gain = gains[-1] if gains else 0
    assert stats.lns_iterations - last_gain < 2 * DEFAULT_RAMP + last_gain
    assert bool(gains) == (instance is _beatable)


def test_fail_stop_ignores_the_clock():
    """A call that stops on fails returns the same under any later deadline."""
    runs = []
    for deadline in (time.perf_counter() + 0.5, math.inf):
        m, engine, incumbent = _unbeatable(12)
        best, stats = lns_improve(m, engine, incumbent, deadline, target=0)
        runs.append((_counts(stats), _starts_by_name(best)))
    assert runs[0] == runs[1]
    assert runs[0][0][:3] == ("stagnated", 27, 1839)


@pytest.mark.parametrize("seed", [1, 3])
def test_no_deadline_still_ends_on_closed_batches(seed):
    """Run to 0 late jobs, which these batches cannot reach, with no deadline."""
    model = _micro_batch_model(seed)
    engine, warm = _warm(model)
    params = LnsParams(seed=seed, fail_limit=50)
    best, stats = lns_improve(model, engine, warm, math.inf, params, target=0)
    assert stats.lns_stop == "stagnated"
    assert best.objective < warm.objective


def test_no_deadline_still_ends_on_open_runs(monkeypatch):
    """Every LNS call of a seeded open run, rerun with no deadline at all.

    Each call is also replayed by the old loop, capped where the new one
    stopped: frozen and movable tasks change nothing about the truncation.
    """
    stops = []

    def unbounded(model, engine, incumbent, deadline, params, jump, target):
        assert jump
        best, stats = lns_improve(
            model, engine, incumbent, math.inf, params, jump, target
        )
        trace = []
        ref_best, ref_stats, _ = _reference_lns(
            model,
            engine,
            incumbent,
            math.inf,
            params,
            target,
            cap=stats.lns_iterations,
            trace=trace,
        )
        assert ref_stats.lns_iterations == stats.lns_iterations
        assert ref_stats.fails == stats.fails
        assert _starts_by_name(ref_best) == _starts_by_name(best)
        fail_stop = stats.lns_iterations in _fail_stop_due(trace, params)
        stops.append((stats.lns_stop, fail_stop))
        return best, stats

    monkeypatch.setattr(cp_solver, "lns_improve", unbounded)
    jobs = SyntheticWorkloadParams(
        num_jobs=12,
        map_tasks_range=(1, 10),
        reduce_tasks_range=(1, 5),
        e_max=20,
        ar_probability=0.0,
        deadline_multiplier_max=1.5,
        arrival_rate=0.2,
    )
    run_once(deterministic_run_config(RunConfig(synthetic=jobs, seed=101)))
    assert stops == [
        ("stagnated", False),
        ("stagnated", False),
        ("stagnated", True),
    ]


@pytest.mark.parametrize(
    "seed, to_zero, lns_seed, fail_limit",
    [
        (1, False, 1, 50),
        (4, False, 4, 50),
        (5, False, 5, 50),
        (6, False, 6, 50),
        (1, True, 1, 50),
        (3, True, 3, 50),
        (5, True, 5, 50),
        (5, False, 0, 300),
    ],
)
def test_fail_stop_never_fires_on_the_micro_lns_seeds(
    seed, to_zero, lns_seed, fail_limit
):
    """On the ``solver_micro_lns`` batches the fail count is never due.

    The instances of :func:`test_stop_only_truncates_the_parent_loop`, and
    the bench case itself (generator seed 5, LNS seed 0, the default fail
    limit).
    """
    params = LnsParams(seed=lns_seed, fail_limit=fail_limit)
    model = _micro_batch_model(seed)
    engine, warm = _warm(model)
    target = 0 if to_zero else warm.objective - max(1, round(0.2 * warm.objective))
    _, stats = lns_improve(model, engine, warm, math.inf, params, target=target)

    model = _micro_batch_model(seed)
    engine, warm = _warm(model)
    trace = []
    _reference_lns(
        model,
        engine,
        warm,
        math.inf,
        params,
        target,
        cap=stats.lns_iterations,
        trace=trace,
    )
    assert len(trace) == stats.lns_iterations
    assert _fail_stop_due(trace, params) == []
