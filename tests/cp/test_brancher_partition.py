"""The brancher's per-search partition against a full scan of every interval."""

import random

import pytest

from repro.cp import CpModel
from repro.cp.errors import Infeasible
from repro.cp.search import SearchLimits, SetTimesBrancher, tree_search
from repro.cp.variables import IntervalVar


def _full_scan(model, jump):
    """``(chosen, est, nxt)`` by two scans over every interval: the oracle.

    This is what ``_choose_start`` did before it partitioned the scan.
    """
    chosen = key = None
    for iv in model.intervals:
        if iv.est == iv.lst:
            continue
        candidate = (iv.est, iv.lst - iv.est, iv.lct)
        if key is None or candidate < key:
            chosen, key = iv, candidate
    if chosen is None:
        return None
    est = chosen.est
    nxt = est + 1
    if jump:
        # Absent intervals are left out: their ect is meaningless.
        ects = [
            other.ect
            for other in model.intervals
            if other is not chosen and not other.is_absent and other.ect > est
        ]
        if ects:
            nxt = max(nxt, min(ects))
    return chosen, est, nxt


def _partitioned(brancher, engine):
    """The same triple, read off the decision ``_choose_start`` built."""
    decision = brancher._choose_start(engine)
    if decision is None:
        return None
    left, right = decision
    (chosen, est), (same, nxt) = left.__defaults__, right.__defaults__
    assert same is chosen
    return chosen, est, nxt


def _random_model(seed):
    """Tasks on one resource, some frozen, some behind a precedence.

    ``model.intervals`` normally holds mandatory intervals only; two
    optional ones are appended by hand so the scan's presence test runs.
    """
    rng = random.Random(seed)
    m = CpModel(horizon=120)
    tasks = [
        m.interval_var(length=rng.randint(1, 9), est=rng.randint(0, 20), name=f"t{i}")
        for i in range(rng.randint(5, 10))
    ]
    for a, b in zip(tasks[:2], tasks[2:4]):
        m.add_end_before_start(a, b)
    tasks += [
        m.fixed_interval(start=rng.randint(0, 40), length=rng.randint(1, 6))
        for _ in range(3)
    ]
    m.add_cumulative(tasks, capacity=3)
    early = rng.randint(3, 15)
    optionals = [
        IntervalVar(early, early, rng.randint(1, 9), name="opt0", optional=True),
        IntervalVar(0, 60, rng.randint(1, 9), name="opt1", optional=True),
    ]
    m.intervals.extend(optionals)
    return m, optionals


@pytest.mark.parametrize("jump", [True, False], ids=["jump", "complete"])
@pytest.mark.parametrize("seed", range(10))
def test_partitioned_choice_equals_full_scan_on_random_walks(seed, jump):
    m, optionals = _random_model(seed)
    rng = random.Random(seed)
    engine = m.engine()
    engine.reset()
    engine.propagate()
    optionals[0].set_absent(engine)  # decided and absent at the partition
    brancher = SetTimesBrancher(m, jump=jump)
    brancher.partition()
    compared = 0
    for step in range(40):
        expected = _full_scan(m, jump)
        assert _partitioned(brancher, engine) == expected
        compared += 1
        if expected is None:
            break
        if step == 5:
            optionals[1].set_absent(engine)  # absent below the partition
        left, right = brancher._choose_start(engine)
        engine.trail.push_level()
        try:
            (left if rng.random() < 0.6 else right)(engine)
            engine.propagate()
        except Infeasible:
            engine.trail.pop_level()
            engine.clear_queue()
    assert compared > 5


def test_one_brancher_repartitions_for_every_search():
    """LNS shares one brancher across dives whose roots differ."""
    m, _ = _random_model(3)
    del m.intervals[-2:]  # the hand-made optionals have no propagator
    engine = m.engine()
    limits = SearchLimits.from_budget(fail_limit=100)
    engine.reset()
    fresh = tree_search(m, engine, SetTimesBrancher(m), limits)
    assert fresh.best is not None

    shared = SetTimesBrancher(m)
    movable = [iv for iv in m.intervals if iv.est != iv.lst]
    engine.reset()
    engine.trail.push_level()
    for iv in movable[:4]:  # a root at which these are decided ...
        iv.fix_start(fresh.best.starts[iv], engine)
    pinned = tree_search(m, engine, shared, limits)
    assert pinned.best is not None
    engine.reset()  # ... and one at which they are open again
    again = tree_search(m, engine, shared, limits)
    assert again.best.starts == fresh.best.starts
    assert (again.stats.branches, again.stats.fails) == (
        fresh.stats.branches,
        fresh.stats.fails,
    )


def test_bare_choose_partitions_lazily():
    """``choose`` outside ``tree_search`` still sees every open interval."""
    m, _ = _random_model(4)
    engine = m.engine()
    engine.reset()
    engine.propagate()
    brancher = SetTimesBrancher(m)
    assert brancher.choose(engine) is not None
    assert _partitioned(brancher, engine) == _full_scan(m, jump=True)
