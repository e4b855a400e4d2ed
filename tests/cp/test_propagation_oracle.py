"""The incremental propagators against from-scratch references (hypothesis).

``CumulativePropagator`` keeps a trailed profile, a trailed changed-window
envelope and a dirty set, and skips every candidate whose fits provably did
not move.  Whatever it skips, each fixpoint it reaches must be one the
from-scratch time-table rule below agrees with: on the current domains the
rule prunes nothing and finds no overload.  The models are small, sit on a
frozen base, include optional intervals and share tasks between two
resources; the operations are the search's (a decision one level down,
propagate, pop back) plus LNS's relaxation (``widen`` one level down) and
resets.

``DeadlineIndicatorPropagator`` short-circuits once its indicator is
decided; it must prune exactly what the full reification prunes, or fail
where that fails.
"""

from hypothesis import given, settings, strategies as st

from repro.cp.engine import Engine
from repro.cp.errors import Infeasible
from repro.cp.profile import TimetableProfile
from repro.cp.propagators.cumulative import CumulativePropagator
from repro.cp.propagators.lateness import DeadlineIndicatorPropagator
from repro.cp.variables import BoolVar, IntervalVar

#: Instants the reference profile covers (every window ends well before).
HORIZON = 64


# ------------------------------------------------------------- references
def _heights(base, tasks):
    """Per-instant load: the base pulses plus every compulsory part."""
    h = [0] * HORIZON
    for s, e, d in base:
        for t in range(s, e):
            h[t] += d
    for iv, d in tasks:
        if iv.is_present and iv.lst < iv.ect:
            for t in range(iv.lst, iv.ect):
                h[t] += d
    return h


def _reference_pass(base, tasks, capacity):
    """One from-scratch time-table pass, or None when it finds a failure.

    Returns ``{interval: (start min, start max, absent)}`` as the rule
    would leave each interval.
    """
    h = _heights(base, tasks)
    if max(h) > capacity:
        return None
    out = {}
    for iv, d in tasks:
        out[iv] = (iv.est, iv.lst, iv.is_absent)
        if iv.is_absent or (iv.is_present and iv.lst < iv.ect):
            continue
        fits = [
            s
            for s in range(iv.est, iv.lst + 1)
            if all(h[t] + d <= capacity for t in range(s, s + iv.length))
        ]
        if not fits:
            if not iv.is_present:
                out[iv] = (iv.est, iv.lst, True)
                continue
            return None
        if iv.is_present:
            out[iv] = (fits[0], fits[-1], False)
    return out


def _full_reification(tasks, deadline, indicator, engine):
    """``indicator = (max end > deadline)``, propagated without shortcuts."""
    completion_min = max(iv.ect for iv in tasks)
    completion_max = max(iv.lct for iv in tasks)
    if completion_min > deadline:
        indicator.set_true(engine)
    if completion_max <= deadline:
        indicator.set_false(engine)
    if indicator.is_fixed:
        if indicator.value == 0:
            for iv in tasks:
                iv.set_end_max(deadline, engine)
        else:
            late = [iv for iv in tasks if iv.lct > deadline]
            if not late:
                raise Infeasible("no task can end late")
            if len(late) == 1:
                late[0].set_end_min(deadline + 1, engine)


# ------------------------------------------------------------------ models
@st.composite
def resources(draw):
    """Two resources over shared tasks, each on a frozen base."""
    n = draw(st.integers(2, 7))
    tasks = []
    for i in range(n):
        est = draw(st.integers(0, 16))
        tasks.append(
            IntervalVar(
                est,
                est + draw(st.integers(0, 14)),
                draw(st.integers(1, 6)),
                f"t{i}",
                optional=draw(st.booleans()),
            )
        )
    specs = []
    for _ in range(2):
        capacity = draw(st.integers(1, 2))
        base = []
        load = TimetableProfile()
        for _ in range(draw(st.integers(0, 3))):
            s = draw(st.integers(0, 30))
            e = s + draw(st.integers(1, 6))
            d = draw(st.integers(1, capacity))
            load.add(s, e, d)
            if load.max_height() > capacity:  # a committed plan fits
                load.remove(s, e, d)
            else:
                base.append((s, e, d))
        members = [iv for iv in tasks if draw(st.booleans())] or tasks[:1]
        demands = [draw(st.integers(1, capacity)) for _ in members]
        specs.append((capacity, base, list(zip(members, demands))))
    return tasks, specs


OPS = st.lists(
    st.tuples(
        st.sampled_from(["decide", "decide", "relax", "pop", "reset"]),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
    ),
    min_size=8,
    max_size=40,
)


def _build(tasks, specs):
    engine = Engine()
    props = []
    for capacity, base, members in specs:
        profile = TimetableProfile()
        for s, e, d in base:
            profile.add(s, e, d)
        prop = CumulativePropagator(
            [iv for iv, _d in members],
            [d for _iv, d in members],
            capacity,
            base=profile,
        )
        engine.register(prop)
        props.append(prop)
    engine.seal()
    return engine, props


def _decide(iv, engine, a, b):
    """One search-style decision on ``iv``, picked by ``a`` and ``b``."""
    kind = a % 4
    if kind == 3 and not iv.is_present and not iv.is_absent:
        (iv.set_present if b % 2 else iv.set_absent)(engine)
        return
    value = iv.est + b % (iv.lst - iv.est + 1)
    if kind == 0:
        iv.fix_start(value, engine)
    elif kind == 1:
        iv.set_start_min(value, engine)
    else:
        iv.set_start_max(value, engine)


def _state(tasks):
    return [(iv.est, iv.lst, iv.is_present, iv.is_absent) for iv in tasks]


def _assert_fixpoint(tasks, specs, props):
    """Every cumulative is where a from-scratch pass leaves it."""
    for (capacity, base, members), prop in zip(specs, props):
        expected = _reference_pass(base, members, capacity)
        assert expected is not None, "a fixpoint the reference rejects"
        for iv, _d in members:
            assert expected[iv] == (iv.est, iv.lst, iv.is_absent), iv
        # The trailed profile is the base plus the current compulsory parts.
        h = _heights(base, members)
        assert [prop._profile.height_at(t) for t in range(HORIZON)] == h
        assert prop._free == {k for k, p in enumerate(prop._parts) if p is None}


@given(resources(), OPS)
@settings(max_examples=200, deadline=None)
def test_cumulative_fixpoints_match_from_scratch_time_table(model, ops):
    tasks, specs = model
    engine, props = _build(tasks, specs)
    try:
        engine.propagate()
    except Infeasible:
        return  # the root itself fails: nothing below it to check
    _assert_fixpoint(tasks, specs, props)
    root_bounds = {iv: (iv.est, iv.lst) for iv in tasks}
    saved = [_state(tasks)]  # the fixpoint at each open level
    for op, a, b in ops:
        if op == "pop":
            if len(saved) > 1:
                engine.trail.pop_level()
                saved.pop()
                assert _state(tasks) == saved[-1]
        elif op == "reset":
            engine.reset()
            try:
                engine.propagate()
            except Infeasible:
                return  # unreachable: the same root propagated above
            saved = [_state(tasks)]
            root_bounds = {iv: (iv.est, iv.lst) for iv in tasks}
        else:
            iv = tasks[a % len(tasks)]
            if iv.is_absent:
                continue
            engine.trail.push_level()
            try:
                if op == "relax":
                    lo, hi = root_bounds[iv]
                    iv.start.widen(lo, hi, engine)
                else:
                    _decide(iv, engine, a, b)
                engine.propagate()
            except Infeasible:
                # A failed node: back to the level it was tried from.
                engine.trail.pop_level()
                engine.clear_queue()
                assert _state(tasks) == saved[-1]
            else:
                saved.append(_state(tasks))
        _assert_fixpoint(tasks, specs, props)


def test_pop_then_repropagate_calls_no_fit(monkeypatch):
    """A backtrack restores the envelope: re-propagating owes no sweep."""
    a = IntervalVar(0, 10, 5, "a")
    b = IntervalVar(0, 20, 3, "b")
    c = IntervalVar(0, 30, 4, "c")
    engine = Engine()
    prop = CumulativePropagator([a, b, c], [1, 1, 1], 2)
    engine.register(prop)
    engine.seal()
    engine.propagate()

    calls = []
    fit_bounds = TimetableProfile.fit_bounds

    def counted(self, *args):
        calls.append(args)
        return fit_bounds(self, *args)

    monkeypatch.setattr(TimetableProfile, "fit_bounds", counted)
    engine.trail.push_level()
    a.fix_start(2, engine)  # a grows a compulsory part [2, 7)
    engine.propagate()
    assert calls  # the grown part is swept against b and c
    engine.trail.pop_level()
    engine.clear_queue()
    del calls[:]
    engine.schedule(prop)
    engine.propagate()
    assert calls == []
    assert (a.est, a.lst, b.est, b.lst, c.est, c.lst) == (0, 10, 0, 20, 0, 30)


def test_growth_inside_an_optional_window_is_swept():
    """An optional candidate's bounds are not fits: only its window counts.

    The envelope misses both end placements of ``o`` but covers its last
    gap, so the per-end skip that is exact for present candidates would
    leave ``o`` possible with nowhere to go.
    """
    base = TimetableProfile()
    base.add(0, 4, 1)
    base.add(8, 12, 1)
    o = IntervalVar(0, 10, 2, "o", optional=True)
    a = IntervalVar(4, 8, 2, "a")
    engine = Engine()
    engine.register(CumulativePropagator([o, a], [1, 1], 1, base=base))
    engine.seal()
    engine.propagate()
    assert not o.is_absent and (a.est, a.lst) == (4, 6)
    engine.trail.push_level()
    a.fix_start(5, engine)  # a's part [5, 7) leaves o no 2-long gap
    engine.propagate()
    assert o.is_absent


# -------------------------------------------------------------- indicators
@st.composite
def indicator_cases(draw):
    n = draw(st.integers(1, 4))
    windows = []
    for _ in range(n):
        est = draw(st.integers(0, 20))
        windows.append((est, est + draw(st.integers(0, 10)), draw(st.integers(1, 8))))
    return windows, draw(st.integers(0, 35)), draw(st.sampled_from([None, 0, 1]))


def _indicator_model(windows, state):
    engine = Engine()
    tasks = [IntervalVar(lo, hi, n, f"t{i}") for i, (lo, hi, n) in enumerate(windows)]
    indicator = BoolVar("late")
    engine.seal()
    if state is not None:
        indicator.domain.fix(state, engine)
    return engine, tasks, indicator


def _outcome(run, tasks, indicator):
    try:
        run()
    except Infeasible:
        return "infeasible"
    return [(iv.est, iv.lst) for iv in tasks], (
        indicator.domain.min,
        indicator.domain.max,
    )


@given(indicator_cases())
@settings(max_examples=300, deadline=None)
def test_indicator_shortcut_prunes_like_the_full_reification(case):
    windows, deadline, state = case
    engine, tasks, indicator = _indicator_model(windows, state)
    prop = DeadlineIndicatorPropagator(tasks, deadline, indicator)
    got = _outcome(lambda: prop.propagate(engine), tasks, indicator)

    engine, tasks, indicator = _indicator_model(windows, state)
    want = _outcome(
        lambda: _full_reification(tasks, deadline, indicator, engine),
        tasks,
        indicator,
    )
    assert got == want
