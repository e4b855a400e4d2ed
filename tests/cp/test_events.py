"""Per-event wake lists, dirty tokens, and the trail/stamp save invariant.

The event system's contract (ISSUE 9 tentpole):

* a propagator subscribed to one event kind is woken only by that kind,
* FIX fires *in addition to* the bound event that caused it,
* dirty tokens are recorded on every wake -- including self-inflicted ones,
  whose re-enqueue is suppressed, and
* ``IntDomain._restore`` resets ``_stamp`` so a domain restored by
  backtracking can never skip a needed trail save (property-tested below).
"""

from hypothesis import given, settings, strategies as st

from repro.cp.domain import (
    ANY_EVENT,
    FIX_EVENT,
    MAX_EVENT,
    MIN_EVENT,
    IntDomain,
)
from repro.cp.engine import Engine
from repro.cp.propagators.base import Propagator


class _Recorder(Propagator):
    """Propagator that records nothing and propagates nothing."""

    def propagate(self, engine):
        pass

    def watches(self):
        return ()


def _engine():
    eng = Engine()
    return eng


# ------------------------------------------------------------ wake routing
def test_min_watcher_ignores_max_changes():
    eng = _engine()
    d = IntDomain(0, 10, "d")
    p = _Recorder("p")
    d.watch(p, MIN_EVENT)
    d.set_max(8, eng)
    assert not p.queued
    d.set_min(2, eng)
    assert p.queued


def test_max_watcher_ignores_min_changes():
    eng = _engine()
    d = IntDomain(0, 10, "d")
    p = _Recorder("p")
    d.watch(p, MAX_EVENT)
    d.set_min(3, eng)
    assert not p.queued
    d.set_max(7, eng)
    assert p.queued


def test_fix_watcher_woken_only_on_singleton():
    eng = _engine()
    d = IntDomain(0, 10, "d")
    p = _Recorder("p")
    d.watch(p, FIX_EVENT)
    d.set_min(4, eng)
    d.set_max(6, eng)
    assert not p.queued  # bounds moved, domain still has 3 values
    d.set_min(6, eng)  # singleton via the lower bound
    assert p.queued


def test_fix_fires_in_addition_to_bound_event():
    eng = _engine()
    d = IntDomain(0, 10, "d")
    on_min = _Recorder("on_min")
    on_fix = _Recorder("on_fix")
    d.watch(on_min, MIN_EVENT)
    d.watch(on_fix, FIX_EVENT)
    d.set_min(10, eng)  # one mutation, singleton immediately
    assert on_min.queued and on_fix.queued


def test_fix_via_fix_method_wakes_both_bound_watchers():
    eng = _engine()
    d = IntDomain(0, 10, "d")
    p = _Recorder("p")
    d.watch(p, ANY_EVENT)
    d.fix(5, eng)
    assert p.queued


def test_subscription_lists_created_lazily():
    d = IntDomain(0, 10, "d")
    assert d.on_min is None and d.on_max is None and d.on_fix is None
    p = _Recorder("p")
    d.watch(p, MIN_EVENT)
    assert d.on_min == [(p, None)]
    assert d.on_max is None and d.on_fix is None  # untouched masks stay lazy


def test_widen_wakes_every_event_kind_and_is_trailed():
    """Relaxing a bound invalidates watchers of *either* bound.

    A barrier listens on a task's MIN only, yet it also writes the task's
    max: after a widen that write has to be redone, so the wake cannot be
    typed by which bound moved.
    """
    eng = _engine()
    eng.trail.push_level()
    d = IntDomain(0, 10, "d")
    d.fix(4, eng)
    masks = (MIN_EVENT, MAX_EVENT, FIX_EVENT)
    watchers = [_Recorder(f"p{mask}") for mask in masks]
    for p, mask in zip(watchers, masks):
        d.watch(p, mask, token=mask)
    eng.trail.push_level()
    d.widen(4, 4, eng)  # same bounds: nothing to save, nobody to wake
    assert len(eng.trail) == 1 and not any(p.queued for p in watchers)
    d.widen(2, 9, eng)
    assert (d.min, d.max) == (2, 9)
    assert all(p.queued and p._dirty == {mask} for p, mask in zip(watchers, masks))
    eng.trail.pop_level()
    assert (d.min, d.max) == (4, 4)


# --------------------------------------------------------- dirty tokens
def test_dirty_token_recorded_on_wake():
    eng = _engine()
    d = IntDomain(0, 10, "d")
    p = _Recorder("p")
    d.watch(p, MIN_EVENT, token=17)
    d.set_min(1, eng)
    assert 17 in p._dirty


def test_self_wake_suppressed_but_token_recorded():
    """The active propagator's own prune records its token, skips the queue."""
    eng = _engine()
    d = IntDomain(0, 10, "d")
    p = _Recorder("p")
    d.watch(p, MIN_EVENT, token="me")
    eng.active = p  # as if p were executing
    d.set_min(1, eng)
    assert "me" in p._dirty
    assert not p.queued
    eng.active = None
    d.set_min(2, eng)  # not the cause any more: normal wake
    assert p.queued


def test_explicit_cause_overrides_active():
    eng = _engine()
    d = IntDomain(0, 10, "d")
    p = _Recorder("p")
    d.watch(p, MIN_EVENT)
    d._save(eng)
    d._min = 3
    eng.wake(d.on_min, cause=p)
    assert not p.queued


# ------------------------------------------- trail/stamp save invariant
@st.composite
def _ops(draw):
    """A random push/pop/tighten/fix script over two domains."""
    n = draw(st.integers(1, 40))
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(["push", "pop", "min", "max"]))
        out.append(
            (kind, draw(st.integers(0, 1)), draw(st.integers(0, 20)))
        )
    return out


@given(_ops())
@settings(max_examples=200, deadline=None)
def test_push_pop_tighten_never_skips_a_save(ops):
    """Bounds after every pop equal a model kept with explicit snapshots.

    ``Trail.magic`` is monotone while ``IntDomain._restore`` resets
    ``_stamp = 0``; if a restored domain ever kept a stale stamp equal to
    the current magic, its next tightening would skip the trail save and
    backtracking would silently lose the old bounds.  The snapshot model
    has no stamps at all, so any skipped save shows up as a divergence.
    """
    eng = _engine()
    doms = [IntDomain(0, 20, "a"), IntDomain(0, 20, "b")]
    eng.trail.push_level()  # root guard: record() is a no-op at level 0
    snapshots = [[(d._min, d._max) for d in doms]]
    for kind, which, v in ops:
        d = doms[which]
        if kind == "push":
            eng.trail.push_level()
            snapshots.append([(x._min, x._max) for x in doms])
        elif kind == "pop":
            if len(snapshots) > 1:
                eng.trail.pop_level()
                expect = snapshots.pop()
                assert [(x._min, x._max) for x in doms] == expect
        elif kind == "min":
            if d._min < v <= d._max:
                d.set_min(v, eng)
        elif kind == "max":
            if d._min <= v < d._max:
                d.set_max(v, eng)
    while len(snapshots) > 1:
        eng.trail.pop_level()
        expect = snapshots.pop()
        assert [(x._min, x._max) for x in doms] == expect
