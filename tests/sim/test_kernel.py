"""Simulation kernel: ordering, cancellation, priorities."""

import pytest

from repro.sim.kernel import (
    PRIORITY_ACQUIRE,
    PRIORITY_DEFAULT,
    PRIORITY_RELEASE,
    Simulator,
)

from tests.conftest import run_until


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(5, lambda: log.append("b"))
    sim.schedule(2, lambda: log.append("a"))
    sim.schedule(9, lambda: log.append("c"))
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 9


def test_same_time_fifo_within_priority():
    sim = Simulator()
    log = []
    for tag in "abc":
        sim.schedule(3, lambda t=tag: log.append(t))
    sim.run()
    assert log == ["a", "b", "c"]


def test_priority_classes_order_same_timestamp():
    sim = Simulator()
    log = []
    sim.schedule(1, lambda: log.append("acquire"), PRIORITY_ACQUIRE)
    sim.schedule(1, lambda: log.append("default"), PRIORITY_DEFAULT)
    sim.schedule(1, lambda: log.append("release"), PRIORITY_RELEASE)
    sim.run()
    assert log == ["release", "default", "acquire"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    log = []
    handle = sim.schedule(3, lambda: log.append("no"))
    sim.schedule(1, lambda: handle.cancel())
    sim.run()
    assert log == []


def test_events_scheduled_during_run():
    sim = Simulator()
    log = []

    def chain(n):
        log.append(n)
        if n < 3:
            sim.schedule(1, lambda: chain(n + 1))

    sim.schedule(0, lambda: chain(0))
    sim.run()
    assert log == [0, 1, 2, 3]
    assert sim.now == 3


def test_step_and_peek():
    sim = Simulator()
    sim.schedule(4, lambda: None)
    sim.schedule(7, lambda: None)
    assert sim.peek() == 4
    assert sim.step()
    assert sim.peek() == 7
    assert sim.step()
    assert not sim.step()


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    h1.cancel()
    assert sim.pending == 1


def test_peek_after_cancel_matches_run_behaviour():
    """peek() and step() must agree on which event is next."""
    sim = Simulator()
    log = []
    h = sim.schedule_at(2, lambda: log.append("a"))
    sim.schedule_at(4, lambda: log.append("b"))
    h.cancel()
    assert sim.peek() == 4
    assert sim.step() and sim.now == 4
    assert log == ["b"]
    assert sim.peek() is None


def test_cancel_between_run_segments():
    sim = Simulator()
    log = []
    sim.schedule_at(1, lambda: log.append(1))
    later = sim.schedule_at(10, lambda: log.append(10))
    assert sim.step()
    later.cancel()
    sim.run()
    assert log == [1]
    assert sim.now == 1  # nothing live remained; clock stays put


def test_same_time_and_priority_fire_in_scheduling_order():
    """(time, priority) ties resolve by scheduling order, also for events
    scheduled from callbacks and interleaved with other priorities."""
    sim = Simulator()
    log = []
    for tag in "abc":
        sim.schedule_at(5, lambda t=tag: log.append(t), PRIORITY_ACQUIRE)
        sim.schedule_at(5, lambda t=tag: log.append(t.upper()), PRIORITY_RELEASE)

    def late():
        log.append("late")
        sim.schedule_at(5, lambda: log.append("d"), PRIORITY_ACQUIRE)

    sim.schedule_at(5, late, PRIORITY_DEFAULT)
    sim.run()
    assert log == ["A", "B", "C", "late", "a", "b", "c", "d"]


def test_handles_are_never_compared():
    """The calendar orders (time, priority, seq) keys; a handle is an
    opaque cancel token with no ordering of its own."""
    sim = Simulator()
    h1 = sim.schedule_at(1, lambda: None)
    h2 = sim.schedule_at(1, lambda: None)
    with pytest.raises(TypeError):
        h1 < h2
    sim.run()
    assert sim.dispatched == 2


def test_cancelled_head_at_the_same_instant_does_not_fire_or_decide_run():
    sim = Simulator()
    log = []
    head = sim.schedule_at(3, lambda: log.append("cancelled"))
    sim.schedule_at(3, lambda: log.append("live"))
    far = sim.schedule_at(20, lambda: log.append("far"))
    head.cancel()
    far.cancel()
    assert sim.run() == 3
    assert log == ["live"]
    assert sim.pending == 0 and sim.peek() is None


def test_peek_and_pending_see_only_live_events():
    sim = Simulator()
    handles = [sim.schedule_at(t, lambda: None) for t in (1, 2, 2, 4)]
    handles[0].cancel()
    handles[2].cancel()
    assert sim.pending == 2
    assert sim.peek() == 2
    handles[1].cancel()
    assert sim.peek() == 4
    assert sim.pending == 1


def test_step_skips_cancelled_events():
    sim = Simulator()
    log = []
    sim.schedule_at(1, lambda: log.append(1)).cancel()
    sim.schedule_at(2, lambda: log.append(2))
    sim.schedule_at(3, lambda: log.append(3)).cancel()
    assert sim.step() and log == [2] and sim.now == 2
    assert not sim.step()
    assert log == [2] and sim.now == 2 and sim.dispatched == 1


def test_state_digest_of_a_scripted_run():
    """Pinned values: the calendar's entry layout must not move them."""
    sim = Simulator()
    for t in (1, 2, 3, 5, 8):
        sim.schedule_at(t, lambda: None)
    cancelled = sim.schedule_at(4, lambda: None)
    sim.schedule_at(2, lambda: sim.schedule(10, lambda: None))
    cancelled.cancel()
    run_until(sim, 5)
    assert sim.state_digest() == {"now": 5, "dispatched": 5, "seq": 8, "pending": 2}
