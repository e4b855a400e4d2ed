"""TimetableProfile: step-function bookkeeping and fit queries."""

from repro.cp.profile import TimetableProfile


def _pieces(p, horizon=30):
    """Maximal non-zero constant-height pieces ``(start, end, height)`` over
    ``[0, horizon)``, read instant by instant through ``height_at``."""
    out = []
    for t in range(horizon):
        h = p.height_at(t)
        if h == 0:
            continue
        if out and out[-1][1] == t and out[-1][2] == h:
            out[-1] = (out[-1][0], t + 1, h)
        else:
            out.append((t, t + 1, h))
    return out


def test_empty_profile():
    p = TimetableProfile()
    assert _pieces(p) == []
    assert p.max_height() == 0
    assert p.height_at(5) == 0


def test_single_interval():
    p = TimetableProfile()
    p.add(2, 7, 3)
    assert _pieces(p) == [(2, 7, 3)]
    assert p.height_at(2) == 3
    assert p.height_at(6) == 3
    assert p.height_at(7) == 0
    assert p.max_height() == 3


def test_overlapping_intervals_stack():
    p = TimetableProfile()
    p.add(0, 10, 1)
    p.add(5, 15, 2)
    assert _pieces(p) == [(0, 5, 1), (5, 10, 3), (10, 15, 2)]
    assert p.max_height() == 3


def test_adjacent_intervals_merge_heights():
    p = TimetableProfile()
    p.add(0, 5, 2)
    p.add(5, 10, 2)
    # equal-height adjacent pieces coalesce (cancelling deltas at t=5)
    assert _pieces(p) == [(0, 10, 2)]
    assert p.height_at(5) == 2


def test_zero_demand_and_zero_length_ignored():
    p = TimetableProfile()
    p.add(0, 5, 0)
    p.add(3, 3, 4)
    assert _pieces(p) == []


def test_cancelling_deltas_cleanup():
    p = TimetableProfile()
    p.add(0, 10, 2)
    p.add(10, 20, 2)  # +2 at 10 cancels -2 at 10
    assert p.height_at(10) == 2


def test_copy_is_the_same_step_function_and_independent():
    p = TimetableProfile()
    p.add(2, 8, 1)
    p.add(5, 9, 2)
    p.height_at(0)  # materialise the prefix sums of the original
    twin = p.copy()
    assert _pieces(twin) == _pieces(p) == [(2, 5, 1), (5, 8, 3), (8, 9, 2)]
    twin.add(0, 3, 1)
    p.remove(5, 9, 2)
    assert _pieces(twin) == [(0, 2, 1), (2, 3, 2), (3, 5, 1), (5, 8, 3), (8, 9, 2)]
    assert _pieces(p) == [(2, 8, 1)]


def test_earliest_fit_empty_profile():
    p = TimetableProfile()
    assert p.earliest_fit(est=3, lst=10, length=5, demand=1, capacity=1) == 3


def test_earliest_fit_pushes_past_full_region():
    p = TimetableProfile()
    p.add(0, 10, 1)
    assert p.earliest_fit(0, 20, 5, 1, 1) == 10
    # capacity 2: fits immediately on top
    assert p.earliest_fit(0, 20, 5, 1, 2) == 0


def test_earliest_fit_lands_in_gap():
    p = TimetableProfile()
    p.add(0, 4, 1)
    p.add(10, 14, 1)
    assert p.earliest_fit(0, 20, 5, 1, 1) == 4
    # too long for the gap [4, 10) -> pushed past the second block
    assert p.earliest_fit(0, 20, 7, 1, 1) == 14


def test_earliest_fit_none_when_window_too_tight():
    p = TimetableProfile()
    p.add(0, 10, 1)
    assert p.earliest_fit(0, 4, 5, 1, 1) is None


def test_fit_bounds_latest_mirrors_earliest():
    p = TimetableProfile()
    p.add(5, 10, 1)
    # window allows up to start 20; [0, 5) and [20, 25) are both free
    assert p.fit_bounds(0, 20, 5, 1, 1) == (0, 20)
    # window capped at 8 -> must end by 13; block [5,10) forces start 0
    assert p.fit_bounds(0, 8, 5, 1, 1) == (0, 0)
    # impossible window
    assert p.fit_bounds(3, 8, 5, 1, 1) is None


def test_fit_zero_length_always_fits():
    p = TimetableProfile()
    p.add(0, 10, 5)
    assert p.earliest_fit(2, 8, 0, 1, 1) == 2
    assert p.fit_bounds(2, 8, 0, 1, 1) == (2, 8)


def test_fit_start_inside_block():
    p = TimetableProfile()
    p.add(0, 10, 1)
    assert p.earliest_fit(5, 20, 3, 1, 1) == 10
    assert p.fit_bounds(5, 20, 3, 1, 1) == (10, 20)
    assert p.fit_bounds(0, 5, 3, 1, 1) is None


def test_multi_level_fit():
    p = TimetableProfile()
    p.add(0, 10, 2)
    p.add(3, 6, 1)  # height 3 over [3, 6)
    assert p.earliest_fit(0, 20, 2, 1, 3) == 0  # fits before the bump
    assert p.earliest_fit(2, 20, 2, 1, 3) == 6  # bump at [3,6) blocks
