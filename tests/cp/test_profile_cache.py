"""Coherence of TimetableProfile's caches (property-based).

The first query materialises the prefix-sum ``_heights`` array; from then on
``add`` / ``remove`` patch it in place instead of rebuilding it.  These tests
pin that a patched profile can never answer differently from one rebuilt from
scratch, and that ``fit_bounds`` agrees with brute force.

``fit_bounds`` also reads a blocked-run index that ``add`` drops; it must
answer exactly as the per-piece sweep below, which walks the step function
one piece at a time and keeps no index, whatever ``add`` / ``remove`` /
``copy`` came between the queries.
"""

from bisect import bisect_left, bisect_right

from hypothesis import given, settings, strategies as st

from repro.cp.profile import TimetableProfile


def _per_piece_fit_bounds(profile, est, lst, length, demand, capacity):
    """``fit_bounds`` as a piece-by-piece sweep of the step function."""
    if length == 0 or demand == 0:
        return est, lst
    times = profile._times
    n = len(times)
    if not n:
        return est, lst
    heights = profile._height_array()
    limit = capacity - demand
    s = est
    i = max(bisect_right(times, s) - 1, 0)
    while i < n - 1:
        if times[i] >= s + length:
            break
        h = heights[i]
        if h != 0 and h > limit and times[i + 1] > s:
            s = times[i + 1]
            if s > lst:
                return None
        i += 1
    if s > lst:
        return None
    early = s
    s = lst
    i = min(bisect_left(times, s + length) - 1, n - 2)
    while i >= 0:
        if times[i] >= s + length:
            i -= 1
            continue
        if times[i + 1] <= s:
            break
        h = heights[i]
        if h != 0 and h > limit:
            s = times[i] - length
            if s < est:
                return early, s
        i -= 1
    return early, s


def _rebuilt(live):
    fresh = TimetableProfile()
    for s, e, d in live:
        fresh.add(s, e, d)
    return fresh


def _assert_coherent(patched, live):
    """``patched`` reads like a profile rebuilt from the live intervals."""
    fresh = _rebuilt(live)
    probes = {t + dt for t in patched._times + fresh._times for dt in (-1, 0, 1)}
    for t in sorted(probes):
        assert patched.height_at(t) == fresh.height_at(t), t
    assert patched.max_height() == fresh.max_height()


@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 10), st.integers(1, 3)),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=120, deadline=None)
def test_interleaved_adds_and_queries_stay_coherent(ops):
    """Query after every add; compare against a rebuild from scratch."""
    patched = TimetableProfile()
    live = []
    for start, length, demand in ops:
        patched.add(start, start + length, demand)
        live.append((start, start + length, demand))
        _assert_coherent(patched, live)


def test_heights_built_by_first_query_then_patched_in_place():
    p = TimetableProfile()
    p.add(0, 5, 1)
    assert p._heights is None  # nothing asked yet
    assert p.height_at(2) == 1
    first = p._heights
    assert first is not None
    p.add(5, 9, 2)
    p.remove(0, 5, 1)
    assert p._heights is first  # patched, not rebuilt
    _assert_coherent(p, [(5, 9, 2)])


_OPS = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, 40),
        st.integers(1, 10),
        st.integers(1, 3),
    ),
    # remove the i-th live interval (modulo how many there are)
    st.tuples(st.just("remove"), st.integers(0, 30), st.just(0), st.just(0)),
    st.tuples(
        st.just("earliest"),
        st.integers(0, 40),
        st.integers(0, 8),
        st.integers(1, 4),
    ),
    st.tuples(
        st.just("bounds"),
        st.integers(0, 40),
        st.integers(0, 8),
        st.integers(1, 4),
    ),
)


@given(st.lists(_OPS, min_size=1, max_size=30))
@settings(max_examples=120, deadline=None)
def test_add_fit_interleavings_never_serve_stale_segments(ops):
    """Interleave add / remove with fit queries; every answer must match a
    rebuild.  A patch that misses a piece shows up as a fit answer computed
    against the pre-mutation profile."""
    capacity = 4
    patched = TimetableProfile()
    patched.max_height()  # materialise ``_heights`` so every add patches it
    live = []
    for kind, x, length, demand in ops:
        if kind == "add":
            patched.add(x, x + length, demand)
            live.append((x, x + length, demand))
        elif kind == "remove":
            if live:
                patched.remove(*live.pop(x % len(live)))
        else:
            est, lst = x, x + 60
            fresh = _rebuilt(live)
            if kind == "earliest":
                got = patched.earliest_fit(est, lst, length, demand, capacity)
                want = fresh.earliest_fit(est, lst, length, demand, capacity)
            else:
                got = patched.fit_bounds(est, lst, length, demand, capacity)
                want = fresh.fit_bounds(est, lst, length, demand, capacity)
            assert got == want
        _assert_coherent(patched, live)


@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(1, 6), st.integers(1, 3)),
        max_size=8,
    ),
    st.integers(0, 20),
    st.integers(0, 12),
    st.integers(0, 6),
    st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_fit_bounds_equals_brute_force(blocks, est, span, length, demand):
    """(earliest, latest) feasible start in ``[est, lst]``, found instant by
    instant from the raw intervals, is what ``fit_bounds`` returns -- and its
    first component is ``earliest_fit``."""
    capacity = 3
    lst = est + span
    p = TimetableProfile()
    for s, l, d in blocks:
        p.add(s, s + l, d)

    def height(t):
        return sum(d for s, l, d in blocks if s <= t < s + l)

    def fits(start):
        # an empty instant never blocks, whatever the demand
        return all(
            height(t) == 0 or height(t) + demand <= capacity
            for t in range(start, start + length)
        )

    feasible = [s for s in range(est, lst + 1) if fits(s)]
    want = (feasible[0], feasible[-1]) if feasible else None
    assert p.fit_bounds(est, lst, length, demand, capacity) == want
    assert p.earliest_fit(est, lst, length, demand, capacity) == (
        want[0] if want else None
    )


_INDEX_OPS = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 40), st.integers(1, 10), st.integers(1, 3)),
    st.tuples(st.just("remove"), st.integers(0, 30), st.just(0), st.just(0)),
    st.tuples(st.just("copy"), st.just(0), st.just(0), st.just(0)),
    # est and length (0 included); every demand is asked
    st.tuples(st.just("query"), st.integers(0, 50), st.integers(0, 8), st.just(0)),
)


@given(st.lists(_INDEX_OPS, min_size=1, max_size=40), st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_blocked_run_index_answers_like_the_per_piece_sweep(ops, span):
    """Interleave add / remove / copy with queries; the index-driven
    ``fit_bounds`` must equal the per-piece sweep on every query.

    Gaps between intervals are zero-height pieces; ``demand > capacity``
    blocks every non-zero piece; ``span == 0`` is ``est == lst``."""
    capacity = 3
    profile = TimetableProfile()
    live = []
    for kind, x, length, demand in ops:
        if kind == "add":
            profile.add(x, x + length, demand)
            live.append((x, x + length, demand))
        elif kind == "remove":
            if live:
                profile.remove(*live.pop(x % len(live)))
        elif kind == "copy":
            profile = profile.copy()
            assert profile._runs is None  # a copy starts without an index
        else:
            for demand in range(1, capacity + 3):
                for lst in (x + span, x):
                    args = (x, lst, length, demand, capacity)
                    assert profile.fit_bounds(*args) == _per_piece_fit_bounds(
                        profile, *args
                    ), args


def test_add_drops_the_blocked_run_index():
    p = TimetableProfile()
    p.add(0, 4, 1)
    assert p.fit_bounds(0, 20, 3, 1, 1) == (4, 20)  # builds the index
    assert p._runs is not None
    p.add(6, 9, 1)  # a new blocked run the stale index would not know
    assert p._runs is None
    assert p.fit_bounds(0, 20, 3, 1, 1) == (9, 20)
    p.remove(0, 4, 1)
    assert p.fit_bounds(0, 20, 3, 1, 1) == (0, 20)
