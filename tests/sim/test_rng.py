"""Random streams: reproducibility, independence, distribution sanity."""

import json
import math

import pytest

from repro.sim.rng import RandomStreams


def test_same_seed_same_stream():
    a = RandomStreams(42).distributions("x")
    b = RandomStreams(42).distributions("x")
    assert [a.du(0, 100) for _ in range(20)] == [b.du(0, 100) for _ in range(20)]


def test_different_names_differ():
    s = RandomStreams(42)
    a = [s.distributions("a").du(0, 10 ** 6) for _ in range(5)]
    b = [s.distributions("b").du(0, 10 ** 6) for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RandomStreams(1).distributions("x")
    b = RandomStreams(2).distributions("x")
    assert [a.du(0, 10 ** 6) for _ in range(5)] != [
        b.du(0, 10 ** 6) for _ in range(5)
    ]


def test_generator_cached_per_name():
    s = RandomStreams(0)
    assert s.generator("x") is s.generator("x")


def test_du_bounds_inclusive():
    d = RandomStreams(3).distributions("x")
    values = {d.du(2, 4) for _ in range(300)}
    assert values == {2, 3, 4}


def test_du_empty_range_rejected():
    d = RandomStreams(0).distributions("x")
    with pytest.raises(ValueError):
        d.du(5, 4)


def test_uniform_bounds():
    d = RandomStreams(1).distributions("x")
    for _ in range(100):
        v = d.uniform(1.0, 2.0)
        assert 1.0 <= v <= 2.0


def test_bernoulli_extremes():
    d = RandomStreams(1).distributions("x")
    assert all(not d.bernoulli(0.0) for _ in range(50))
    assert all(d.bernoulli(1.0) for _ in range(50))
    with pytest.raises(ValueError):
        d.bernoulli(1.5)


def test_exponential_rate_mean():
    d = RandomStreams(5).distributions("x")
    n = 4000
    mean = sum(d.exponential_rate(0.01) for _ in range(n)) / n
    assert mean == pytest.approx(100.0, rel=0.1)
    with pytest.raises(ValueError):
        d.exponential_rate(0.0)


def test_lognormal_parameterised_by_variance():
    # LN(mu, sigma^2): mean = exp(mu + sigma^2/2).  Facebook map times.
    mu, var = 9.9511, 1.6764
    d = RandomStreams(11).distributions("x")
    n = 20000
    mean = sum(d.lognormal(mu, var) for _ in range(n)) / n
    expected = math.exp(mu + var / 2.0)
    assert mean == pytest.approx(expected, rel=0.15)
    with pytest.raises(ValueError):
        d.lognormal(1.0, -0.1)


def test_weighted_choice_distribution():
    d = RandomStreams(2).distributions("x")
    items = ["a", "b"]
    counts = {"a": 0, "b": 0}
    for _ in range(2000):
        counts[d.choice(items, [9, 1])] += 1
    assert counts["a"] > counts["b"] * 4


def test_choice_argument_validation():
    d = RandomStreams(0).distributions("x")
    with pytest.raises(ValueError):
        d.choice(["a"], [1, 2])
    with pytest.raises(ValueError):
        d.choice(["a", "b"], [0, 0])


def test_du_of_one_value_draws_nothing():
    d = RandomStreams(4).distributions("x")
    d.du(0, 9)  # a 32-bit draw: the other half word is now buffered
    before = d.gen.state_dict()
    assert [d.du(7, 7) for _ in range(10)] == [7] * 10
    assert d.gen.state_dict() == before


def test_du_rejects_ranges_beyond_int64():
    d = RandomStreams(0).distributions("x")
    with pytest.raises(ValueError):
        d.du(-(2**63) - 1, 0)
    with pytest.raises(ValueError):
        d.du(0, 2**63)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomStreams(-1).generator("x")


@pytest.mark.parametrize("weights", [[1.0, -0.5, 2.0], [1.0, float("nan"), 1.0]])
def test_choice_rejects_negative_or_nan_weights(weights):
    d = RandomStreams(0).distributions("x")
    with pytest.raises(ValueError):
        d.choice(["a", "b", "c"], weights)


def test_permutation_is_a_permutation():
    d = RandomStreams(6).distributions("x")
    order = d.permutation(500)
    assert sorted(order) == list(range(500)) and order != list(range(500))
    assert d.permutation(0) == [] and d.permutation(1) == [0]


def test_state_dict_is_plain_json():
    streams = RandomStreams(3)
    streams.distributions("b").uniform(0.0, 1.0)
    streams.distributions("a").du(1, 6)
    state = streams.state_dict()
    assert list(state) == ["a", "b"]
    assert json.loads(json.dumps(state)) == state
    assert state["a"]["bit_generator"] == "PCG64"
    assert state["a"]["has_uint32"] == 1 and state["b"]["has_uint32"] == 0
