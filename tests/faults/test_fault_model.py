"""Unit tests for FaultModel / OutageWindow / FaultInjector."""

import pytest

from repro.faults import AttemptOutcome, FaultInjector, FaultModel, OutageWindow
from repro.workload.entities import Resource

from tests.conftest import make_task


# ------------------------------------------------------------- validation
def test_default_model_is_inert():
    m = FaultModel()
    assert not m.enabled


@pytest.mark.parametrize(
    "kwargs",
    [
        {"task_failure_prob": 0.1},
        {"straggler_prob": 0.2},
        {"jitter_sigma": 0.1},
        {"outages": (OutageWindow(0, 10.0, 5.0),)},
        {"outage_rate": 0.01, "outage_duration_range": (1.0, 5.0),
         "outage_horizon": 100.0},
    ],
)
def test_any_knob_enables_the_model(kwargs):
    assert FaultModel(**kwargs).enabled


@pytest.mark.parametrize(
    "kwargs",
    [
        {"task_failure_prob": -0.1},
        {"task_failure_prob": 1.5},
        {"straggler_prob": 2.0},
        {"straggler_factor": 0.0},
        {"jitter_sigma": -1.0},
        {"outage_rate": -0.5},
        {"outage_rate": 0.1},  # missing duration range + horizon
        {"outage_rate": 0.1, "outage_duration_range": (5.0, 1.0),
         "outage_horizon": 10.0},
    ],
)
def test_invalid_models_rejected(kwargs):
    with pytest.raises(ValueError):
        FaultModel(**kwargs)


def test_outage_window_validation():
    with pytest.raises(ValueError):
        OutageWindow(0, -1.0, 5.0)
    with pytest.raises(ValueError):
        OutageWindow(0, 1.0, 0.0)
    assert OutageWindow(3, 10.0, 5.0).end == 15.0


# --------------------------------------------------------------- injector
def _injector(model, n_resources=2):
    return FaultInjector(model, [Resource(i, 2, 2) for i in range(n_resources)])


def test_inert_model_never_perturbs():
    inj = _injector(FaultModel())
    task = make_task("t0_m0", duration=7)
    for _ in range(50):
        out = inj.attempt_outcome(task)
        assert out == AttemptOutcome(duration=7, fails_after=None)
        assert not out.fails
    assert inj.outage_windows() == []


def test_failure_point_strictly_inside_attempt():
    inj = _injector(FaultModel(task_failure_prob=1.0))
    task = make_task("t0_m0", duration=9)
    for _ in range(50):
        out = inj.attempt_outcome(task)
        assert out.fails
        assert 0.0 <= out.fails_after < out.duration


def test_straggler_scales_nominal_not_previous_attempt():
    """Perturbation draws against the nominal duration, so retries never
    compound the straggler factor."""
    inj = _injector(FaultModel(straggler_prob=1.0, straggler_factor=2.0))
    task = make_task("t0_m0", duration=6)
    first = inj.attempt_outcome(task)
    assert first.duration == 12
    # Simulate the executor mutating the task after the straggler draw.
    task.nominal_duration = 6
    task.duration = first.duration
    second = inj.attempt_outcome(task)
    assert second.duration == 12  # 2 * nominal, not 2 * 12


def test_injector_draws_reproducible_across_instances():
    model = FaultModel(task_failure_prob=0.3, straggler_prob=0.3, seed=42)
    a, b = _injector(model), _injector(model)
    tasks = [make_task(f"t0_m{i}", duration=5 + i) for i in range(20)]
    assert [a.attempt_outcome(t) for t in tasks] == [
        b.attempt_outcome(t) for t in tasks
    ]


def test_explicit_outages_pass_through_sorted():
    w1, w2 = OutageWindow(1, 50.0, 5.0), OutageWindow(0, 10.0, 5.0)
    inj = _injector(FaultModel(outages=(w1, w2)))
    assert inj.outage_windows() == [w2, w1]


def test_random_outages_deterministic_and_non_overlapping_per_resource():
    model = FaultModel(
        outage_rate=0.05,
        outage_duration_range=(2.0, 10.0),
        outage_horizon=200.0,
        seed=7,
    )
    windows = _injector(model, n_resources=3).outage_windows()
    assert windows == _injector(model, n_resources=3).outage_windows()
    assert windows, "rate 0.05 over 200s x 3 resources should draw something"
    by_resource = {}
    for w in windows:
        by_resource.setdefault(w.resource_id, []).append(w)
        assert 0.0 <= w.start < 200.0
        assert 2.0 <= w.duration <= 10.0
    for ws in by_resource.values():
        for earlier, later in zip(ws, ws[1:]):
            assert later.start >= earlier.end  # recovery-gap semantics
