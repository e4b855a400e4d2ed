"""The quote ladder's accounting, pinned on a seeded chaos stream.

Two injected ``cp_full`` failures open that rung's breaker; it cools down,
its half-open probe succeeds and it closes again.  Meanwhile some quotes
enter at ``cp_limited`` (the overload fast path).  Whatever path a quote's
plan takes inside the planner, the ladder must record the same breaker
state, the same rung counts and the same verdicts.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.resilience.breaker import RUNGS, InjectedSolverFailures, LadderConfig
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.loadgen import LoadProfile, generate_request_stream
from repro.service.schemas import verdict_digest
from repro.service.server import SchedulerService
from repro.workload.entities import make_uniform_cluster

PINNED_SNAPSHOT = {
    "breakers": {
        "cp_full": {
            "state": "closed",
            "failures": 0,
            "cooldown_left": 0,
            "opened_count": 1,
        },
        "cp_limited": {
            "state": "closed",
            "failures": 0,
            "cooldown_left": 0,
            "opened_count": 0,
        },
        "edf": {
            "state": "closed",
            "failures": 0,
            "cooldown_left": 0,
            "opened_count": 0,
        },
    },
    "chaos": {"cp_full": 2, "cp_limited": 1},
}
PINNED_RUNGS = {"cp_full": 47, "cp_limited": 12, "edf": 1, "greedy": 0}
PINNED_DIGEST = "77104a173ec286fa"


def run_stream():
    resources = make_uniform_cluster(4)
    config = AdmissionConfig(
        ladder=LadderConfig(
            failure_threshold=2,
            cooldown=3,
            chaos=InjectedSolverFailures({"cp_full": 2, "cp_limited": 1}),
        )
    )
    controller = AdmissionController(resources, config, registry=MetricsRegistry())
    stream = generate_request_stream(LoadProfile(requests=60, seed=3), (8, 8))
    quotes = [
        controller.quote(spec, arrival, "cp_limited" if i % 7 == 3 else "cp_full")
        for i, (arrival, spec) in enumerate(stream)
    ]
    rungs = {
        rung: controller.registry.counter(f"resilience.rung_used.{rung}").value
        for rung in RUNGS
    }
    return controller._ladder.snapshot(), rungs, quotes


def test_chaos_quote_stream_ladder_accounting_is_pinned():
    snapshot, rungs, quotes = run_stream()
    assert snapshot == PINNED_SNAPSHOT
    assert rungs == PINNED_RUNGS
    assert verdict_digest(quotes) == PINNED_DIGEST


def test_service_metrics_expose_the_ladder_counters():
    """The controller's ladder counts into the registry the server exports."""
    service = SchedulerService(make_uniform_cluster(4))
    text = service.metrics_text()
    assert "# TYPE resilience_rung_used" in text
    assert "resilience_breaker_opened" in text
