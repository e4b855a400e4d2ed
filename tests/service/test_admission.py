"""Schedule-once admission control: quotes, commitments, lifecycle."""

from __future__ import annotations

from math import ceil

import pytest

from repro.core.matchmaking import FrozenBase
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.loadgen import LoadProfile, generate_request_stream
from repro.service.schemas import JobSpec
from repro.workload.entities import make_uniform_cluster


def controller(num_resources: int = 1, registry=None) -> AdmissionController:
    return AdmissionController(
        make_uniform_cluster(num_resources, 1, 1),
        AdmissionConfig(),
        registry=registry,
    )


def spec(job_id: str, maps=(10,), reduces=(), deadline=100, earliest=0) -> JobSpec:
    return JobSpec(
        job_id=job_id,
        map_durations=tuple(maps),
        reduce_durations=tuple(reduces),
        earliest_start=earliest,
        deadline=deadline,
    )


class TestQuoting:
    def test_feasible_job_admitted(self):
        q = controller().quote(spec("a"), arrival=0.0)
        assert q.admitted and q.reason == "deadline_met"
        assert q.predicted_completion == 10
        assert q.deadline == 100
        assert q.rung == "cp_full"

    def test_impossible_deadline_rejected(self):
        # 3 sequential 10s maps on one slot cannot finish within 15s.
        q = controller().quote(spec("a", maps=(10, 10, 10), deadline=15), 0.0)
        assert not q.admitted
        assert q.reason == "deadline_missed"
        assert q.predicted_completion is not None
        assert q.predicted_completion > q.deadline

    def test_quote_anchors_at_arrival_ceiling(self):
        q = controller().quote(spec("a"), arrival=4.2)
        assert q.arrival == 5
        assert q.predicted_completion == 15  # starts at t=5

    def test_committed_work_occupies_slots(self):
        c = controller()
        assert c.quote(spec("a", maps=(50,), deadline=60), 0.0).admitted
        # Second job needs the single map slot for 50s starting now; the
        # committed job holds it until t=50, so a 40s deadline is unmeetable.
        q = c.quote(spec("b", maps=(10,), deadline=40), 0.0)
        assert not q.admitted
        assert q.reason == "deadline_missed"

    def test_completed_work_is_evicted(self):
        c = controller()
        assert c.quote(spec("a", maps=(50,), deadline=60), 0.0).admitted
        # Same conflicting job, but arriving after the committed job ended.
        q = c.quote(spec("b", maps=(10,), deadline=40), 55.0)
        assert q.admitted

    def test_duplicate_submission_rejected(self):
        c = controller()
        assert c.quote(spec("a"), 0.0).admitted
        dup = c.quote(spec("a"), 1.0)
        assert not dup.admitted and dup.reason == "duplicate"

    def test_resubmit_after_rejection_is_duplicate(self):
        c = controller()
        c.quote(spec("a", maps=(10, 10, 10), deadline=15), 0.0)
        assert c.quote(spec("a"), 1.0).reason == "duplicate"

    def test_invalid_and_shed_paths(self):
        c = controller()
        bad = c.invalid("x", 0.0, "no tasks")
        assert not bad.admitted and bad.reason == "invalid"
        shed = c.shed(spec("y"), 3.0)
        assert not shed.admitted and shed.reason == "overload_shed"
        assert shed.arrival == 3

    def test_unknown_start_rung_rejected(self):
        with pytest.raises(ValueError, match="rung"):
            controller().quote(spec("a"), 0.0, start_rung="warp")

    def test_overload_start_rung_still_quotes(self):
        q = controller().quote(spec("a"), 0.0, start_rung="cp_limited")
        assert q.admitted
        assert q.rung == "cp_limited"


class TestCancellation:
    def test_cancel_frees_committed_slots(self):
        c = controller()
        assert c.quote(spec("a", maps=(50,), deadline=60), 0.0).admitted
        assert c.cancel("a", now=1.0)
        # The slot is free again: the conflicting job now fits.
        assert c.quote(spec("b", maps=(10,), deadline=40), 1.0).admitted

    def test_cancel_unknown_job_is_false(self):
        assert not controller().cancel("nope", 0.0)

    def test_cancel_completed_job_is_false(self):
        c = controller()
        assert c.quote(spec("a", maps=(5,), deadline=60), 0.0).admitted
        assert not c.cancel("a", now=50.0)

    def test_double_cancel_is_false(self):
        c = controller()
        assert c.quote(spec("a", maps=(50,), deadline=60), 0.0).admitted
        assert c.cancel("a", 1.0)
        assert not c.cancel("a", 2.0)


class TestStatus:
    def test_unknown_job_has_no_status(self):
        assert controller().status("nope", 0.0) is None

    def test_admitted_then_completed_lifecycle(self):
        c = controller()
        c.quote(spec("a", maps=(10,), deadline=100), 0.0)
        st = c.status("a", 1.0)
        assert st is not None and st.state == "admitted"
        assert st.planned == [("a-m0", 0, 10)]
        done = c.status("a", 20.0)
        assert done is not None and done.state == "completed"
        assert done.planned == []

    def test_rejected_job_status(self):
        c = controller()
        c.quote(spec("a", maps=(10, 10, 10), deadline=15), 0.0)
        st = c.status("a", 1.0)
        assert st is not None and st.state == "rejected"
        assert st.quote is not None and st.quote.reason == "deadline_missed"

    def test_cancelled_job_status(self):
        c = controller()
        c.quote(spec("a", maps=(50,), deadline=60), 0.0)
        c.cancel("a", 1.0)
        st = c.status("a", 2.0)
        assert st is not None and st.state == "cancelled"


class TestMetrics:
    def test_counters_track_decisions(self):
        registry = MetricsRegistry()
        c = controller(registry=registry)
        c.quote(spec("a"), 0.0)
        c.quote(spec("b", maps=(10, 10, 10), deadline=15), 0.0)
        c.shed(spec("c"), 0.0)
        counters = registry.as_dict()
        assert counters["service.requests"] == 3
        assert counters["service.admitted"] == 1
        assert counters["service.rejected"] == 2  # deadline miss + shed
        assert counters["service.shed"] == 1
        assert counters["service.committed_jobs"] == 1.0
        hist = counters["service.admission_latency_ms"]
        assert hist["count"] == 3

    def test_committed_gauge_excludes_cancelled_jobs(self):
        registry = MetricsRegistry()
        c = controller(num_resources=2, registry=registry)

        def gauge():
            return registry.as_dict()["service.committed_jobs"]

        assert c.quote(spec("a", maps=(50,)), 0.0).admitted
        assert c.quote(spec("b", maps=(50,)), 0.0).admitted
        assert gauge() == 2.0
        assert c.cancel("a", 1.0)
        assert gauge() == 1.0
        # The next admission must not count the cancelled job back in.
        assert c.quote(spec("c", maps=(50,)), 1.0).admitted
        assert gauge() == 2.0 == c.committed_count


def base_snapshot(c: AdmissionController):
    """Every part of the committed plan a quote may touch."""
    base = c._base
    profiles = {
        pool: (p._times[:], p._deltas[:])
        for pool, p in base.profiles.items()
        if p._times
    }
    busy = {key: [s.busy[:] for s in pool] for key, pool in base.slots.items()}
    return profiles, busy, dict(base.live), base.ends[:]


class TestStandingBase:
    """The committed plan is one base that quotes book on and release."""

    def test_failed_placement_leaves_the_base_unchanged(self, monkeypatch):
        booked = []
        book = FrozenBase._book
        monkeypatch.setattr(
            FrozenBase,
            "_book",
            lambda base, a, slot: (booked.append(a), book(base, a, slot)),
        )
        c = AdmissionController(make_uniform_cluster(3), AdmissionConfig())
        profile = LoadProfile(
            requests=45,
            seed=2,
            deadline_multiplier_max=2.5,
            ar_probability=0.5,
            s_max=80,
        )
        part_way = []
        for arrival, s in generate_request_stream(profile, (6, 6)):
            c._base.retire(int(ceil(arrival)))  # what the quote does first
            before, n = base_snapshot(c), len(booked)
            q = c.quote(s, arrival)
            if q.reason == "infeasible":
                assert base_snapshot(c) == before
                part_way.append(len(booked) - n)
        # Placement failed after booking some of the candidate's tasks.
        assert max(part_way) > 0

    def test_deadline_miss_leaves_the_base_unchanged(self):
        c = controller()
        assert c.quote(spec("a", maps=(50,), deadline=60), 0.0).admitted
        before = base_snapshot(c)
        q = c.quote(spec("b", maps=(10,), deadline=40), 0.0)
        assert q.reason == "deadline_missed"
        assert base_snapshot(c) == before

    def test_cancel_releases_only_the_unretired_assignments(self):
        c = controller()
        assert c.quote(spec("a", maps=(10,), reduces=(20,)), 0.0).admitted
        # A later quote retires a's map (ended at 10), not its reduce.
        assert c.quote(spec("b", maps=(5,)), 15.0).admitted
        assert sorted(c._base.live) == ["a-r0", "b-m0"]
        assert c.cancel("a", 15.0)
        assert sorted(c._base.live) == ["b-m0"]
        assert c.status("a", 16.0).state == "cancelled"
        assert c.quote(spec("c", reduces=(5,), maps=(1,)), 16.0).admitted

    def test_committed_count_through_admit_cancel_retire(self):
        c = controller(num_resources=2)
        assert c.quote(spec("a", maps=(5,)), 0.0).admitted
        assert c.quote(spec("b", maps=(50,)), 0.0).admitted
        assert c.committed_count == 2
        # Retiring a's finished work does not un-commit the job.
        assert c.quote(spec("c", maps=(5,)), 10.0).admitted
        assert "a-m0" not in c._base.live
        assert c.committed_count == 3
        assert c.cancel("b", 11.0)
        assert not c.cancel("a", 11.0)  # completed: nothing to cancel
        assert c.committed_count == 2
        assert not c.quote(spec("d", maps=(10,), deadline=5), 12.0).admitted
        assert c.committed_count == 2
