"""Differential oracle: the standing committed plan against a rebuild.

``RebuildController`` is the admission quote as it was before the committed
plan became one standing :class:`~repro.core.matchmaking.FrozenBase`: each
quote evicts ended work by walking every admitted job, hands all committed
assignments to ``build_model(running=frozen)`` and decomposes the candidate
on freshly booked slots.  Both controllers serve the same seeded request
streams -- COMBINED and JOINT, batched by 1 and by 4, with cancels and
status calls in between -- and must answer identically; after every quote
the standing base must equal what its live assignments rebuild to.  With
the rebuild placing by the scan, the same streams check the standing base's
gap index against the scan on real books.
"""

from __future__ import annotations

import random
from math import ceil

import pytest

from repro.core.formulation import FormulationMode
from repro.core.invocation import extract_assignments, solve_invocation
from repro.core.matchmaking import FrozenBase
from repro.core.schedule import SchedulingError
from repro.cp.profile import TimetableProfile
from repro.cp.solver import CpSolver
from repro.obs.clocks import ManualServiceClock
from repro.resilience.breaker import DegradationLadder
from repro.service.admission import AdmissionConfig
from repro.service.batching import BatchingConfig
from repro.service.loadgen import LoadProfile, generate_request_stream
from repro.service.schemas import (
    ADMITTED,
    CANCELLED,
    COMPLETED,
    REJECTED,
    JobStatus,
    SlaQuote,
)
from repro.service.server import SchedulerService, ServiceConfig
from repro.workload.entities import make_uniform_cluster

from tests.core.test_placement_index import scan_place

RESOURCES = 3


class _Job:
    def __init__(self, quote, assignments):
        self.quote = quote
        self.assignments = assignments
        self.cancelled = False


class RebuildController:
    """The rebuild-everything quote, kept only as this test's reference."""

    def __init__(self, resources, config: AdmissionConfig) -> None:
        self.resources = list(resources)
        self.config = config
        self._solver = CpSolver(config.solver_params)
        self._ladder = DegradationLadder(config.ladder, self._solver)
        self._jobs = {}
        self._rejected = {}
        self._next_numeric_id = 1

    @property
    def committed_count(self) -> int:
        return sum(1 for j in self._jobs.values() if not j.cancelled)

    def _finish(self, job_id, admitted, reason, completion, deadline, rung, now):
        quote = SlaQuote(job_id, admitted, reason, completion, deadline, rung, 0.0, now)
        if not admitted:
            if reason == "invalid":
                self._rejected.setdefault(job_id, quote)
            elif reason != "duplicate":
                self._rejected[job_id] = quote
        return quote

    def invalid(self, job_id, arrival, error):
        now = int(ceil(arrival))
        return self._finish(job_id, False, "invalid", None, None, "none", now)

    def shed(self, spec, arrival):
        now = int(ceil(arrival))
        return self._finish(
            spec.job_id, False, "overload_shed", None, None, "none", now
        )

    def quote(self, spec, arrival, start_rung="cp_full"):
        now, job_id = int(ceil(arrival)), spec.job_id
        if job_id in self._jobs or job_id in self._rejected:
            return self._finish(job_id, False, "duplicate", None, None, "none", now)
        for job in self._jobs.values():
            job.assignments = [a for a in job.assignments if a.end > now]
        frozen = [
            a for j in self._jobs.values() if not j.cancelled for a in j.assignments
        ]
        candidate = spec.to_job(self._next_numeric_id, now)
        try:
            outcome, formulation = solve_invocation(
                [candidate],
                self.resources,
                now,
                running=frozen,
                mode=self.config.mode,
                solver=self._solver,
                ladder=self._ladder,
                start_rung=start_rung,
            )
        except SchedulingError:
            return self._finish(job_id, False, "infeasible", None, None, "none", now)
        rung = outcome.rung
        if not outcome:
            return self._finish(job_id, False, "infeasible", None, None, rung, now)
        try:
            complete = extract_assignments(
                formulation, outcome.solution, frozen, self.resources
            )
        except SchedulingError:
            return self._finish(job_id, False, "infeasible", None, None, rung, now)
        ids = {t.id for t in candidate.tasks}
        mine = [a for a in complete if a.task.id in ids]
        completion, deadline = max(a.end for a in mine), candidate.deadline
        admitted = completion <= deadline
        reason = "deadline_met" if admitted else "deadline_missed"
        quote = self._finish(job_id, admitted, reason, completion, deadline, rung, now)
        if admitted:
            self._next_numeric_id += 1
            self._jobs[job_id] = _Job(quote, mine)
        return quote

    def cancel(self, job_id, now):
        job = self._jobs.get(job_id)
        if job is None or job.cancelled:
            return False
        tick = int(ceil(now))
        if not job.assignments or all(a.end <= tick for a in job.assignments):
            return False
        job.cancelled = True
        job.assignments = []
        return True

    def status(self, job_id, now):
        tick = int(ceil(now))
        job = self._jobs.get(job_id)
        if job is not None:
            if job.cancelled:
                return JobStatus(job_id, CANCELLED, job.quote)
            remaining = [
                (a.task.id, a.start, a.end) for a in job.assignments if a.end > tick
            ]
            if not remaining and (
                job.quote.predicted_completion is None
                or job.quote.predicted_completion <= tick
            ):
                return JobStatus(job_id, COMPLETED, job.quote)
            return JobStatus(job_id, ADMITTED, job.quote, planned=remaining)
        quote = self._rejected.get(job_id)
        if quote is not None:
            return JobStatus(job_id, REJECTED, quote)
        return None


# --------------------------------------------------------------- invariants
def _rebuilt(live, per_resource):
    """Profiles and slot bookings rebuilt from the live assignments alone."""
    profiles, busy = {}, {}
    for a in live:
        pool = (a.resource_id, a.slot_kind) if per_resource else a.slot_kind
        profiles.setdefault(pool, TimetableProfile()).add(a.start, a.end, a.task.demand)
        key = (a.resource_id, a.slot_kind, a.slot_index)
        busy.setdefault(key, []).append((a.start, a.end))
    return profiles, {k: sorted(v) for k, v in busy.items()}


def assert_base_consistent(base) -> None:
    live = list(base.live.values())
    profiles, busy = _rebuilt(live, base.per_resource)
    for pool in set(base.profiles) | set(profiles):
        mine = base.profiles.get(pool, TimetableProfile())
        ref = profiles.get(pool, TimetableProfile())
        assert (mine._times, mine._deltas) == (ref._times, ref._deltas), pool
    booked = {
        (rid, kind, slot.slot_index): slot.busy
        for (rid, kind), pool in base.slots.items()
        for slot in pool
        if slot.busy
    }
    assert booked == busy
    assert base.end() == max((a.end for a in live), default=0)
    assert base.ends == sorted(a.end for a in live)


# ------------------------------------------------------------------ replay
def _verdict(quote):
    return None if quote is None else quote.verdict_key()


def _status(status):
    if status is None:
        return None
    return (status.job_id, status.state, _verdict(status.quote), status.planned)


def _replay(mode, batch, seed, reference, check=lambda controller: None):
    """Every answer one seeded stream gets, and ``committed_count`` after
    every quote."""
    config = ServiceConfig(
        batching=BatchingConfig(max_batch_size=batch, max_hold_seconds=batch - 1),
        admission=AdmissionConfig(mode=mode),
    )
    clock = ManualServiceClock()
    service = SchedulerService(make_uniform_cluster(RESOURCES), config, clock=clock)
    if reference:
        service.controller = RebuildController(service.resources, config.admission)
    controller, counts = service.controller, []

    def quote(*args, **kwargs):
        answer = type(controller).quote(controller, *args, **kwargs)
        check(controller)
        counts.append(controller.committed_count)
        return answer

    controller.quote = quote
    profile = LoadProfile(
        requests=45,
        seed=seed,
        arrival_rate=0.5,
        map_tasks_range=(1, 6),
        reduce_tasks_range=(1, 3),
        deadline_multiplier_max=2.5,
        ar_probability=0.5,
        s_max=80,
    )
    ops = random.Random(seed)
    seen, answers = [], []
    for arrival, spec in generate_request_stream(profile, (2 * RESOURCES,) * 2):
        due = service.batcher.due_at()
        while due is not None and due <= arrival:
            clock.advance_to(max(clock.now(), due))
            answers += [_verdict(q) for q in service.pump()]
            due = service.batcher.due_at()
        clock.advance_to(max(clock.now(), arrival))
        answers.append(_verdict(service.submit_sync(spec)))
        answers += [_verdict(q) for q in service.pump()]
        seen.append(spec.job_id)
        if ops.random() < 0.2:
            answers.append(("cancel", service.cancel_sync(ops.choice(seen))))
        if ops.random() < 0.4:
            answers.append(_status(service.status_sync(ops.choice(seen))))
    answers += [_verdict(q) for q in service.drain()]
    answers += [_status(service.status_sync(job_id)) for job_id in seen]
    return answers, counts


@pytest.mark.parametrize("mode", list(FormulationMode))
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_standing_base_answers_like_the_rebuild(mode, batch, seed):
    def check(controller):
        assert_base_consistent(controller._base)

    mine, counts = _replay(mode, batch, seed, reference=False, check=check)
    ref, ref_counts = _replay(mode, batch, seed, reference=True)
    assert mine == ref
    assert counts == ref_counts and len(counts) >= 40
    reasons = {a[2] for a in mine if a is not None and len(a) == 7}
    # The streams reach every quoting path, placement failures included.
    assert {"deadline_met", "deadline_missed", "infeasible"} <= reasons
    assert any(a == ("cancel", True) for a in mine)


@pytest.mark.parametrize("mode", list(FormulationMode))
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_standing_gap_index_quotes_like_the_scan(mode, batch, seed, monkeypatch):
    """Future commitments, failed placements and released rejects: every
    answer of the standing base, placing by its gap index, is the rebuild's,
    placing by the scan."""
    mine, _ = _replay(mode, batch, seed, reference=False)
    monkeypatch.setattr(FrozenBase, "place", scan_place)
    ref, _ = _replay(mode, batch, seed, reference=True)
    assert mine == ref
    assert "infeasible" in {a[2] for a in mine if a is not None and len(a) == 7}
