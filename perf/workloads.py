"""The five workloads: how inputs are made, what is timed, what is checked.

Every workload is a class with the same four steps, called by
``perf.child`` in this order: the constructor makes the inputs from the seed
and wires the system (set-up), ``warm_up`` sends 20 jobs down the same path
(set-up), ``timed`` is the measured section, and ``check`` verifies the
outputs and returns an :class:`Outcome`.

Sizes are stated at ``RUN_SECONDS`` (the ``run_seconds`` of
``BENCHMARK.json``) and scale linearly with ``--seconds``; ``--seconds 1`` is
the smoke scale.  They were set on a 2-core box with CPython 3.11 so that each
timed section lasts 8 to 12 s there.

Seeds.  ``open_steady`` and ``svc_quote_stream`` draw fresh inputs from the
seed: their work converges within one run (spread across ten seeds 3 to
14 %).  The three contended workloads cannot.  Which invocations of a
near-critical open run find late jobs is chaotic in the job stream (200-job
runs take 0.3 to 7 s, and the number that hit the 0.5 s budget varies 4x),
and one LNS time-to-target is a hitting time (coefficient of variation 0.9
across fresh batches, and 1 in 100 never gets there).  No run of under a
minute averages that out, so those three run a pinned pool of instances,
found by search and listed below, and the seed decides only the order they
run in.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import MrcpRmConfig, invocation
from repro.cp import solver as cp_solver
from repro.cp.instrument import EngineProfile
from repro.cp.lns import LnsParams
from repro.cp.solver import SolverParams
from repro.experiments.runner import LiveRun, RunConfig, build_live_run
from repro.metrics import RunMetrics
from repro.obs.clocks import ManualServiceClock
from repro.service.admission import AdmissionConfig
from repro.service.batching import BatchingConfig
from repro.service.loadgen import LoadProfile, generate_request_stream
from repro.service.schemas import SlaQuote, verdict_digest
from repro.service.server import SchedulerService, ServiceConfig
from repro.workload import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
    make_uniform_cluster,
)

RUN_SECONDS = 10
WARM_UP_JOBS = 20

#: The solver of the repo's behaviour pins (``repro.bench``): the fail limit
#: binds, never the clock, so the search tree repeats exactly.
DETERMINISTIC_SOLVER = SolverParams(
    time_limit=30.0, tree_fail_limit=200, use_lns=False
)

#: Table 3 at the scaled profile: a lightly loaded cluster of 10 x (2, 2).
STEADY_JOBS = SyntheticWorkloadParams(
    map_tasks_range=(1, 20),
    reduce_tasks_range=(1, 20),
    e_max=50,
    ar_probability=0.5,
    s_max=10_000,
    deadline_multiplier_max=5.0,
    arrival_rate=0.01,
)
#: Small jobs, no advance reservations: the geometry of the contended cases.
#: Deadline multiplier and arrival rate are set per workload.
CONTENDED_JOBS = SyntheticWorkloadParams(
    map_tasks_range=(1, 10),
    reduce_tasks_range=(1, 5),
    e_max=20,
    ar_probability=0.0,
)


@dataclass
class Outcome:
    """What one timed section produced, after its checks."""

    #: Jobs submitted, scheduled or quoted.
    ops: int
    #: Ops whose answer is missing or wrong.  A late job and a rejected
    #: request are answers, not failures.
    failed: int
    #: One scheduling-time sample per invocation, instance or quote (ms).
    o_ms: List[float]
    #: Total scheduling time (ms); divided by ``ops`` it is the paper's O.
    o_total_ms: float
    #: What ``sim_digest`` hashes; None where the outputs depend on the clock.
    digest_payload: Optional[object] = None
    #: Workload-specific numbers for the report (N, admitted, ...).
    notes: Dict[str, object] = field(default_factory=dict)
    #: Why the outputs are wrong, if they are.
    problems: List[str] = field(default_factory=list)

    @property
    def sim_digest(self) -> Optional[str]:
        if self.digest_payload is None:
            return None
        text = json.dumps(self.digest_payload, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def scaled(at_run_seconds: int, seconds: int) -> int:
    """A size stated at ``RUN_SECONDS``, scaled to ``seconds`` (at least 1)."""
    return max(1, round(at_run_seconds * seconds / RUN_SECONDS))


def pinned(pool: Sequence[int], seed: int, seconds: int) -> List[int]:
    """The head of a pinned pool that fits ``seconds``, in seeded order."""
    chosen = list(pool[: scaled(len(pool), seconds)])
    random.Random(seed).shuffle(chosen)
    return chosen


# --------------------------------------------------------------- open runs
def _open_config(
    jobs: SyntheticWorkloadParams, solver: SolverParams, seed: int, traced: bool
) -> RunConfig:
    # The traced run switches on the solver's own propagator counters; they
    # do not change the search.
    solver = replace(solver, profile=traced)
    return RunConfig(synthetic=jobs, mrcp=MrcpRmConfig(solver=solver), seed=seed)


def _run_digest(m: RunMetrics) -> Dict[str, object]:
    return {
        "N": m.late_jobs,
        "T": m.avg_turnaround,
        "P": m.proportion_late,
        "invocations": m.scheduler_invocations,
        "fails": m.solver_fails,
        "branches": m.solver_branches,
        "turnarounds": sorted(m.turnarounds.items()),
    }


class _OpenRuns:
    """Independent open-system runs, finished back to back.

    ``LiveRun.finish`` raises unless every job completed and the executor is
    quiescent, so a run that returns has passed those two checks.
    """

    def __init__(self, configs: Sequence[RunConfig]) -> None:
        self.configs = list(configs)
        self.lives: List[LiveRun] = [build_live_run(c) for c in self.configs]
        self.results: List[RunMetrics] = []

    def warm_up(self) -> None:
        first = self.configs[0]
        small = replace(first.synthetic, num_jobs=WARM_UP_JOBS)
        build_live_run(replace(first, synthetic=small)).finish()

    def timed(self) -> None:
        for live in self.lives:
            self.results.append(live.finish())

    def check(self) -> Outcome:
        results = self.results
        # By generator seed, so that the order of the runs does not show.
        by_seed = sorted(zip((c.seed for c in self.configs), results))
        ops = sum(c.synthetic.num_jobs for c in self.configs)
        completed = sum(m.jobs_completed for m in results)
        overheads = [o for m in results for o in m.overhead_series]
        return Outcome(
            ops=ops,
            failed=ops - completed,
            o_ms=[1000.0 * o for o in overheads],
            o_total_ms=1000.0 * sum(overheads),
            digest_payload=[[seed, _run_digest(m)] for seed, m in by_seed],
            notes={
                "N": sum(m.late_jobs for m in results),
                "invocations": len(overheads),
                "solver_fails": sum(m.solver_fails for m in results),
                "lns_iterations": sum(m.solver_lns_iterations for m in results),
            },
        )


class OpenSteady(_OpenRuns):
    """One long, lightly loaded run: the warm start closes almost every solve.

    What is left is the fixed cost of an invocation, and it grows with the
    length of the run because the executor rescans every task ever planned.
    """

    JOBS = 1500

    def __init__(self, seed: int, seconds: int, traced: bool) -> None:
        jobs = replace(STEADY_JOBS, num_jobs=scaled(self.JOBS, seconds))
        super().__init__([_open_config(jobs, DETERMINISTIC_SOLVER, seed, traced)])


class _PinnedOpenRuns(_OpenRuns):
    """Open runs over a pinned pool of generator seeds, in seeded order."""

    POOL: Tuple[int, ...]
    JOBS: SyntheticWorkloadParams
    SOLVER: SolverParams

    def __init__(self, seed: int, seconds: int, traced: bool) -> None:
        super().__init__(
            [
                _open_config(self.JOBS, self.SOLVER, g, traced)
                for g in pinned(self.POOL, seed, seconds)
            ]
        )


class OpenContendedTree(_PinnedOpenRuns):
    """Near-critical runs in which the tree search's fail limit binds.

    At 86 % utilisation about one invocation in six finds late jobs it
    cannot prove late and searches for 200 fails on a model of frozen and
    movable tasks; 13 % of jobs end late.  The limit binds, never the clock,
    so the tree repeats exactly.  Which invocations those are is chaotic in
    the job stream: 200-job runs of this geometry take 0.3 to 7 s.
    """

    #: Generator seeds of 200-job runs that take 1.5 to 3 s, shortest first.
    POOL = (11, 28, 25, 19, 5)
    JOBS = replace(
        CONTENDED_JOBS, num_jobs=200, deadline_multiplier_max=1.75, arrival_rate=0.09
    )
    SOLVER = DETERMINISTIC_SOLVER


class OpenContendedLns(_PinnedOpenRuns):
    """Near-critical runs under ``MrcpRmConfig()`` as it ships.

    This is what ``run_once`` gives a user: a 0.5 s budget with LNS on.  An
    invocation with a late job LNS cannot clear sits at the budget (about
    22 of the 300 here), so wall time and the O tail follow the budget, not
    the work, and the outputs depend on the clock: no digest.  The check is
    that LNS leaves no more jobs late than the same runs with LNS off.
    """

    #: Generator seeds of 50-job runs with 2 to 6 budget-bound invocations
    #: each, repeatable to 0.03 s, shortest first.
    POOL = (118, 131, 104, 106, 142, 141)
    JOBS = replace(
        CONTENDED_JOBS, num_jobs=50, deadline_multiplier_max=2.0, arrival_rate=0.09
    )
    SOLVER = MrcpRmConfig().solver

    def check(self) -> Outcome:
        outcome = super().check()
        outcome.digest_payload = None  # LNS stops on the clock
        twin_late = 0
        for config in self.configs:
            solver = replace(config.mrcp.solver, use_lns=False)
            twin = replace(config, mrcp=replace(config.mrcp, solver=solver))
            twin_late += build_live_run(twin).finish().late_jobs
        outcome.notes["N_lns_off"] = twin_late
        if outcome.notes["N"] > twin_late:
            outcome.problems.append(
                f"LNS left {outcome.notes['N']} jobs late, more than the "
                f"{twin_late} of the same runs with LNS off"
            )
        return outcome


# ------------------------------------------------------------ closed batch
@dataclass
class _SolvedBatch:
    generator_seed: int
    jobs: int
    model: object
    warm_objective: int
    target: int
    best: object
    stats: object
    elapsed_s: float = 0.0


class BatchLns:
    """Closed 60-job batches improved by LNS to a fixed target.

    Build, root propagation, warm start, then LNS until the number of late
    jobs is a fifth below the warm start's.  Time to a target is a fixed
    amount of work: iterations, fails and branches repeat exactly, so no
    budget hides how fast an LNS iteration is.  No simulator, executor or
    service code runs.
    """

    #: Generator seeds of batches that reach the target in 1 to 2 s.
    POOL = (5, 11, 12, 10, 8, 14)
    JOBS = replace(
        CONTENDED_JOBS, num_jobs=60, deadline_multiplier_max=1.2, arrival_rate=1.0
    )
    CAP_SECONDS = 60.0

    def __init__(self, seed: int, seconds: int, traced: bool) -> None:
        self.traced = traced
        self.resources = make_uniform_cluster(10)
        self.batches = [
            (g, self._jobs(self.JOBS, g)) for g in pinned(self.POOL, seed, seconds)
        ]
        self.solved: List[_SolvedBatch] = []

    @staticmethod
    def _jobs(params: SyntheticWorkloadParams, generator_seed: int):
        params = replace(params, total_map_slots=20, total_reduce_slots=20)
        return generate_synthetic_workload(params, seed=generator_seed)

    def _solve(self, generator_seed: int, jobs) -> _SolvedBatch:
        # The layers are reached through the names the traced run rebinds.
        model = invocation.build_model(jobs, self.resources, now=0).model
        engine = model.engine()
        engine.profile = EngineProfile() if self.traced else None
        engine.reset()
        engine.propagate()
        warm = cp_solver.best_warm_start(model)
        target = warm.objective - max(1, round(0.2 * warm.objective))
        best, stats = cp_solver.lns_improve(
            model,
            engine,
            warm,
            time.perf_counter() + self.CAP_SECONDS,
            LnsParams(seed=0),
            target=target,
        )
        return _SolvedBatch(
            generator_seed, len(jobs), model, warm.objective, target, best, stats
        )

    def warm_up(self) -> None:
        self._solve(0, self._jobs(replace(self.JOBS, num_jobs=WARM_UP_JOBS), 0))

    def timed(self) -> None:
        for generator_seed, jobs in self.batches:
            t0 = time.perf_counter()
            solved = self._solve(generator_seed, jobs)
            solved.elapsed_s = time.perf_counter() - t0
            self.solved.append(solved)

    def check(self) -> Outcome:
        failed = 0
        rows, problems = [], []
        for b in self.solved:
            violations = cp_solver.check_solution(b.model, b.best)
            if b.best.objective > b.target or violations:
                failed += b.jobs
                problems.append(
                    f"batch {b.generator_seed}: objective {b.best.objective}, "
                    f"target {b.target}, {len(violations)} violations"
                )
            rows.append(
                [b.generator_seed, len(b.model.intervals), b.warm_objective,
                 b.best.objective, b.stats.lns_iterations, b.stats.fails,
                 b.stats.branches]
            )
        total_s = sum(b.elapsed_s for b in self.solved)
        return Outcome(
            ops=sum(b.jobs for b in self.solved),
            failed=failed,
            o_ms=[1000.0 * b.elapsed_s / b.jobs for b in self.solved],
            o_total_ms=1000.0 * total_s,
            digest_payload=sorted(rows),
            notes={
                "lns_to_target_s": total_s,
                "instances": len(rows),
                "lns_iterations": sum(row[4] for row in rows),
            },
            problems=problems,
        )


# ----------------------------------------------------------------- service
class SvcQuoteStream:
    """A closed loop of one client asking the admission service for quotes.

    The planner core of the simulator used the opposite way: one movable job
    among some 800 frozen assignments on 50 resources, reached through the
    degradation ladder.  The service clock is advanced by hand to each
    arrival, so verdicts repeat exactly, and the hold is zero, so the latency
    is the system's and not a constant.
    """

    REQUESTS = 800
    RESOURCES = 50

    def __init__(self, seed: int, seconds: int, traced: bool) -> None:
        self.traced = traced
        self.stream = self._stream(scaled(self.REQUESTS, seconds), 10 + seed)
        self.clock = ManualServiceClock()
        self.service = self._service(self.clock)
        self.latencies: List[float] = []
        self.quotes: List[SlaQuote] = []

    def _stream(self, requests: int, generator_seed: int):
        profile = LoadProfile(
            requests=requests,
            seed=generator_seed,
            arrival_rate=0.6,
            map_tasks_range=(1, 10),
            reduce_tasks_range=(1, 5),
            deadline_multiplier_max=3.0,
            ar_probability=0.5,
            s_max=600,
        )
        slots = (2 * self.RESOURCES, 2 * self.RESOURCES)
        return [
            (arrival, spec.as_dict())
            for arrival, spec in generate_request_stream(profile, slots)
        ]

    def _service(self, clock: ManualServiceClock) -> SchedulerService:
        solver = replace(AdmissionConfig().solver_params, profile=self.traced)
        config = ServiceConfig(
            batching=BatchingConfig(max_batch_size=1, max_hold_seconds=0.0),
            admission=AdmissionConfig(solver_params=solver),
        )
        return SchedulerService(
            make_uniform_cluster(self.RESOURCES), config, clock=clock
        )

    @staticmethod
    def _ask(service, clock, arrival, payload) -> List[SlaQuote]:
        clock.advance_to(max(clock.now(), arrival))
        verdict = service.submit_sync(payload)
        return [verdict] if verdict is not None else service.pump()

    def warm_up(self) -> None:
        clock = ManualServiceClock()
        service = self._service(clock)
        for arrival, payload in self._stream(WARM_UP_JOBS, 0):
            self._ask(service, clock, arrival, payload)

    def timed(self) -> None:
        service, clock = self.service, self.clock
        for arrival, payload in self.stream:
            t0 = time.perf_counter()
            self.quotes.extend(self._ask(service, clock, arrival, payload))
            self.latencies.append(time.perf_counter() - t0)

    def check(self) -> Outcome:
        asked = [payload["job_id"] for _, payload in self.stream]
        answered = {q.job_id: q for q in self.quotes}
        failed = 0
        problems = []
        for job_id in asked:
            q = answered.get(job_id)
            if q is None or q.reason in ("invalid", "overload_shed"):
                failed += 1
            elif q.admitted and q.predicted_completion > q.deadline:
                failed += 1
                problems.append(f"{job_id} admitted past its deadline")
        if len(self.quotes) != len(asked):
            problems.append(f"{len(self.quotes)} quotes for {len(asked)} requests")
        admitted = sum(1 for q in self.quotes if q.admitted)
        return Outcome(
            ops=len(asked),
            failed=failed,
            o_ms=[1000.0 * s for s in self.latencies],
            o_total_ms=1000.0 * sum(self.latencies),
            digest_payload={
                "verdicts": verdict_digest(self.quotes),
                "admitted": admitted,
            },
            notes={"admitted": admitted},
            problems=problems,
        )


WORKLOADS = {
    "open_steady": OpenSteady,
    "open_contended_tree": OpenContendedTree,
    "open_contended_lns": OpenContendedLns,
    "batch_lns": BatchLns,
    "svc_quote_stream": SvcQuoteStream,
}
