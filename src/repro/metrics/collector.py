"""Run-level metric collection.

One :class:`MetricsCollector` instance accompanies one simulation run.  The
resource manager reports its per-invocation wall-clock overhead; the
executor reports job completions; :meth:`MetricsCollector.finalize` computes
the paper's O / N / T / P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.workload.entities import Job

#: The verbose :meth:`RunMetrics.as_dict` keys that are real solver wall
#: time (``time.perf_counter``).  They never replay identically, so every
#: determinism contract (chaos reruns, run diffs) leaves them out.
SOLVER_WALL_TIME_KEYS = (
    "solver_propagate_time",
    "solver_warm_start_time",
    "solver_tree_time",
    "solver_lns_time",
)


@dataclass
class RunMetrics:
    """Final metrics of one simulation run."""

    jobs_arrived: int
    jobs_completed: int
    late_jobs: int  # N
    proportion_late: float  # P, in [0, 1]
    avg_turnaround: float  # T, seconds of simulated time
    avg_sched_overhead: float  # O, wall-clock seconds per job
    total_sched_overhead: float
    scheduler_invocations: int
    makespan: int  # last completion time in the run
    late_job_ids: List[int] = field(default_factory=list)
    #: per-job turnaround times (for distribution analysis)
    turnarounds: Dict[int, int] = field(default_factory=dict)
    #: tardiness (completion - deadline, > 0) of each late job -- the
    #: severity behind N/P (how late the late jobs actually were)
    tardiness_by_job: Dict[int, int] = field(default_factory=dict)
    #: aggregated CP search statistics when MRCP-RM produced them
    solver_branches: int = 0
    solver_fails: int = 0
    solver_lns_iterations: int = 0
    #: ---- solver-phase profile (aggregated across invocations; zero
    #: unless the resource manager reported extended solve stats) ----
    #: individual propagator executions inside the CP engine
    solver_propagations: int = 0
    #: wall seconds in root propagation across all solves
    solver_propagate_time: float = 0.0
    #: wall seconds in list-scheduling warm starts (incl. hint replay)
    solver_warm_start_time: float = 0.0
    #: wall seconds in branch-and-bound tree search
    solver_tree_time: float = 0.0
    #: wall seconds in LNS improvement
    solver_lns_time: float = 0.0
    #: per-propagator-class effort: name -> {"runs", "prunes", "fails"}
    solver_propagators: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: which phase produced each invocation's plan: phase name -> count
    #: (phases: hint / warm_start / tree / lns / none)
    solves_by_phase: Dict[str, int] = field(default_factory=dict)
    #: per-invocation scheduling overhead, in invocation order (feeds the
    #: overhead CSV export; sums to ``total_sched_overhead``)
    overhead_series: List[float] = field(default_factory=list)
    #: simulated time of each invocation, parallel to ``overhead_series``
    #: (None for invocations recorded without a timeline, e.g. by older
    #: callers) -- lets overhead be correlated with arrivals and faults
    overhead_sim_times: List[Optional[float]] = field(default_factory=list)
    #: ---- failure attribution (all zero on the fault-free happy path) ----
    #: whether a fault injector was attached to the run
    faults_enabled: bool = False
    #: jobs abandoned after exhausting their retry budget
    jobs_failed: int = 0
    failed_job_ids: List[int] = field(default_factory=list)
    #: task attempts that died to an injected fault
    failures_injected: int = 0
    #: task attempts preempted by a resource outage
    tasks_killed: int = 0
    #: attempts whose realised duration exceeded the plan
    stragglers_injected: int = 0
    #: resource outage windows that opened
    outages: int = 0
    #: failed/killed attempts re-queued for another try
    retries: int = 0
    #: scheduler invocations triggered by fault recovery
    replans_on_failure: int = 0
    #: CP solves that degraded to the EDF warm-start fallback
    fallback_solves: int = 0
    #: ---- degradation ladder (empty unless a ladder mediated solves) ----
    #: which ladder rung produced each invocation's plan: rung -> count
    solves_by_rung: Dict[str, int] = field(default_factory=dict)
    #: circuit-breaker open transitions over the run
    breaker_opens: int = 0

    @property
    def percent_late(self) -> float:
        """P as a percentage, the unit used in the paper's figures."""
        return 100.0 * self.proportion_late

    def tardiness_percentile(self, q: float) -> float:
        """Nearest-rank percentile of late-job tardiness (0 with no lates)."""
        values = sorted(self.tardiness_by_job.values())
        if not values:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if q == 0:
            return float(values[0])
        rank = max(1, math.ceil(q / 100.0 * len(values)))
        return float(values[rank - 1])

    @property
    def mean_tardiness(self) -> float:
        """Mean tardiness over late jobs only (0 when every job made it)."""
        if not self.tardiness_by_job:
            return 0.0
        return sum(self.tardiness_by_job.values()) / len(self.tardiness_by_job)

    @property
    def max_tardiness(self) -> int:
        """Largest single deadline miss, in simulated seconds."""
        return max(self.tardiness_by_job.values(), default=0)

    def as_dict(self, verbose: bool = False) -> Dict[str, float]:
        """The paper's four metrics keyed O / N / T / P.

        Runs with fault injection (or a degraded solve) additionally report
        the failure-attribution counters; the fault-free happy path keeps
        exactly the paper's four keys, bit-identical to before.

        ``verbose=True`` appends the CP search-effort counters
        (``solver_branches`` / ``solver_fails`` / ``solver_lns_iterations``),
        the per-phase solver wall times, and the tardiness severity stats
        (mean/p50/p95/max over late jobs); the default stays the compact
        O/N/T/P dict so downstream comparisons and serialised results are
        unchanged.
        """
        d = {
            "O": self.avg_sched_overhead,
            "N": float(self.late_jobs),
            "T": self.avg_turnaround,
            "P": self.percent_late,
        }
        if self.faults_enabled or self.fallback_solves:
            d.update(
                {
                    "failures_injected": float(self.failures_injected),
                    "tasks_killed": float(self.tasks_killed),
                    "stragglers_injected": float(self.stragglers_injected),
                    "outages": float(self.outages),
                    "retries": float(self.retries),
                    "replans_on_failure": float(self.replans_on_failure),
                    "fallback_solves": float(self.fallback_solves),
                    "jobs_failed": float(self.jobs_failed),
                }
            )
        if self.solves_by_rung:
            for rung, count in sorted(self.solves_by_rung.items()):
                d[f"ladder_{rung}"] = float(count)
            d["breaker_opens"] = float(self.breaker_opens)
        if verbose:
            d.update(
                {
                    "solver_branches": float(self.solver_branches),
                    "solver_fails": float(self.solver_fails),
                    "solver_lns_iterations": float(self.solver_lns_iterations),
                    "solver_propagations": float(self.solver_propagations),
                }
            )
            d.update((k, getattr(self, k)) for k in SOLVER_WALL_TIME_KEYS)
            d.update(
                {
                    "tardiness_mean": self.mean_tardiness,
                    "tardiness_p50": self.tardiness_percentile(50),
                    "tardiness_p95": self.tardiness_percentile(95),
                    "tardiness_max": float(self.max_tardiness),
                }
            )
        return d


class MetricsCollector:
    """Accumulates events during one run."""

    def __init__(self) -> None:
        self._arrived: Dict[int, Job] = {}
        self._completed: Dict[int, int] = {}  # job id -> completion time
        self._failed: Dict[int, int] = {}  # job id -> failure time
        self._overhead_total = 0.0
        self._overhead_series: List[float] = []
        self._overhead_times: List[Optional[float]] = []
        self._invocations = 0
        # Incremental N / T numerators so live_summary() is O(1) and
        # agrees exactly with finalize()'s recomputation.
        self._late_count = 0
        self._turnaround_sum = 0
        self.solver_branches = 0
        self.solver_fails = 0
        self.solver_lns_iterations = 0
        self.solver_propagations = 0
        self.solver_propagate_time = 0.0
        self.solver_warm_start_time = 0.0
        self.solver_tree_time = 0.0
        self.solver_lns_time = 0.0
        self._solver_propagators: Dict[str, Dict[str, int]] = {}
        self._solves_by_phase: Dict[str, int] = {}
        self._solves_by_rung: Dict[str, int] = {}
        self.breaker_opens = 0
        self.faults_enabled = False
        self.failures_injected = 0
        self.tasks_killed = 0
        self.stragglers_injected = 0
        self.outages = 0
        self.retries = 0
        self.replans_on_failure = 0
        self.fallback_solves = 0

    # -------------------------------------------------------------- events
    def job_arrived(self, job: Job) -> None:
        """Record a job submission (the denominator of P)."""
        if job.id in self._arrived:
            raise ValueError(f"job {job.id} arrived twice")
        self._arrived[job.id] = job

    def job_completed(self, job: Job, time: float) -> None:
        """Record a job's completion time (feeds N, T, P)."""
        if job.id in self._completed:
            raise ValueError(f"job {job.id} completed twice")
        if job.id in self._failed:
            raise ValueError(f"job {job.id} completed after failing")
        ct = int(time)
        self._completed[job.id] = ct
        self._turnaround_sum += ct - job.earliest_start
        if ct > job.deadline:
            self._late_count += 1

    def record_overhead(
        self, wall_seconds: float, sim_time: Optional[float] = None
    ) -> None:
        """Add one scheduler invocation's wall-clock cost (feeds O).

        ``sim_time`` stamps the invocation on the simulated timeline so
        the overhead series can be correlated with arrivals and faults.
        """
        self._overhead_total += wall_seconds
        self._overhead_series.append(wall_seconds)
        self._overhead_times.append(sim_time)
        self._invocations += 1

    def record_solver_stats(
        self,
        branches: int,
        fails: int,
        lns: int,
        propagations: int = 0,
        propagate_time: float = 0.0,
        warm_start_time: float = 0.0,
        tree_time: float = 0.0,
        lns_time: float = 0.0,
    ) -> None:
        """Accumulate CP search effort counters across invocations.

        The three positional counters match the original signature; the
        keyword phase timings are reported when the resource manager passes
        extended :class:`~repro.cp.solution.SearchStats` through.
        """
        self.solver_branches += branches
        self.solver_fails += fails
        self.solver_lns_iterations += lns
        self.solver_propagations += propagations
        self.solver_propagate_time += propagate_time
        self.solver_warm_start_time += warm_start_time
        self.solver_tree_time += tree_time
        self.solver_lns_time += lns_time

    def record_solve_profile(self, profile) -> None:
        """Fold one solve's :class:`~repro.cp.solution.SolveProfile` in.

        Accumulates per-propagator-class counters and tallies which phase
        produced the plan (``solved_by``).  Accepts ``None`` so callers can
        pass ``result.profile`` unconditionally.
        """
        if profile is None:
            return
        self._solves_by_phase[profile.solved_by] = (
            self._solves_by_phase.get(profile.solved_by, 0) + 1
        )
        for name, counts in profile.propagators.items():
            mine = self._solver_propagators.setdefault(
                name, {"runs": 0, "prunes": 0, "fails": 0}
            )
            for key in ("runs", "prunes", "fails"):
                mine[key] += counts.get(key, 0)

    # ------------------------------------------------------- fault events
    def enable_fault_tracking(self) -> None:
        """Mark the run as fault-injected (adds counters to ``as_dict``)."""
        self.faults_enabled = True

    def task_failed(self, reason: str) -> None:
        """One running attempt died: ``"failure"`` (hazard) or ``"outage"``."""
        if reason == "outage":
            self.tasks_killed += 1
        else:
            self.failures_injected += 1

    def task_straggled(self) -> None:
        """One attempt's realised duration exceeded its planned duration."""
        self.stragglers_injected += 1

    def task_retry(self) -> None:
        """One failed/killed attempt was re-queued for another try."""
        self.retries += 1

    def outage_started(self) -> None:
        """One resource outage window opened."""
        self.outages += 1

    def replan_on_failure(self) -> None:
        """One scheduler invocation was triggered by fault recovery."""
        self.replans_on_failure += 1

    def fallback_solve(self) -> None:
        """One CP solve degraded to the EDF warm-start fallback."""
        self.fallback_solves += 1

    def ladder_solve(self, rung: str) -> None:
        """One degradation-ladder solve produced its plan on ``rung``."""
        self._solves_by_rung[rung] = self._solves_by_rung.get(rung, 0) + 1

    def breaker_opened(self) -> None:
        """One circuit breaker tripped open."""
        self.breaker_opens += 1

    def job_failed(self, job: Job, time: float) -> None:
        """Record a job abandoned after exhausting its retry budget."""
        if job.id in self._failed:
            raise ValueError(f"job {job.id} failed twice")
        if job.id in self._completed:
            raise ValueError(f"job {job.id} failed after completing")
        self._failed[job.id] = int(time)

    # ------------------------------------------------------------- results
    @property
    def jobs_arrived(self) -> int:
        return len(self._arrived)

    @property
    def jobs_completed(self) -> int:
        return len(self._completed)

    @property
    def jobs_failed(self) -> int:
        return len(self._failed)

    @property
    def invocations(self) -> int:
        return self._invocations

    def completion_time(self, job_id: int) -> Optional[int]:
        """Completion time of ``job_id``, or None while running."""
        return self._completed.get(job_id)

    def live_summary(self) -> Dict[str, float]:
        """The paper's O / N / T / P over the run *so far*, in O(1).

        Maintained incrementally so the telemetry sampler can read it at
        every sampling instant; after the run drains it equals
        ``finalize().as_dict()`` exactly (same numerators, same
        denominators).
        """
        n_arrived = len(self._arrived)
        n_completed = len(self._completed)
        return {
            "O": self._overhead_total / n_arrived if n_arrived else 0.0,
            "N": float(self._late_count),
            "T": (
                self._turnaround_sum / n_completed if n_completed else 0.0
            ),
            "P": (
                100.0 * self._late_count / n_arrived if n_arrived else 0.0
            ),
        }

    def state_snapshot(self, deterministic: bool = True) -> Dict[str, object]:
        """The collector's mid-run state, as comparable JSON-safe data.

        Used by checkpoint/restore to prove a replayed run reconstructed
        the exact accounting.  ``deterministic=False`` drops the parts that
        only replay identically under a pinned clock and a fail-limited
        solver (the overhead series and the CP search-effort counters);
        everything else is a pure function of the seeded event sequence.
        """
        snap: Dict[str, object] = {
            "arrived": sorted(self._arrived),
            "completed": {str(k): v for k, v in sorted(self._completed.items())},
            "failed": {str(k): v for k, v in sorted(self._failed.items())},
            "faults_enabled": self.faults_enabled,
            "failures_injected": self.failures_injected,
            "tasks_killed": self.tasks_killed,
            "stragglers_injected": self.stragglers_injected,
            "outages": self.outages,
            "retries": self.retries,
            "replans_on_failure": self.replans_on_failure,
            "fallback_solves": self.fallback_solves,
            "breaker_opens": self.breaker_opens,
            "solves_by_phase": dict(sorted(self._solves_by_phase.items())),
            "solves_by_rung": dict(sorted(self._solves_by_rung.items())),
            "invocations": self._invocations,
            # Invocation sim-times replay identically under any wall clock
            # (they come off the simulation clock).
            "overhead_sim_times": list(self._overhead_times),
        }
        if deterministic:
            snap["overhead_series"] = list(self._overhead_series)
            snap["solver_effort"] = {
                "branches": self.solver_branches,
                "fails": self.solver_fails,
                "lns_iterations": self.solver_lns_iterations,
                "propagations": self.solver_propagations,
            }
        return snap

    def finalize(self) -> RunMetrics:
        """Compute O / N / T / P over the completed jobs."""
        late_ids: List[int] = []
        turnarounds: Dict[int, int] = {}
        tardiness: Dict[int, int] = {}
        for job_id, ct in self._completed.items():
            job = self._arrived[job_id]
            turnarounds[job_id] = ct - job.earliest_start
            if ct > job.deadline:
                late_ids.append(job_id)
                tardiness[job_id] = ct - job.deadline
        n_arrived = len(self._arrived)
        n_completed = len(self._completed)
        avg_turnaround = (
            sum(turnarounds.values()) / n_completed if n_completed else 0.0
        )
        return RunMetrics(
            jobs_arrived=n_arrived,
            jobs_completed=n_completed,
            late_jobs=len(late_ids),
            proportion_late=(len(late_ids) / n_arrived) if n_arrived else 0.0,
            avg_turnaround=avg_turnaround,
            avg_sched_overhead=(
                self._overhead_total / n_arrived if n_arrived else 0.0
            ),
            total_sched_overhead=self._overhead_total,
            scheduler_invocations=self._invocations,
            makespan=max(self._completed.values(), default=0),
            late_job_ids=sorted(late_ids),
            turnarounds=turnarounds,
            tardiness_by_job=dict(sorted(tardiness.items())),
            solver_branches=self.solver_branches,
            solver_fails=self.solver_fails,
            solver_lns_iterations=self.solver_lns_iterations,
            solver_propagations=self.solver_propagations,
            solver_propagate_time=self.solver_propagate_time,
            solver_warm_start_time=self.solver_warm_start_time,
            solver_tree_time=self.solver_tree_time,
            solver_lns_time=self.solver_lns_time,
            solver_propagators={
                name: dict(counts)
                for name, counts in sorted(self._solver_propagators.items())
            },
            solves_by_phase=dict(sorted(self._solves_by_phase.items())),
            overhead_series=list(self._overhead_series),
            overhead_sim_times=list(self._overhead_times),
            faults_enabled=self.faults_enabled,
            jobs_failed=len(self._failed),
            failed_job_ids=sorted(self._failed),
            failures_injected=self.failures_injected,
            tasks_killed=self.tasks_killed,
            stragglers_injected=self.stragglers_injected,
            outages=self.outages,
            retries=self.retries,
            replans_on_failure=self.replans_on_failure,
            fallback_solves=self.fallback_solves,
            solves_by_rung=dict(sorted(self._solves_by_rung.items())),
            breaker_opens=self.breaker_opens,
        )
