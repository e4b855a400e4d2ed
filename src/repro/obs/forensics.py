"""SLA forensics: per-job lateness attribution.

The paper interprets every figure through *why* jobs miss deadlines --
resource contention delaying starts past :math:`s_j`, scheduling overhead,
deadline tightness -- but O/N/T/P only count the misses.  This module
answers "why was job 17 late?" for a traced run: each late job's tardiness
``C_j - d_j`` is decomposed into four nonnegative additive components that
**provably sum to the measured tardiness**:

* ``contention`` -- slot-contention wait: time the job's first task start
  slipped past the SLA earliest start :math:`s_j` while the job was
  eligible (the paper's primary explanation of lateness);
* ``solver`` -- solver-induced delay: wall-clock scheduling overhead spent
  on invocations between the job's arrival and its first task start (the
  share of the paper's O metric the job waited through);
* ``fault`` -- fault-induced delay: slot time burned by failed/killed
  attempts of the job's tasks plus straggler inflation (actual duration
  beyond the planned one) on completed attempts;
* ``residual`` -- residual execution: the remainder -- lateness explained
  by the job's execution span against its slack (deadline tightness)
  rather than by anything the cluster did to it.

Inputs are the run's trace event stream (the executor's per-attempt sim
spans and ``task.failed`` instants, the scheduler's invocation spans) plus,
optionally, the :class:`~repro.core.mrcp_rm.PlanRecord` history, which
carries per-invocation overhead stamped with simulated time and is the
preferred source for the solver component.

Attribution is a *capped waterfall*: the raw (independently measured)
delays are applied against the tardiness in the fixed order contention ->
solver -> fault, each capped by what remains, and the residual takes the
rest.  All arithmetic is done in integer microseconds, so
``sum(components_us.values()) == tardiness_us`` holds exactly -- the
property test in ``tests/integration`` enforces it across seeded fault and
fault-free runs.  The raw uncapped measures are kept on the result for
transparency (they may overlap and may exceed the tardiness; the capping
is what makes the decomposition additive).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.ioutil import read_json, read_jsonl
from repro.obs.trace import SIM_PID, WALL_PID

if TYPE_CHECKING:  # import cycle: repro.cp -> repro.obs -> repro.metrics
    from repro.metrics.collector import RunMetrics

#: Microseconds per second: trace timestamps and the attribution
#: components are integer microseconds.
US = 1_000_000

#: The four additive lateness components, in waterfall order.
COMPONENTS = ("contention", "solver", "fault", "residual")

#: Display label of each component (report tables, legends, tooltips).
COMPONENT_LABEL = {
    "contention": "slot contention",
    "solver": "solver delay",
    "fault": "fault recovery",
    "residual": "residual execution",
}


@dataclass(frozen=True)
class AttemptRecord:
    """One task execution attempt reconstructed from the trace stream."""

    task_id: str
    job_id: int
    resource_id: int
    kind: str  # "MAP" | "REDUCE"
    slot: int
    start: float  # simulated seconds
    end: float  # simulated seconds (completion or death)
    outcome: str  # "completed" | "failed" | "outage"
    #: planned (nominal) duration when runtime perturbation changed it
    planned: Optional[int] = None

    @property
    def duration(self) -> float:
        """Simulated seconds the attempt occupied its slot."""
        return self.end - self.start

    @property
    def inflation(self) -> float:
        """Straggler inflation: actual minus planned duration (>= 0)."""
        if self.planned is None:
            return 0.0
        return max(self.duration - self.planned, 0.0)


def load_trace_events(path: str) -> List[Dict[str, Any]]:
    """Load trace events from a Chrome trace JSON or a JSONL event log.

    ``.jsonl`` files hold one event per line (the trailing
    ``metrics.snapshot`` line is skipped); anything else is the Chrome
    document, whose ``traceEvents`` array is returned.  A damaged file
    raises ``ValueError`` naming it (:mod:`repro.ioutil`).
    """
    if path.endswith(".jsonl"):
        return [ev for ev in read_jsonl(path) if ev.get("name") != "metrics.snapshot"]
    return list(read_json(path).get("traceEvents", []))


def parse_attempts(events: Iterable[Mapping[str, Any]]) -> List[AttemptRecord]:
    """Reconstruct every task attempt from the trace event stream.

    Completed attempts come from the executor's sim-timeline spans (``cat
    == "task"``); failed/killed attempts from ``task.failed`` instants,
    whose args carry the attempt's start and placement (the attempt has no
    completion span).
    """
    attempts: List[AttemptRecord] = []
    for ev in events:
        args = ev.get("args") or {}
        if ev.get("ph") == "X" and ev.get("cat") == "task":
            start = ev["ts"] / US
            attempts.append(
                AttemptRecord(
                    task_id=str(ev.get("name")),
                    job_id=int(args["job"]),
                    resource_id=int(ev.get("tid", 0)),
                    kind=str(args.get("kind", "MAP")),
                    slot=int(args.get("slot", 0)),
                    start=start,
                    end=(ev["ts"] + ev.get("dur", 0)) / US,
                    outcome="completed",
                    planned=args.get("planned"),
                )
            )
        elif ev.get("ph") == "i" and ev.get("name") == "task.failed":
            attempts.append(
                AttemptRecord(
                    task_id=str(args.get("task")),
                    job_id=int(args["job"]),
                    resource_id=int(args.get("resource", -1)),
                    kind=str(args.get("kind", "MAP")),
                    slot=int(args.get("slot", 0)),
                    start=float(args.get("start", ev["ts"] / US)),
                    end=ev["ts"] / US,
                    outcome=str(args.get("reason", "failed")),
                )
            )
    attempts.sort(key=lambda a: (a.start, a.task_id))
    return attempts


def outage_windows(
    events: Iterable[Mapping[str, Any]],
) -> List[Dict[str, float]]:
    """Pair ``fault.outage`` / ``fault.recovery`` instants per resource.

    Returns ``{"resource", "start", "end"}`` dicts; an outage without a
    recovery in the trace is left open-ended (``end`` = last event time).
    """
    opens: Dict[int, float] = {}
    windows: List[Dict[str, float]] = []
    horizon = 0.0
    for ev in events:
        if ev.get("pid") == SIM_PID and "ts" in ev:
            horizon = max(horizon, (ev["ts"] + ev.get("dur", 0)) / US)
        if ev.get("ph") != "i":
            continue
        args = ev.get("args") or {}
        if ev.get("name") == "fault.outage":
            opens[int(args.get("resource", -1))] = ev["ts"] / US
        elif ev.get("name") == "fault.recovery":
            rid = int(args.get("resource", -1))
            start = opens.pop(rid, None)
            if start is not None:
                windows.append({"resource": rid, "start": start, "end": ev["ts"] / US})
    for rid, start in opens.items():
        windows.append({"resource": rid, "start": start, "end": horizon})
    windows.sort(key=lambda w: (w["start"], w["resource"]))
    return windows


@dataclass(frozen=True)
class LatenessAttribution:
    """Why one late job was late: an additive tardiness decomposition.

    The four ``*_us`` components are integer microseconds and sum exactly
    to ``tardiness_us``; the ``raw_*`` fields are the uncapped measured
    delays they were derived from (kept for transparency -- they may
    overlap and exceed the tardiness).
    """

    job_id: int
    tardiness_us: int
    contention_us: int
    solver_us: int
    fault_us: int
    residual_us: int
    raw_contention: float  # seconds, uncapped
    raw_solver: float
    raw_fault: float
    first_start: Optional[float]  # simulated seconds; None if untraced
    completion: float  # simulated seconds
    #: Plan-history invocations between arrival and completion whose plan
    #: came from a degradation-ladder rung below the full CP solve -- a
    #: late job shaped by degraded planning is flagged, not just timed.
    degraded_plans: int = 0

    @property
    def tardiness(self) -> float:
        """Measured tardiness in seconds (completion minus deadline)."""
        return self.tardiness_us / US

    @property
    def components_us(self) -> Dict[str, int]:
        """The decomposition in integer microseconds (sums exactly)."""
        return {name: getattr(self, f"{name}_us") for name in COMPONENTS}

    @property
    def components(self) -> Dict[str, float]:
        """The decomposition in seconds (floating-point view)."""
        return {k: v / US for k, v in self.components_us.items()}

    def dominant(self) -> str:
        """Name of the largest component (ties break in waterfall order)."""
        parts = self.components_us
        return max(parts, key=lambda k: parts[k])

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering (``LatenessAttribution(**row)`` rebuilds it).

        This is the shape persisted into a run directory's
        ``forensics.json`` so two runs can be diffed without re-parsing
        their traces (:mod:`repro.obs.diff`).
        """
        return asdict(self)


def _first_starts(attempts: Sequence[AttemptRecord]) -> Dict[int, float]:
    starts: Dict[int, float] = {}
    for a in attempts:
        prev = starts.get(a.job_id)
        if prev is None or a.start < prev:
            starts[a.job_id] = a.start
    return starts


def _solver_overhead_us(
    job_arrival: int,
    first_start: Optional[float],
    plan_history: Optional[Sequence] = None,
    events: Optional[Iterable[Mapping[str, Any]]] = None,
) -> int:
    """Wall overhead (µs) of invocations between arrival and first start."""
    if first_start is None:
        return 0
    total = 0
    if plan_history:
        for rec in plan_history:
            if job_arrival <= rec.t <= first_start:
                total += int(round(rec.overhead * US))
        return total
    if events is None:
        return 0
    for ev in events:
        if (
            ev.get("ph") == "X"
            and ev.get("name") == "scheduler.invocation"
            and ev.get("pid") == WALL_PID
        ):
            sim_time = (ev.get("args") or {}).get("sim_time")
            if sim_time is None:
                continue
            if job_arrival <= sim_time <= first_start:
                total += int(ev.get("dur", 0))
    return total


def attribute_lateness(
    metrics: RunMetrics,
    jobs: Sequence,
    events: Iterable[Mapping[str, Any]],
    plan_history: Optional[Sequence] = None,
) -> List[LatenessAttribution]:
    """Decompose every late job's tardiness into its four components.

    ``metrics`` supplies completions and tardiness, ``jobs`` the SLAs,
    ``events`` the trace stream (in-memory recorder events, or loaded via
    :func:`load_trace_events`), and ``plan_history`` -- when the run kept
    one -- the per-invocation overhead samples for the solver component.
    Returns one :class:`LatenessAttribution` per late job, sorted by id.
    """
    events = list(events)
    attempts = parse_attempts(events)
    first_start = _first_starts(attempts)
    job_by_id = {job.id: job for job in jobs}

    # Raw fault time per job: failed-attempt occupancy + straggler
    # inflation on completed attempts, both in microseconds.
    fault_us: Dict[int, int] = {}
    for a in attempts:
        lost = 0.0
        if a.outcome != "completed":
            lost = a.duration
        elif a.planned is not None:
            lost = a.inflation
        if lost > 0:
            fault_us[a.job_id] = fault_us.get(a.job_id, 0) + int(round(lost * US))

    out: List[LatenessAttribution] = []
    for job_id in sorted(metrics.tardiness_by_job):
        job = job_by_id.get(job_id)
        if job is None:
            continue
        tardiness_us = int(metrics.tardiness_by_job[job_id]) * US
        completion = job.earliest_start + metrics.turnarounds[job_id]
        fs = first_start.get(job_id)
        raw_contention_us = (
            max(int(round((fs - job.earliest_start) * US)), 0) if fs is not None else 0
        )
        raw_solver_us = _solver_overhead_us(job.arrival_time, fs, plan_history, events)
        raw_fault_us = fault_us.get(job_id, 0)
        degraded = 0
        if plan_history:
            degraded = sum(
                1
                for rec in plan_history
                if job.arrival_time <= rec.t <= completion
                and rec.rung != "cp_full"
            )

        remaining = tardiness_us
        contention = min(raw_contention_us, remaining)
        remaining -= contention
        solver = min(raw_solver_us, remaining)
        remaining -= solver
        fault = min(raw_fault_us, remaining)
        remaining -= fault

        out.append(
            LatenessAttribution(
                job_id=job_id,
                tardiness_us=tardiness_us,
                contention_us=contention,
                solver_us=solver,
                fault_us=fault,
                residual_us=remaining,
                raw_contention=raw_contention_us / US,
                raw_solver=raw_solver_us / US,
                raw_fault=raw_fault_us / US,
                first_start=fs,
                completion=float(completion),
                degraded_plans=degraded,
            )
        )
    return out


def format_attributions(attributions: Sequence[LatenessAttribution]) -> str:
    """Console table of the decomposition (seconds, one late job per row)."""
    if not attributions:
        return "no late jobs: nothing to attribute"
    header = (
        f"{'job':>5s} {'tardy':>9s} {'contention':>11s} {'solver':>9s} "
        f"{'fault':>9s} {'residual':>9s}  dominant"
    )
    lines = [header, "-" * len(header)]
    for a in attributions:
        c = a.components
        flag = f" [degraded x{a.degraded_plans}]" if a.degraded_plans else ""
        lines.append(
            f"{a.job_id:>5d} {a.tardiness:>9.1f} {c['contention']:>11.1f} "
            f"{c['solver']:>9.3f} {c['fault']:>9.1f} {c['residual']:>9.1f}"
            f"  {a.dominant()}{flag}"
        )
    return "\n".join(lines)
