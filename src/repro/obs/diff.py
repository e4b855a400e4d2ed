"""Differential observability: a deterministic run-diff engine.

The repo's gates can *detect* drift -- the behaviour pins flag a changed
pinned metric, the checkpoint restore path flags a forked replay -- but
could not *localise or explain* one.  This module closes that gap: it
takes two runs (two seeds, two configs, or two code versions replaying
the same pinned config) and produces a structured explanation of how they
differ, in three layers:

1. **First divergence** -- Chrome-trace events are canonicalised
   (metadata dropped, wall-timeline timestamps quarantined the same way
   the sweep artifacts quarantine wall clocks) and aligned with a
   longest-common-subsequence diff, localising the *first divergent
   event*: its stream index, simulated time, and both sides' events.  The
   :class:`~repro.core.mrcp_rm.PlanRecord` histories pin the earliest
   scheduler invocation whose plan differs (:func:`first_divergent_plan`).
2. **Delta forensics** -- the per-job lateness attributions of
   :mod:`repro.obs.forensics` become per-job *delta waterfalls*: which
   jobs got later or earlier and which component (contention, solver,
   fault, residual) moved, in integer microseconds that sum exactly to
   each job's tardiness delta.  Telemetry series (queue depth, slot
   utilization) are aligned by simulated time into overlay deltas.
3. **Surfaces** -- a machine-readable ``diff.json`` (schema
   ``repro-diff/1``), the ``mrcp-rm diff`` CLI subcommand, and a
   self-contained HTML diff report (:mod:`repro.obs.diffreport`).

Both run directories (written by :func:`capture_run_dir`) and merged
sweep artifacts (``sweep.json`` vs ``sweep.json``, per-cell verdicts) can
be diffed.  A same-seed self-diff reports zero divergence; any future
perf or sharding PR runs this engine to prove "no semantic drift" -- or
to explain intentional drift, job by job.  Every input is read through
:mod:`repro.ioutil`: a missing or damaged file raises ``ValueError``
naming it, which ``mrcp-rm diff`` reports as unreadable (exit 2), never
as a divergence (exit 1).

Heavy run machinery (:mod:`repro.experiments.runner`,
:mod:`repro.resilience.checkpoint`) is imported lazily inside
:func:`capture_run_dir`, so this module stays importable from
``repro.obs`` without cycles.
"""

from __future__ import annotations

import difflib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.ioutil import atomic_write_json, read_json
from repro.metrics.collector import SOLVER_WALL_TIME_KEYS
from repro.obs.conformance import validate_trace_events
from repro.obs.forensics import COMPONENTS, US, attribute_lateness, load_trace_events
from repro.obs.structdiff import DiffEntry, structural_diff
from repro.obs.timeseries import read_series_jsonl
from repro.obs.trace import SIM_PID

#: Schema tag stamped on every diff document this engine emits.
DIFF_SCHEMA = "repro-diff/1"

#: Schema tags of the per-run artifacts inside a captured run directory.
RUN_SCHEMA = "repro-run/1"
FORENSICS_SCHEMA = "repro-forensics/1"
PLANS_SCHEMA = "repro-plans/1"

#: Merged sweep artifact schema (mirrors repro.experiments.pool).
_SWEEP_SCHEMA = "repro-sweep/1"

#: PlanRecord fields that define the *plan* (overhead is wall-clock
#: bookkeeping, not plan semantics -- two budgets trivially differ in it).
_PLAN_COMPARED = ("t", "outcome", "trigger", "rung", "planned_starts")

#: Trace event args quarantined from canonical comparison (wall seconds).
_QUARANTINED_EVENT_ARGS = frozenset({"overhead", "wall"})

#: Verbose metric keys excluded from canonical comparison.  The four time
#: keys are raw ``perf_counter`` readings (the solver phase profile): unlike
#: O -- measured through the *pinned* wall clock -- they never replay
#: identically.  ``solver_propagations`` counts fixpoint *effort* (how many
#: propagator executions reached the fixpoint), which any change to wake
#: scheduling or propagator incrementality legitimately alters without
#: moving a single plan; the diff contract compares plan semantics
#: (O/N/T/P, plans, forensics, the event spine), so effort counters are
#: quarantined alongside the clocks.  ``solver_fails``/``solver_branches``
#: stay compared -- they pin the search *tree*, not the effort.
QUARANTINED_METRIC_KEYS = frozenset(SOLVER_WALL_TIME_KEYS + ("solver_propagations",))

#: Stored overlay points per series field are capped so diff.json stays a
#: reviewable CI artifact even for long runs.
_MAX_OVERLAY_POINTS = 500


# --------------------------------------------------------------------------
# Layer 1: event-stream canonicalisation and alignment
# --------------------------------------------------------------------------


def canonicalize_events(
    events: Iterable[Mapping[str, Any]],
) -> Tuple[List[Dict[str, Any]], List[Optional[float]]]:
    """Canonical comparison forms of a trace stream, plus sim-time hints.

    Canonicalisation applies the determinism quarantine: Chrome metadata
    events (``ph == "M"``) are dropped, wall-timeline events lose their
    ``ts``/``dur`` (real clock readings never replay identically; the
    pinned-clock case loses nothing semantic because the same information
    is in the event *order*), and wall-second arg keys are removed.
    Sim-timeline events keep their integer timestamps -- they are the
    deterministic spine the first divergence is located on.

    Returns ``(canonical, sim_times)`` -- parallel lists; ``sim_times[i]``
    is the event's own simulated time in seconds when it has one.
    """
    canonical: List[Dict[str, Any]] = []
    sim_times: List[Optional[float]] = []
    for ev in events:
        if ev.get("ph") == "M" or ev.get("name") == "metrics.snapshot":
            continue
        canon: Dict[str, Any] = {
            k: ev[k] for k in ("name", "cat", "ph", "pid", "tid", "s") if k in ev
        }
        sim_time: Optional[float] = None
        if ev.get("pid") == SIM_PID:
            for k in ("ts", "dur"):
                if k in ev:
                    canon[k] = ev[k]
            if "ts" in ev:
                sim_time = ev["ts"] / US
        args = ev.get("args")
        if isinstance(args, dict):
            canon["args"] = {
                k: v for k, v in args.items() if k not in _QUARANTINED_EVENT_ARGS
            }
            if sim_time is None and isinstance(args.get("sim_time"), (int, float)):
                sim_time = float(args["sim_time"])
        canonical.append(canon)
        sim_times.append(sim_time)
    return canonical, sim_times


@dataclass
class EventAlignment:
    """Outcome of aligning two canonicalised trace streams."""

    total_a: int
    total_b: int
    #: Events matched by the LCS (equal canonical forms, in order).
    matched: int
    #: Canonical events only in a / only in b (LCS insertions/deletions).
    only_a: int
    only_b: int
    #: First stream index where the canonical streams differ (common
    #: prefix length); None when one stream is a prefix of the other and
    #: both are equal, i.e. no divergence.
    first_divergence: Optional[Dict[str, Any]] = None
    #: Conformance problems found while validating either stream.
    problems: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.first_divergence is None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary of the alignment statistics."""
        return {**asdict(self), "identical": self.identical}


def align_events(
    events_a: Iterable[Mapping[str, Any]],
    events_b: Iterable[Mapping[str, Any]],
    validate: bool = True,
) -> EventAlignment:
    """Align two trace streams; localise the first divergent event.

    The first divergence is the common-prefix length of the canonical
    streams; the LCS (via :class:`difflib.SequenceMatcher`) additionally
    yields how much of the streams still matches *after* the divergence --
    "one extra re-plan, everything else identical" reads very differently
    from "nothing aligns past event 312".
    """
    events_a = list(events_a)
    events_b = list(events_b)
    problems: List[str] = []
    if validate:
        problems += [f"a: {p}" for p in validate_trace_events(events_a)]
        problems += [f"b: {p}" for p in validate_trace_events(events_b)]
    canon_a, times_a = canonicalize_events(events_a)
    canon_b, times_b = canonicalize_events(events_b)
    keys_a = [json.dumps(e, sort_keys=True) for e in canon_a]
    keys_b = [json.dumps(e, sort_keys=True) for e in canon_b]

    matcher = difflib.SequenceMatcher(None, keys_a, keys_b, autojunk=False)
    matched = sum(size for _, _, size in matcher.get_matching_blocks())

    prefix = 0
    for ka, kb in zip(keys_a, keys_b):
        if ka != kb:
            break
        prefix += 1
    divergence: Optional[Dict[str, Any]] = None
    if prefix < max(len(keys_a), len(keys_b)) and not (
        prefix == min(len(keys_a), len(keys_b)) == max(len(keys_a), len(keys_b))
    ):
        # Sim time of the divergence: the diverging events' own sim time
        # when they carry one, else the last sim instant of the common
        # prefix (the divergence happened "at or after" that time).
        t_candidates = [
            t
            for t in (
                times_a[prefix] if prefix < len(times_a) else None,
                times_b[prefix] if prefix < len(times_b) else None,
            )
            if t is not None
        ]
        if not t_candidates:
            prior = [t for t in times_a[:prefix] if t is not None]
            t_candidates = [prior[-1]] if prior else [0.0]
        divergence = {
            "index": prefix,
            "sim_time": min(t_candidates),
            "a": canon_a[prefix] if prefix < len(canon_a) else None,
            "b": canon_b[prefix] if prefix < len(canon_b) else None,
        }
    return EventAlignment(
        total_a=len(canon_a),
        total_b=len(canon_b),
        matched=matched,
        only_a=len(canon_a) - matched,
        only_b=len(canon_b) - matched,
        first_divergence=divergence,
        problems=problems,
    )


# --------------------------------------------------------------------------
# Layer 2a: per-job delta waterfalls
# --------------------------------------------------------------------------


def delta_waterfalls(
    rows_a: Sequence[Mapping[str, Any]],
    rows_b: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Per-job tardiness deltas decomposed by lateness component.

    ``rows_a``/``rows_b`` are attribution rows
    (:meth:`~repro.obs.forensics.LatenessAttribution.as_dict`).  A job
    late in only one run contributes its full (dis)appearing tardiness.
    Each entry's ``components_us`` sum *exactly* to its ``delta_us`` --
    both sides' components sum exactly to their tardiness, so the
    integer-microsecond differences inherit the property.  Jobs with a
    zero delta and identical components are omitted.
    """
    by_a = {int(r["job_id"]): r for r in rows_a}
    by_b = {int(r["job_id"]): r for r in rows_b}
    out: List[Dict[str, Any]] = []
    for job_id in sorted(set(by_a) | set(by_b)):
        a = by_a.get(job_id)
        b = by_b.get(job_id)
        ta = int(a["tardiness_us"]) if a else 0
        tb = int(b["tardiness_us"]) if b else 0
        components = {
            name: (int(b[f"{name}_us"]) if b else 0)
            - (int(a[f"{name}_us"]) if a else 0)
            for name in COMPONENTS
        }
        delta = tb - ta
        if delta == 0 and not any(components.values()):
            continue
        if a is None:
            direction = "appeared"
        elif b is None:
            direction = "disappeared"
        elif delta > 0:
            direction = "later"
        elif delta < 0:
            direction = "earlier"
        else:
            direction = "shifted"  # same tardiness, different composition
        out.append(
            {
                "job_id": job_id,
                "tardiness_a_us": ta,
                "tardiness_b_us": tb,
                "delta_us": delta,
                "components_us": components,
                "direction": direction,
            }
        )
    return out


# --------------------------------------------------------------------------
# Layer 2b: series overlay deltas
# --------------------------------------------------------------------------


def _flatten_sample(sample: Mapping[str, Any]) -> Dict[str, float]:
    """Numeric fields of one telemetry sample, probes/counters prefixed."""
    flat: Dict[str, float] = {}
    for key, value in sample.items():
        if key in ("seq", "final"):
            continue
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            flat[key] = float(value)
        elif key in ("probes", "counters") and isinstance(value, dict):
            for sub, v in value.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    flat[f"{key}.{sub}"] = float(v)
    return flat


def diff_series(
    samples_a: Sequence[Mapping[str, Any]],
    samples_b: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Align two telemetry series by simulated time; report field deltas.

    Returns ``{"aligned", "only_a", "only_b", "changed", "overlays"}``:
    ``changed`` maps each diverging field to its max |delta| and the first
    simulated time it diverged at; ``overlays`` carries bounded
    ``[t, a, b]`` point lists for the HTML report's overlay strips.
    """
    by_t_a = {float(s.get("sim_time", 0.0)): _flatten_sample(s) for s in samples_a}
    by_t_b = {float(s.get("sim_time", 0.0)): _flatten_sample(s) for s in samples_b}
    shared = sorted(set(by_t_a) & set(by_t_b))
    fields = set()
    for flat in list(by_t_a.values()) + list(by_t_b.values()):
        fields.update(flat)
    changed: Dict[str, Dict[str, float]] = {}
    overlays: Dict[str, List[List[float]]] = {}
    for name in sorted(fields):
        points: List[List[float]] = []
        max_abs = 0.0
        first_t: Optional[float] = None
        for t in shared:
            va = by_t_a[t].get(name)
            vb = by_t_b[t].get(name)
            if va is None and vb is None:
                continue
            points.append([t, va, vb])
            if va != vb:
                delta = abs((vb or 0.0) - (va or 0.0))
                max_abs = max(max_abs, delta)
                if first_t is None:
                    first_t = t
        if first_t is not None:
            changed[name] = {"max_abs_delta": max_abs, "first_divergence_t": first_t}
            overlays[name] = points[:_MAX_OVERLAY_POINTS]
    return {
        "aligned": len(shared),
        "only_a": len(by_t_a) - len(shared),
        "only_b": len(by_t_b) - len(shared),
        "changed": changed,
        "overlays": overlays,
    }


# --------------------------------------------------------------------------
# Metrics and plan deltas
# --------------------------------------------------------------------------


def metrics_delta(
    metrics_a: Mapping[str, Any], metrics_b: Mapping[str, Any]
) -> Dict[str, Dict[str, Optional[float]]]:
    """Per-key (a, b, delta) over the union of two metric dicts."""
    out: Dict[str, Dict[str, Optional[float]]] = {}
    for key in sorted(set(metrics_a) | set(metrics_b)):
        va = metrics_a.get(key)
        vb = metrics_b.get(key)
        entry: Dict[str, Optional[float]] = {
            "a": float(va) if isinstance(va, (int, float)) else None,
            "b": float(vb) if isinstance(vb, (int, float)) else None,
        }
        entry["delta"] = (
            entry["b"] - entry["a"]
            if entry["a"] is not None and entry["b"] is not None
            else None
        )
        out[key] = entry
    return out


def plan_record_dict(record: Any) -> Dict[str, Any]:
    """JSON-safe rendering of one :class:`~repro.core.mrcp_rm.PlanRecord`."""
    return {
        "t": record.t,
        "outcome": record.outcome,
        "overhead": record.overhead,
        "trigger": record.trigger,
        "rung": record.rung,
        "planned_starts": {str(k): v for k, v in record.planned_starts.items()},
    }


def first_divergent_plan(
    plans_a: Sequence[Mapping[str, Any]],
    plans_b: Sequence[Mapping[str, Any]],
) -> Optional[Dict[str, Any]]:
    """The earliest scheduler invocation whose *plan* differs.

    Compares the semantic fields (:data:`_PLAN_COMPARED`) of each
    invocation's PlanRecord in order; overhead is reported as context but
    never decides divergence.  Returns None when the histories agree.
    """
    for index, (ra, rb) in enumerate(zip(plans_a, plans_b)):
        ka = {k: ra.get(k) for k in _PLAN_COMPARED}
        kb = {k: rb.get(k) for k in _PLAN_COMPARED}
        if ka != kb:
            entries = structural_diff(ka, kb)
            return {
                "index": index,
                "sim_time": float(min(ra.get("t", 0), rb.get("t", 0))),
                "a": dict(ra),
                "b": dict(rb),
                "changed": [e.as_dict() for e in entries],
            }
    if len(plans_a) != len(plans_b):
        index = min(len(plans_a), len(plans_b))
        longer = plans_a if len(plans_a) > len(plans_b) else plans_b
        return {
            "index": index,
            "sim_time": float(longer[index].get("t", 0)),
            "a": dict(plans_a[index]) if index < len(plans_a) else None,
            "b": dict(plans_b[index]) if index < len(plans_b) else None,
            "changed": [
                DiffEntry("invocations", "length", len(plans_a), len(plans_b)).as_dict()
            ],
        }
    return None


# --------------------------------------------------------------------------
# Run directories: capture and load
# --------------------------------------------------------------------------


@dataclass
class RunArtifacts:
    """One captured run, loaded back from its directory (or in memory)."""

    path: str
    run: Dict[str, Any]
    events: List[Dict[str, Any]]
    attributions: List[Dict[str, Any]]
    plans: List[Dict[str, Any]]
    series: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def label(self) -> str:
        return str(self.run.get("label") or self.path)

    def identity(self) -> Dict[str, Any]:
        """Which run this is, as a diff document names it."""
        return {
            "path": self.path,
            "label": self.label,
            "seed": self.run.get("seed"),
            "fingerprint": self.run.get("fingerprint"),
        }


def capture_run_dir(
    config: Any,
    out_dir: str,
    label: str = "",
    replication: int = 0,
    interval: float = 5.0,
) -> RunArtifacts:
    """Run ``config`` deterministically and persist the diffable artifacts.

    The run is pinned (:func:`~repro.experiments.pool.deterministic_run_config`:
    pinned wall clock, fail-limited solver) so a same-seed capture
    is byte-reproducible, then executed with tracing, plan history and
    telemetry on.  The directory holds ``run.json`` (metrics + job SLAs),
    ``trace.json``/``trace.jsonl``, ``series.jsonl``, ``forensics.json``
    (per-job lateness attributions) and ``plans.json`` (the PlanRecord
    history) -- everything :func:`diff_run_dirs` needs, with no object
    graph to reconstruct.
    """
    from dataclasses import replace

    from repro.experiments.pool import deterministic_run_config
    from repro.experiments.runner import build_live_run
    from repro.obs.timeseries import TelemetryConfig
    from repro.resilience.checkpoint import config_fingerprint

    os.makedirs(out_dir, exist_ok=True)
    config = deterministic_run_config(config)
    obs = replace(
        config.obs,
        trace=True,
        trace_out=os.path.join(out_dir, "trace.json"),
        telemetry=TelemetryConfig(
            enabled=True,
            interval=interval,
            series_out=os.path.join(out_dir, "series.jsonl"),
        ),
    )
    config = replace(
        config, obs=obs, mrcp=replace(config.mrcp, record_plan_history=True)
    )

    run = build_live_run(config, replication)
    metrics = run.finish()

    events = list(run.tracer.recorder.events)
    plan_history = run.manager.plan_history if run.manager is not None else []
    attributions = attribute_lateness(
        metrics, run.jobs, events, plan_history=plan_history
    )
    attribution_rows = [a.as_dict() for a in attributions]
    plan_rows = [plan_record_dict(r) for r in plan_history]

    run_doc = {
        "schema": RUN_SCHEMA,
        "label": label,
        "seed": config.seed,
        "replication": replication,
        "fingerprint": config_fingerprint(config, replication),
        "scheduler": config.scheduler,
        "metrics": {
            k: v
            for k, v in metrics.as_dict(verbose=True).items()
            if k not in QUARANTINED_METRIC_KEYS
        },
        "counts": metrics.counts(),
        "jobs": [
            {
                "id": job.id,
                "arrival_time": job.arrival_time,
                "earliest_start": job.earliest_start,
                "deadline": job.deadline,
            }
            for job in run.jobs
        ],
    }
    atomic_write_json(os.path.join(out_dir, "run.json"), run_doc)
    atomic_write_json(
        os.path.join(out_dir, "forensics.json"),
        {"schema": FORENSICS_SCHEMA, "attributions": attribution_rows},
    )
    atomic_write_json(
        os.path.join(out_dir, "plans.json"),
        {"schema": PLANS_SCHEMA, "plans": plan_rows},
    )
    # Match the on-disk form: the series writer quarantines wall-clock
    # keys, so the in-memory artifacts must too or a capture would not
    # equal its own reload.
    from repro.obs.timeseries import QUARANTINED_KEYS

    series = [
        {k: v for k, v in sample.items() if k not in QUARANTINED_KEYS}
        for sample in run.sampler.store.samples
    ]
    return RunArtifacts(
        path=out_dir,
        run=run_doc,
        events=events,
        attributions=attribution_rows,
        plans=plan_rows,
        series=series,
    )


def _payload(path: str, schema: str, key: str) -> List[Dict[str, Any]]:
    """The ``key`` list of the ``schema`` document at ``path``."""
    rows = read_json(path, schema).get(key)
    if not isinstance(rows, list):
        raise ValueError(f"{path} has no {key!r} list")
    return rows


def load_run_dir(path: str) -> RunArtifacts:
    """Load a run directory written by :func:`capture_run_dir`.

    A missing directory or ``run.json``, or any damaged artifact, raises
    ``ValueError`` naming the file; the other artifacts are optional.
    """
    if not os.path.isdir(path):
        raise ValueError(f"run directory {path!r} does not exist")
    run_doc = read_json(os.path.join(path, "run.json"), RUN_SCHEMA)
    metrics = run_doc.get("metrics")
    if isinstance(metrics, dict):
        # Captures written before a key joined the quarantine must not
        # report divergence against captures written after.
        run_doc["metrics"] = {
            k: v for k, v in metrics.items() if k not in QUARANTINED_METRIC_KEYS
        }

    def optional(name: str, read: Any) -> List[Dict[str, Any]]:
        """What ``read`` returns for an artifact the run may not have."""
        artifact = os.path.join(path, name)
        return list(read(artifact)) if os.path.exists(artifact) else []

    return RunArtifacts(
        path=path,
        run=run_doc,
        events=optional("trace.jsonl", load_trace_events),
        attributions=optional(
            "forensics.json", lambda p: _payload(p, FORENSICS_SCHEMA, "attributions")
        ),
        plans=optional("plans.json", lambda p: _payload(p, PLANS_SCHEMA, "plans")),
        series=optional("series.jsonl", lambda p: read_series_jsonl(p)[1]),
    )


# --------------------------------------------------------------------------
# Run diff
# --------------------------------------------------------------------------


@dataclass
class RunDiff:
    """The full structured diff of two captured runs."""

    a: RunArtifacts
    b: RunArtifacts
    alignment: EventAlignment
    metrics: Dict[str, Dict[str, Optional[float]]]
    invocation: Optional[Dict[str, Any]]
    waterfalls: List[Dict[str, Any]]
    series: Dict[str, Any]

    @property
    def divergent(self) -> bool:
        return bool(
            not self.alignment.identical
            or self.invocation is not None
            or self.waterfalls
            or self.series.get("changed")
            or any(e["delta"] not in (0, 0.0, None) for e in self.metrics.values())
        )

    @property
    def verdict(self) -> str:
        return "divergent" if self.divergent else "identical"

    def to_json_dict(self) -> Dict[str, Any]:
        """The machine-readable ``repro-diff/1`` document (kind ``run``)."""
        return {
            "schema": DIFF_SCHEMA,
            "kind": "run",
            "verdict": self.verdict,
            "a": self.a.identity(),
            "b": self.b.identity(),
            "metrics": self.metrics,
            "events": self.alignment.as_dict(),
            "invocation": self.invocation,
            "waterfalls": self.waterfalls,
            "series": self.series,
        }


def diff_runs(a: RunArtifacts, b: RunArtifacts) -> RunDiff:
    """Diff two loaded runs (all four layers that apply offline)."""
    return RunDiff(
        a=a,
        b=b,
        alignment=align_events(a.events, b.events),
        metrics=metrics_delta(a.run.get("metrics", {}), b.run.get("metrics", {})),
        invocation=first_divergent_plan(a.plans, b.plans),
        waterfalls=delta_waterfalls(a.attributions, b.attributions),
        series=diff_series(a.series, b.series),
    )


def diff_run_dirs(path_a: str, path_b: str) -> RunDiff:
    """Load two run directories and diff them."""
    return diff_runs(load_run_dir(path_a), load_run_dir(path_b))


# --------------------------------------------------------------------------
# Sweep diff
# --------------------------------------------------------------------------


def diff_sweeps(path_a: str, path_b: str) -> Dict[str, Any]:
    """Diff two merged ``sweep.json`` artifacts with per-cell verdicts.

    Cells pair by index (the sweeps' deterministic merge order).  A cell
    is ``identical`` when its status, metrics and counts match exactly,
    ``divergent`` otherwise; unpaired cells are ``only_in_a``/``only_in_b``.
    The document verdict is ``identical`` only when every cell is.
    """
    doc_a = read_json(path_a, _SWEEP_SCHEMA)
    doc_b = read_json(path_b, _SWEEP_SCHEMA)
    cells_a = {int(c["index"]): c for c in doc_a.get("cells", [])}
    cells_b = {int(c["index"]): c for c in doc_b.get("cells", [])}
    cell_rows: List[Dict[str, Any]] = []
    divergent_cells = 0
    for index in sorted(set(cells_a) | set(cells_b)):
        ca = cells_a.get(index)
        cb = cells_b.get(index)
        if ca is None or cb is None:
            present = ca or cb
            cell_rows.append(
                {
                    "index": index,
                    "label": present.get("label", ""),
                    "replication": present.get("replication"),
                    "verdict": "only_in_a" if cb is None else "only_in_b",
                    "changed": [],
                }
            )
            divergent_cells += 1
            continue
        compared_a = {k: ca.get(k) for k in ("status", "metrics", "counts", "seed")}
        compared_b = {k: cb.get(k) for k in ("status", "metrics", "counts", "seed")}
        entries = structural_diff(compared_a, compared_b)
        if entries:
            divergent_cells += 1
        cell_rows.append(
            {
                "index": index,
                "label": ca.get("label", ""),
                "replication": ca.get("replication"),
                "verdict": "divergent" if entries else "identical",
                "changed": [e.as_dict() for e in entries],
            }
        )
    summary_delta = {
        label: metrics_delta(
            doc_a.get("summary", {}).get(label, {}),
            doc_b.get("summary", {}).get(label, {}),
        )
        for label in sorted(
            set(doc_a.get("summary", {})) | set(doc_b.get("summary", {}))
        )
    }
    return {
        "schema": DIFF_SCHEMA,
        "kind": "sweep",
        "verdict": "divergent" if divergent_cells else "identical",
        "a": {"path": path_a, "name": doc_a.get("sweep", {}).get("name")},
        "b": {"path": path_b, "name": doc_b.get("sweep", {}).get("name")},
        "cells_total": len(cell_rows),
        "cells_divergent": divergent_cells,
        "cells": cell_rows,
        "summary": summary_delta,
    }


# --------------------------------------------------------------------------
# Canonical diff scenario (CLI capture mode, CI smoke, tests)
# --------------------------------------------------------------------------


def default_diff_config(
    seed: int = 3,
    fail_limit: Optional[int] = None,
    num_jobs: int = 14,
) -> Any:
    """A deterministic, contention-heavy scenario for diff drills.

    Tight deadlines on a scarce two-resource cluster guarantee late jobs
    (so delta waterfalls have content) and make the CP search tree deep
    enough that the fail-limited budget actually decides the plan: the
    warm-start incumbent is not optimal, so two captures differing only
    in ``fail_limit`` (e.g. the default 200 vs 1) install different
    plans, giving the engine a genuine divergence to localise.  The
    default seed is one where that perturbation demonstrably forks the
    plan history.
    """
    from repro.core import MrcpRmConfig
    from repro.cp.solver import SolverParams
    from repro.experiments.runner import RunConfig, SystemConfig
    from repro.workload import SyntheticWorkloadParams

    return RunConfig(
        scheduler="mrcp-rm",
        workload="synthetic",
        synthetic=SyntheticWorkloadParams(
            num_jobs=num_jobs,
            map_tasks_range=(2, 14),
            reduce_tasks_range=(1, 6),
            e_max=30,
            ar_probability=0.5,
            s_max=500,
            deadline_multiplier_max=1.2,
            arrival_rate=0.1,
        ),
        system=SystemConfig(num_resources=2, map_slots=2, reduce_slots=2),
        mrcp=MrcpRmConfig(
            solver=SolverParams(
                time_limit=30.0,
                tree_fail_limit=fail_limit if fail_limit is not None else 200,
                use_lns=False,
            ),
        ),
        seed=seed,
    )


def format_run_diff(diff: RunDiff) -> str:
    """Console summary of a run diff (the CLI's human surface)."""
    lines = [f"verdict: {diff.verdict}"]
    for key in ("O", "N", "T", "P"):
        entry = diff.metrics.get(key)
        if entry is None or entry["a"] is None or entry["b"] is None:
            continue
        lines.append(
            f"  {key}: {entry['a']:g} -> {entry['b']:g} (delta {entry['delta']:+g})"
        )
    al = diff.alignment
    lines.append(
        f"  events: {al.total_a} vs {al.total_b} "
        f"({al.matched} aligned, {al.only_a}+{al.only_b} unmatched)"
    )
    if al.first_divergence is not None:
        fd = al.first_divergence
        name_a = (fd["a"] or {}).get("name")
        name_b = (fd["b"] or {}).get("name")
        lines.append(
            f"  first divergent event : index {fd['index']} at "
            f"t={fd['sim_time']:g}s ({name_a!r} vs {name_b!r})"
        )
    if diff.invocation is not None:
        inv = diff.invocation
        lines.append(
            f"  first divergent plan  : invocation {inv['index']} at "
            f"t={inv['sim_time']:g}s "
            f"({len(inv['changed'])} changed path(s))"
        )
    if diff.waterfalls:
        later = sum(1 for w in diff.waterfalls if w["delta_us"] > 0)
        earlier = sum(1 for w in diff.waterfalls if w["delta_us"] < 0)
        lines.append(
            f"  delta waterfalls      : {len(diff.waterfalls)} job(s) moved "
            f"({later} later, {earlier} earlier)"
        )
        for w in diff.waterfalls[:8]:
            dominant = max(w["components_us"], key=lambda k: abs(w["components_us"][k]))
            lines.append(
                f"    job {w['job_id']:>4d}: {w['delta_us'] / US:+.1f}s "
                f"({w['direction']}, dominant {dominant})"
            )
    changed_series = diff.series.get("changed", {})
    if changed_series:
        lines.append(
            f"  series fields diverged: {len(changed_series)} "
            f"(e.g. {next(iter(sorted(changed_series)))})"
        )
    return "\n".join(lines)


def format_sweep_diff(doc: Mapping[str, Any]) -> str:
    """Console summary of a sweep diff."""
    lines = [
        f"verdict: {doc['verdict']}",
        f"  cells: {doc['cells_divergent']}/{doc['cells_total']} divergent",
    ]
    for cell in doc["cells"]:
        if cell["verdict"] == "identical":
            continue
        detail = ""
        if cell["changed"]:
            first = cell["changed"][0]
            detail = (
                f" ({first['path']}: {first['a']!r} -> {first['b']!r}"
                + (
                    f", +{len(cell['changed']) - 1} more"
                    if len(cell["changed"]) > 1
                    else ""
                )
                + ")"
            )
        lines.append(
            f"    cell {cell['index']:>4} {cell['label']} "
            f"rep {cell['replication']}: {cell['verdict']}{detail}"
        )
    return "\n".join(lines)
