"""Self-contained HTML run and sweep reports.

One MRCP-RM run -> one HTML page built from :mod:`repro.obs.htmlkit`.
Sections degrade gracefully with their inputs:

* **headline tiles** -- the paper's O / N / T / P plus run shape
  (always rendered, from :class:`~repro.metrics.collector.RunMetrics`);
* **live timeline** -- sampled telemetry strips with fired SLO alerts
  marked (needs the series);
* **cluster Gantt** -- one lane per (resource, kind, slot) with every task
  attempt, failed attempts marked, resource outage windows shaded
  (needs the trace event stream and the resource list);
* **utilization strips** -- per-resource busy fraction over time on a
  sequential ramp (same inputs as the Gantt);
* **slack waterfall** -- per late job, the lateness-attribution
  decomposition of :mod:`repro.obs.forensics` as a stacked bar plus a
  numeric table (needs attributions);
* **solver effort** -- solves by phase, phase wall times, per-propagator
  counters (from the run metrics when solver profiling was on);
* **fault counters** -- when the run was fault-injected.

A sweep renders as one page too (:func:`render_sweep_report`): the
per-label summary, the per-cell table and one utilization strip per
captured cell.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.forensics import (
    COMPONENT_LABEL,
    COMPONENTS,
    AttemptRecord,
    LatenessAttribution,
    outage_windows,
    parse_attempts,
)
from repro.obs.htmlkit import (
    MAX_WATERFALL_JOBS,
    TimeAxis,
    esc,
    fmt,
    lane_label,
    legend,
    page,
    svg,
    table,
    tiles,
)

if TYPE_CHECKING:  # import cycle: repro.cp -> repro.obs -> repro.metrics
    from repro.metrics.collector import RunMetrics

#: Sequential blue ramp (light mode steps 100->700) for utilization.
_SEQ = (
    "#cde2fb",
    "#b7d3f6",
    "#9ec5f4",
    "#86b6ef",
    "#6da7ec",
    "#5598e7",
    "#3987e5",
    "#2a78d6",
    "#256abf",
    "#1c5cab",
    "#184f95",
    "#104281",
    "#0d366b",
)


def _tiles(metrics: RunMetrics) -> str:
    pairs = [
        (f"{metrics.avg_sched_overhead * 1000:.2f} ms", "O · overhead/job"),
        (str(metrics.late_jobs), "N · late jobs"),
        (fmt(metrics.avg_turnaround), "T · avg turnaround (s)"),
        (f"{metrics.percent_late:.1f}%", "P · percent late"),
        (f"{metrics.jobs_completed}/{metrics.jobs_arrived}", "jobs completed/arrived"),
        (fmt(float(metrics.makespan), 0), "makespan (s)"),
        (str(metrics.scheduler_invocations), "scheduler invocations"),
    ]
    if metrics.jobs_failed:
        pairs.append((str(metrics.jobs_failed), "jobs failed"))
    if metrics.late_jobs:
        pairs.append((fmt(metrics.mean_tardiness), "mean tardiness (s)"))
        pairs.append((fmt(float(metrics.max_tardiness), 0), "max tardiness (s)"))
    return tiles(pairs)


_MAX_GANTT_LANES = 96


def _gantt(
    attempts: Sequence[AttemptRecord],
    resources: Sequence,
    outages: Sequence[Mapping[str, float]],
    span: float,
) -> str:
    """Per-resource Gantt: map/reduce slot lanes, faults, outage shading."""
    if not attempts or not resources or span <= 0:
        return '<p class="note">no task attempts in the trace.</p>'
    lanes: List[tuple] = []  # (resource_id, kind, slot)
    for r in resources:
        for slot in range(r.map_capacity):
            lanes.append((r.id, "MAP", slot))
        for slot in range(r.reduce_capacity):
            lanes.append((r.id, "REDUCE", slot))
    truncated = len(lanes) > _MAX_GANTT_LANES
    lanes = lanes[:_MAX_GANTT_LANES]
    lane_index = {key: i for i, key in enumerate(lanes)}
    lane_h = 14
    axis = TimeAxis(90, 860, span)
    x = axis.x
    body: List[str] = []
    # outage shading behind the bars, across the resource's lanes
    for w in outages:
        rows = [i for (rid, _, _), i in lane_index.items() if rid == w["resource"]]
        if not rows:
            continue
        y = min(rows) * lane_h
        h = (max(rows) - min(rows) + 1) * lane_h
        body.append(
            f'<rect x="{x(w["start"]):.1f}" y="{y:.1f}" '
            f'width="{max(x(w["end"]) - x(w["start"]), 1):.1f}" h'
            f'eight="{h:.1f}" fill="var(--outage)" opacity="0.18">'
            f"<title>outage: resource {int(w['resource'])}, "
            f"{w['start']:.0f}-{w['end']:.0f}s</title></rect>"
        )
    # lane separators + labels per resource block
    prev_rid = None
    for (rid, kind, slot), i in lane_index.items():
        y = i * lane_h
        if rid != prev_rid:
            body.append(
                f'<line x1="{axis.x0}" y1="{y}" x2="{axis.x0 + axis.width}" '
                f'y2="{y}" stroke="var(--grid)" stroke-width="1"/>'
            )
            prev_rid = rid
        body.append(
            lane_label(axis.x0 - 6, y + lane_h - 4, f"r{rid} {kind.lower()[:3]}{slot}")
        )
    for a in attempts:
        i = lane_index.get((a.resource_id, a.kind, a.slot))
        if i is None:
            continue
        y = i * lane_h + 2
        fill = (
            "var(--c-failed)"
            if a.outcome != "completed"
            else ("var(--c-map)" if a.kind == "MAP" else "var(--c-reduce)")
        )
        w = max(x(a.end) - x(a.start), 1.5)
        state = "" if a.outcome == "completed" else f" [{a.outcome}]"
        body.append(
            f'<rect x="{x(a.start):.1f}" y="{y:.1f}" width="{w:.1f}" '
            f'height="{lane_h - 4:.1f}" rx="2" fill="{fill}" '
            f'stroke="var(--surface-1)" stroke-width="1">'
            f"<title>{esc(a.task_id)}{state}: job {a.job_id}, "
            f"{a.start:.0f}-{a.end:.0f}s on r{a.resource_id} "
            f"{a.kind.lower()} slot {a.slot}</title></rect>"
        )
    note = (
        f'<p class="note">showing the first {_MAX_GANTT_LANES} slot lanes.</p>'
        if truncated
        else ""
    )
    return (
        legend(
            ("var(--c-map)", "map task"),
            ("var(--c-reduce)", "reduce task"),
            ("var(--c-failed)", "failed/killed attempt"),
            ("var(--outage);opacity:.4", "resource outage"),
        )
        + axis.chart("cluster Gantt", len(lanes) * lane_h, "".join(body))
        + note
    )


def _utilization(
    attempts: Sequence[AttemptRecord],
    resources: Sequence,
    span: float,
    bins: int = 72,
) -> str:
    """One strip per resource: busy fraction per time bin, sequential ramp."""
    if not attempts or not resources or span <= 0:
        return ""
    slots_of = {r.id: r.map_capacity + r.reduce_capacity for r in resources}
    busy: Dict[int, List[float]] = {r.id: [0.0] * bins for r in resources}
    bin_w = span / bins
    for a in attempts:
        if a.resource_id not in busy:
            continue
        b0 = min(int(a.start / bin_w), bins - 1)
        b1 = min(int(max(a.end - 1e-9, a.start) / bin_w), bins - 1)
        for b in range(b0, b1 + 1):
            lo, hi = b * bin_w, (b + 1) * bin_w
            overlap = min(a.end, hi) - max(a.start, lo)
            if overlap > 0:
                busy[a.resource_id][b] += overlap
    strip_h = 16
    axis = TimeAxis(90, 860, span)
    rows = [r for r in resources if slots_of[r.id]][:32]
    height = len(rows) * strip_h
    cell_w = axis.width / bins
    body: List[str] = []
    for row, r in enumerate(rows):
        y = row * strip_h
        body.append(lane_label(axis.x0 - 6, y + strip_h - 5, f"r{r.id}"))
        for b in range(bins):
            frac = busy[r.id][b] / (slots_of[r.id] * bin_w)
            frac = min(max(frac, 0.0), 1.0)
            if frac <= 0:
                continue
            color = _SEQ[min(int(frac * (len(_SEQ) - 1) + 0.5), len(_SEQ) - 1)]
            body.append(
                f'<rect x="{axis.x0 + b * cell_w:.1f}" y="{y + 2:.1f}" '
                f'width="{cell_w + 0.2:.1f}" height="{strip_h - 4:.1f}" '
                f'fill="{color}"><title>r{r.id} '
                f"{b * bin_w:.0f}-{(b + 1) * bin_w:.0f}s: "
                f"{100 * frac:.0f}% busy</title></rect>"
            )
    body.append(axis.grid(height))
    chart = svg(
        axis.x0 + axis.width + 10, height + 20, "utilization strips", "".join(body)
    )
    return (
        '<p class="note">busy slot-fraction per resource over time '
        "(darker = busier; sequential single-hue ramp).</p>" + chart
    )


def _waterfall(attributions: Sequence[LatenessAttribution]) -> str:
    """Stacked per-late-job decomposition bars plus the numeric table."""
    if not attributions:
        return (
            '<p class="note">no late jobs: every deadline was met, nothing '
            "to attribute.</p>"
        )
    shown = sorted(attributions, key=lambda a: a.tardiness_us, reverse=True)
    shown = shown[:MAX_WATERFALL_JOBS]
    max_t = max(a.tardiness for a in shown) or 1.0
    bar_h, x0, width = 20, 70, 760
    body: List[str] = []
    for row, a in enumerate(shown):
        y = row * bar_h + 2
        body.append(lane_label(x0 - 6, y + bar_h - 8, f"job {a.job_id}"))
        cx = float(x0)
        comp = a.components
        for name in COMPONENTS:
            seconds = comp[name]
            if seconds <= 0:
                continue
            w = max((seconds / max_t) * width, 1.0)
            body.append(
                f'<rect x="{cx:.1f}" y="{y:.1f}" width="{w:.1f}" '
                f'height="{bar_h - 6:.1f}" rx="2" fill="var(--c-{name})" '
                f'stroke="var(--surface-1)" stroke-width="1">'
                f"<title>job {a.job_id} {COMPONENT_LABEL[name]}: "
                f"{seconds:.1f}s of {a.tardiness:.1f}s tardiness"
                f"</title></rect>"
            )
            cx += w
        body.append(
            f'<text x="{cx + 6:.1f}" y="{y + bar_h - 8}">'
            f"{a.tardiness:.0f}s · {esc(a.dominant())}</text>"
        )
    chart = svg(
        x0 + width + 110,
        len(shown) * bar_h + 6,
        "lateness attribution waterfall",
        "".join(body),
    )
    note = (
        f'<p class="note">bars show the {len(shown)} latest jobs; '
        "the table lists all late jobs. Components are a capped-waterfall "
        "decomposition and sum exactly to each job's tardiness.</p>"
        if len(shown) < len(attributions)
        else '<p class="note">Components are a capped-waterfall '
        "decomposition and sum exactly to each job's tardiness.</p>"
    )
    numbers = table(
        ("late job", "tardiness (s)")
        + tuple(f"{COMPONENT_LABEL[n]} (s)" for n in COMPONENTS)
        + ("dominant",),
        [
            [f"job {a.job_id}", f"{a.tardiness:.1f}"]
            + [f"{a.components[n]:.3f}" for n in COMPONENTS]
            + [a.dominant()]
            for a in sorted(attributions, key=lambda x: x.job_id)
        ],
    )
    swatches = legend(*((f"var(--c-{n})", COMPONENT_LABEL[n]) for n in COMPONENTS))
    return swatches + chart + note + numbers


#: Telemetry fields drawn as sparkline strips, in display order.  Probe
#: fields use a ``probes.`` prefix; absent fields are skipped silently so
#: baseline runs (no scheduler probes) still render.
_TIMELINE_FIELDS = (
    ("jobs_completed", "jobs completed"),
    ("calendar_size", "event calendar size"),
    ("probes.scheduler.queue_depth", "scheduler queue depth"),
    ("probes.executor.slot_utilization", "slot utilization"),
    ("P", "P · percent late"),
)


def _sample_value(sample: Mapping[str, Any], field: str) -> Optional[float]:
    if field.startswith("probes."):
        value = (sample.get("probes") or {}).get(field[len("probes.") :])
    else:
        value = sample.get(field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _timeline_section(
    samples: Sequence[Mapping[str, Any]],
    alerts: Sequence[Mapping[str, Any]] = (),
) -> str:
    """Sparkline strips of the sampled telemetry series + SLO alert marks."""
    if not samples:
        return ""
    span = max(float(s.get("sim_time", 0.0)) for s in samples)
    if span <= 0:
        return ""
    strip_h = 36
    axis = TimeAxis(150, 800, span)

    def row(field: str, label: str):
        points = [
            (float(s.get("sim_time", 0.0)), _sample_value(s, field)) for s in samples
        ]
        return label, [
            (
                points,
                'stroke="var(--c-map)" stroke-width="1.5"',
                lambda lo, hi: f"{esc(label)}: min {lo:g}, max {hi:g}",
            )
        ]

    strips = axis.strips(
        [row(field, label) for field, label in _TIMELINE_FIELDS], strip_h, 6
    )
    if not strips:
        return ""
    height = len(strips) * strip_h
    marks: List[str] = []
    fired = 0
    for alert in alerts:
        if alert.get("state") != "fired":
            continue
        fired += 1
        t = float(alert.get("sim_time", 0.0))
        marks.append(
            f'<line x1="{axis.x(t):.1f}" y1="0" x2="{axis.x(t):.1f}" '
            f'y2="{height:.1f}" stroke="var(--c-failed)" stroke-width="1.5" '
            f'stroke-dasharray="3 3"><title>SLO alert '
            f"{esc(alert.get('name', ''))} fired at t={t:g}s "
            f"(burn {float(alert.get('burn_short', 0.0)):.2f}x)"
            f"</title></line>"
        )
    note = (
        f'<p class="note">{len(samples)} samples; each strip is min-max '
        "scaled independently. Dashed red lines mark fired SLO burn-rate "
        f"alerts ({fired} in this run).</p>"
    )
    chart = axis.chart("live telemetry timeline", height, "".join(strips + marks))
    return note + chart


def _solver_section(metrics: RunMetrics) -> str:
    parts: List[str] = []
    if metrics.solves_by_phase:
        parts.append("<h2>Solver: which phase produced the plan</h2>")
        parts.append(
            table(("phase", "solves"), sorted(metrics.solves_by_phase.items()))
        )
    phase_times = [
        ("propagate", metrics.solver_propagate_time),
        ("warm start", metrics.solver_warm_start_time),
        ("tree search", metrics.solver_tree_time),
        ("lns", metrics.solver_lns_time),
    ]
    if any(t > 0 for _, t in phase_times):
        parts.append("<h2>Solver: where the overhead O went</h2>")
        parts.append(
            table(("phase", "wall seconds"), [(n, f"{t:.4f}") for n, t in phase_times])
        )
    if metrics.solver_propagators:
        parts.append("<h2>Solver: propagator effort</h2>")
        parts.append(
            table(
                ("propagator", "runs", "prunes", "fails"),
                [
                    (name, c["runs"], c["prunes"], c["fails"])
                    for name, c in sorted(
                        metrics.solver_propagators.items(),
                        key=lambda kv: kv[1]["runs"],
                        reverse=True,
                    )
                ],
            )
        )
    return "".join(parts)


def _fault_section(metrics: RunMetrics) -> str:
    if not (metrics.faults_enabled or metrics.fallback_solves):
        return ""
    rows = [
        ("task failures injected", metrics.failures_injected),
        ("tasks killed by outages", metrics.tasks_killed),
        ("stragglers injected", metrics.stragglers_injected),
        ("outage windows", metrics.outages),
        ("retries", metrics.retries),
        ("replans on failure", metrics.replans_on_failure),
        ("fallback solves", metrics.fallback_solves),
        ("jobs failed", metrics.jobs_failed),
    ]
    return "<h2>Fault injection</h2>" + table(("counter", "value"), rows)


def _resilience_section(metrics: RunMetrics) -> str:
    """Degradation-ladder attribution: which rung planned, breakers opened."""
    if not metrics.solves_by_rung:
        return ""
    rows: List[Tuple[str, object]] = [
        (f"rung: {rung}", metrics.solves_by_rung[rung])
        for rung in ("cp_full", "cp_limited", "edf", "greedy")
        if rung in metrics.solves_by_rung
    ]
    degraded = sum(n for rung, n in metrics.solves_by_rung.items() if rung != "cp_full")
    rows.append(("degraded solves (below cp_full)", degraded))
    rows.append(("circuit breakers opened", metrics.breaker_opens))
    return "<h2>Resilience: degradation ladder</h2>" + table(("counter", "value"), rows)


def _plan_history_section(plan_history: Optional[Sequence]) -> str:
    if not plan_history:
        return ""
    by_trigger: Dict[str, int] = {}
    by_outcome: Dict[str, int] = {}
    by_rung: Dict[str, int] = {}
    for rec in plan_history:
        by_trigger[rec.trigger] = by_trigger.get(rec.trigger, 0) + 1
        by_outcome[rec.outcome] = by_outcome.get(rec.outcome, 0) + 1
        by_rung[rec.rung] = by_rung.get(rec.rung, 0) + 1
    total = sum(rec.overhead for rec in plan_history)
    rows = [(f"trigger: {k}", v) for k, v in sorted(by_trigger.items())] + [
        (f"outcome: {k}", v) for k, v in sorted(by_outcome.items())
    ]
    # Rung attribution only says something once a plan came from below
    # the full CP solve (the common all-cp_full case would be noise).
    if set(by_rung) - {"cp_full"}:
        rows += [(f"rung: {k}", v) for k, v in sorted(by_rung.items())]
    rows.append(("total overhead (wall s)", f"{total:.4f}"))
    return "<h2>Plan history</h2>" + table(("invocations", "count"), rows)


def render_report(
    metrics: RunMetrics,
    *,
    resources: Optional[Sequence] = None,
    events: Optional[Iterable[Mapping[str, Any]]] = None,
    attributions: Optional[Sequence[LatenessAttribution]] = None,
    plan_history: Optional[Sequence] = None,
    series: Optional[Sequence[Mapping[str, Any]]] = None,
    alerts: Optional[Sequence[Mapping[str, Any]]] = None,
    title: str = "MRCP-RM run report",
) -> str:
    """Render one run as a single self-contained HTML document (a string).

    Only ``metrics`` is required; the Gantt/utilization sections need
    ``events`` (trace event stream) and ``resources``, the waterfall needs
    ``attributions`` (see :func:`repro.obs.forensics.attribute_lateness`),
    the live timeline needs ``series`` (telemetry samples, see
    :func:`repro.obs.timeseries.read_series_jsonl`) and optionally
    ``alerts`` (SLO alert dicts to mark on the strips).
    """
    events = list(events) if events is not None else []
    attempts = parse_attempts(events) if events else []
    outages = outage_windows(events) if events else []
    span = float(metrics.makespan)
    if attempts:
        span = max(span, max(a.end for a in attempts))

    sections: List[str] = [_tiles(metrics)]
    timeline = _timeline_section(series, alerts or ()) if series else ""
    if timeline:
        sections += ["<h2>Live timeline</h2>", timeline]
    if attempts and resources is not None:
        sections += [
            "<h2>Cluster Gantt</h2>",
            _gantt(attempts, resources, outages, span),
            "<h2>Utilization</h2>",
            _utilization(attempts, resources, span),
        ]
    if attributions is not None:
        sections += ["<h2>Why were the late jobs late?</h2>", _waterfall(attributions)]
    sections += [
        _solver_section(metrics),
        _fault_section(metrics),
        _resilience_section(metrics),
        _plan_history_section(plan_history),
    ]
    return page(title, "report", sections)


# ------------------------------------------------------------ sweep report
def utilization_strip(
    events: Iterable[Mapping[str, Any]], resources: Sequence, span: float
) -> str:
    """Public wrapper: per-resource utilization strips from a raw event
    stream (Chrome metadata events are filtered out before parsing)."""
    attempts = parse_attempts([e for e in events if e.get("ph") != "M"])
    return _utilization(attempts, resources, span)


def render_sweep_report(
    *,
    title: str,
    factor: str,
    summary_rows: Sequence[Mapping[str, Any]],
    cell_rows: Sequence[Mapping[str, Any]],
    strips: Sequence[tuple] = (),
) -> str:
    """Render a sweep as one self-contained HTML document.

    ``summary_rows`` feed the per-label aggregate table, ``cell_rows`` the
    per-cell table, ``strips`` is ``(label, svg_html)`` pairs -- one
    utilization strip block per captured cell (may be empty when the sweep
    ran without trace capture).
    """
    ok = sum(1 for r in cell_rows if r.get("status") == "ok")
    sections: List[str] = [
        tiles(
            [
                (str(len(summary_rows)), "configurations"),
                (str(len(cell_rows)), "cells"),
                (str(ok), "ok"),
                (str(len(cell_rows) - ok), "failed"),
            ]
        ),
        "<h2>Sweep summary</h2>",
        table(
            (factor, "scheduler", "ok/cells", "O (ms)", "N", "T (s)", "P (%)"),
            [
                (
                    r.get("label", ""),
                    r.get("scheduler", ""),
                    f"{r.get('ok', 0):g}/{r.get('cells', 0):g}",
                    fmt(1000.0 * r["O"], 2) if "O" in r else "-",
                    fmt(r["N"], 2) if "N" in r else "-",
                    fmt(r["T"], 1) if "T" in r else "-",
                    fmt(r["P"], 1) if "P" in r else "-",
                )
                for r in summary_rows
            ],
        ),
        "<h2>Cells</h2>",
        table(
            ("cell", "replication", "seed", "status", "attempts", "error"),
            [
                (
                    r.get("label", ""),
                    r.get("replication", ""),
                    r.get("seed", ""),
                    r.get("status", ""),
                    r.get("attempts", ""),
                    r.get("error", "") or "-",
                )
                for r in cell_rows
            ],
        ),
    ]
    if strips:
        sections.append("<h2>Per-cell utilization</h2>")
        for label, strip_html in strips:
            sections.append(f"<h2>{esc(label)}</h2>")
            sections.append(strip_html or '<p class="note">no trace.</p>')
    return page(title, "sweep report", sections)
