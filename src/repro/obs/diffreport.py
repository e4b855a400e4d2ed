"""Self-contained HTML diff reports for two captured runs.

One :class:`~repro.obs.diff.RunDiff` -> one HTML page built from
:mod:`repro.obs.htmlkit`, like the run report:

* **side-by-side tiles** -- the paper's O / N / T / P for both runs with
  the signed delta under each pair;
* **divergence timeline** -- the shared simulated-time axis with the
  first divergent trace event and the first divergent scheduler
  invocation marked, so the eye lands on *when* the runs forked;
* **per-job delta waterfall** -- a diverging bar per moved job (later
  right, earlier left) with the component decomposition in the table;
* **series overlays** -- the most-diverged telemetry fields drawn as
  paired lines (run A solid, run B dashed) over simulated time;
* **first-divergence detail tables** -- both sides' event and
  PlanRecord at the fork, path by path.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Sequence

from repro.obs.diff import RunDiff
from repro.obs.forensics import COMPONENT_LABEL, COMPONENTS, US
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

#: Overlay strips drawn (ordered by how far the field diverged).
_MAX_OVERLAY_STRIPS = 4


def _metric_tiles(diff: RunDiff) -> str:
    pairs = []
    for key, label in (
        ("O", "O · overhead/job (s)"),
        ("N", "N · late jobs"),
        ("T", "T · avg turnaround (s)"),
        ("P", "P · percent late"),
    ):
        entry = diff.metrics.get(key)
        if entry is None or entry["a"] is None or entry["b"] is None:
            continue
        delta = entry["delta"] or 0.0
        arrow = "=" if delta == 0 else ("▲" if delta > 0 else "▼")
        pairs.append((f"{entry['a']:g} → {entry['b']:g}", f"{label} {arrow}"))
    pairs.append((diff.verdict, "verdict"))
    return tiles(pairs)


def _timeline(diff: RunDiff) -> str:
    """Shared time axis with the first-divergence markers."""
    span = max(
        float(art.run.get("counts", {}).get("makespan") or 0.0)
        for art in (diff.a, diff.b)
    )
    if span <= 0:
        return ""
    height = 56
    axis = TimeAxis(90, 860, span)

    def x(t: float) -> float:
        return axis.x(min(t, span))

    marks: List[str] = []
    fd = diff.alignment.first_divergence
    if fd is not None:
        t = float(fd["sim_time"])
        marks.append(
            f'<line x1="{x(t):.1f}" y1="0" x2="{x(t):.1f}" '
            f'y2="{height}" stroke="var(--c-failed)" stroke-width="2" '
            f'stroke-dasharray="4 3"><title>first divergent event: '
            f"index {fd['index']} at t={t:g}s</title></line>"
            f'<text x="{x(t) + 4:.1f}" y="12">event #{fd["index"]} '
            f"@ {t:g}s</text>"
        )
    inv = diff.invocation
    if inv is not None:
        t = float(inv["sim_time"])
        marks.append(
            f'<line x1="{x(t):.1f}" y1="0" x2="{x(t):.1f}" '
            f'y2="{height}" stroke="var(--c-solver)" stroke-width="2">'
            f"<title>first divergent plan: invocation {inv['index']} "
            f"at t={t:g}s</title></line>"
            f'<text x="{x(t) + 4:.1f}" y="28">plan inv {inv["index"]} '
            f"@ {t:g}s</text>"
        )
    if not marks:
        return (
            '<p class="note">no divergence marker: the canonical event '
            "streams and plan histories are identical.</p>"
        )
    swatches = legend(
        ("var(--c-failed)", "first divergent trace event"),
        ("var(--c-solver)", "first divergent scheduler invocation"),
    )
    return swatches + axis.chart("divergence timeline", height, "".join(marks))


def _delta_waterfall(waterfalls: Sequence[Mapping[str, Any]]) -> str:
    """Diverging per-job bars: tardiness growth right, shrinkage left."""
    if not waterfalls:
        return (
            '<p class="note">no per-job movement: every job is exactly as '
            "late (or punctual) in both runs.</p>"
        )
    shown = sorted(waterfalls, key=lambda w: abs(w["delta_us"]), reverse=True)
    shown = shown[:MAX_WATERFALL_JOBS]
    max_abs = max(abs(w["delta_us"]) for w in shown) or 1
    bar_h, x0, width = 20, 70, 760
    mid = x0 + width / 2
    height = len(shown) * bar_h
    body = [
        f'<line x1="{mid:.1f}" y1="0" x2="{mid:.1f}" y2="{height}" '
        f'stroke="var(--grid)" stroke-width="1"/>'
    ]
    for row, w in enumerate(shown):
        y = row * bar_h + 2
        delta = w["delta_us"]
        bar_w = max((abs(delta) / max_abs) * (width / 2), 1.5)
        bx = mid if delta >= 0 else mid - bar_w
        fill = "var(--c-failed)" if delta > 0 else "var(--c-reduce)"
        parts = ", ".join(
            f"{name} {w['components_us'][name] / US:+.1f}s"
            for name in COMPONENTS
            if w["components_us"][name]
        )
        body.append(
            lane_label(x0 - 6, y + bar_h - 8, f"job {w['job_id']}")
            + f'<rect x="{bx:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
            f'height="{bar_h - 6:.1f}" rx="2" fill="{fill}" '
            f'stroke="var(--surface-1)" stroke-width="1">'
            f"<title>job {w['job_id']} ({w['direction']}): "
            f"{delta / US:+.1f}s ({parts or 'no component moved'})"
            f"</title></rect>"
            f'<text x="{(mid + bar_w + 6) if delta >= 0 else x0 + width + 6:.1f}" '
            f'y="{y + bar_h - 8}">{delta / US:+.1f}s · '
            f"{esc(w['direction'])}</text>"
        )
    rows = [
        [
            f"job {w['job_id']}",
            fmt(w["tardiness_a_us"] / US),
            fmt(w["tardiness_b_us"] / US),
            f"{w['delta_us'] / US:+.1f}",
        ]
        + [f"{w['components_us'][n] / US:+.3f}" for n in COMPONENTS]
        + [w["direction"]]
        for w in sorted(waterfalls, key=lambda w: w["job_id"])
    ]
    numbers = table(
        ("job", "tardiness A (s)", "tardiness B (s)", "Δ (s)")
        + tuple(f"Δ {COMPONENT_LABEL[n]} (s)" for n in COMPONENTS)
        + ("direction",),
        rows,
    )
    note = (
        '<p class="note">component deltas are integer-microsecond exact '
        "and sum to each job's tardiness delta; bars show the "
        f"{len(shown)} largest movements.</p>"
    )
    return (
        legend(("var(--c-failed)", "later in B"), ("var(--c-reduce)", "earlier in B"))
        + svg(x0 + width + 110, height + 6, "per-job delta waterfall", "".join(body))
        + note
        + numbers
    )


def _series_overlays(diff: RunDiff) -> str:
    """Paired A/B lines for the most-diverged telemetry fields."""
    changed = diff.series.get("changed", {})
    overlays = diff.series.get("overlays", {})
    if not changed:
        return ""
    ranked = sorted(changed, key=lambda k: changed[k]["max_abs_delta"], reverse=True)
    ranked = ranked[:_MAX_OVERLAY_STRIPS]
    strip_h = 48
    span = max(
        (float(p[0]) for name in ranked for p in overlays.get(name, ())),
        default=0.0,
    )
    if span <= 0:
        return ""
    axis = TimeAxis(150, 800, span)

    def row(name: str):
        points = overlays.get(name, [])
        info = changed[name]
        return name, [
            (
                [(float(p[0]), p[1]) for p in points],
                'stroke="var(--c-map)" stroke-width="1.5"',
                lambda lo, hi: f"{esc(name)} (run A)",
            ),
            (
                [(float(p[0]), p[2]) for p in points],
                'stroke="var(--c-solver)" stroke-width="1.5" stroke-dasharray="5 3"',
                lambda lo, hi: f"{esc(name)} (run B); "
                f"max |Δ| {info['max_abs_delta']:g}, first diverged at "
                f"t={info['first_divergence_t']:g}s",
            ),
        ]

    strips = axis.strips([row(name) for name in ranked], strip_h, 8)
    if not strips:
        return ""
    note = (
        f'<p class="note">{len(changed)} series field(s) diverged; showing '
        f"the {len(strips)} with the largest absolute delta, each min-max "
        "scaled independently.</p>"
    )
    return (
        legend(("var(--c-map)", "run A (solid)"), ("var(--c-solver)", "run B (dashed)"))
        + note
        + axis.chart("series overlays", len(strips) * strip_h, "".join(strips))
    )


def _event_detail(diff: RunDiff) -> str:
    fd = diff.alignment.first_divergence
    al = diff.alignment
    rows = [
        ("canonical events", al.total_a, al.total_b),
        ("aligned (LCS)", al.matched, al.matched),
        ("unmatched", al.only_a, al.only_b),
    ]
    parts = [table(("event streams", "run A", "run B"), rows)]
    if fd is not None:
        side_a = fd["a"] or {}
        side_b = fd["b"] or {}
        detail_rows = [
            (key, repr(side_a.get(key)), repr(side_b.get(key)))
            for key in sorted(set(side_a) | set(side_b))
        ]
        parts.append(
            f"<p>first divergent event: index <b>{fd['index']}</b> at "
            f"t=<b>{fd['sim_time']:g}s</b></p>"
        )
        parts.append(table(("field", "run A", "run B"), detail_rows))
    if al.problems:
        parts.append(
            '<p class="note">conformance problems: '
            + "; ".join(esc(p) for p in al.problems[:5])
            + "</p>"
        )
    return "".join(parts)


def _plan_detail(diff: RunDiff) -> str:
    inv = diff.invocation
    if inv is None:
        return '<p class="note">plan histories are identical.</p>'
    rows = [(e["path"], repr(e["a"]), repr(e["b"])) for e in inv["changed"]]
    return (
        f"<p>first divergent scheduler invocation: index "
        f"<b>{inv['index']}</b> at t=<b>{inv['sim_time']:g}s</b></p>"
        + table(("changed path", "run A", "run B"), rows)
    )


def render_diff_report(diff: RunDiff, title: str = "MRCP-RM run diff") -> str:
    """Render a :class:`RunDiff` as one self-contained HTML document."""
    lead = (
        f"A = {esc(diff.a.label)} (seed {esc(diff.a.run.get('seed'))}) · "
        f"B = {esc(diff.b.label)} (seed {esc(diff.b.run.get('seed'))}) · "
    )
    sections = [
        _metric_tiles(diff),
        "<h2>Divergence timeline</h2>",
        _timeline(diff),
        "<h2>Per-job delta waterfall</h2>",
        _delta_waterfall(diff.waterfalls),
    ]
    overlays = _series_overlays(diff)
    if overlays:
        sections += ["<h2>Series overlays</h2>", overlays]
    sections += [
        "<h2>Event streams</h2>",
        _event_detail(diff),
        "<h2>Plan histories</h2>",
        _plan_detail(diff),
    ]
    return page(title, "diff", sections, lead=lead)
