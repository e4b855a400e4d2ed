"""The page kit every self-contained HTML report is built from.

A report is one file: inline CSS and SVG only, no scripts, no frameworks,
no network access, so it opens anywhere and archives next to the trace it
was rendered from.  The run and sweep reports (:mod:`repro.obs.report`)
and the run-diff report (:mod:`repro.obs.diffreport`) all assemble the
same parts: the page shell, stat tiles, tables, swatch legends, and SVG
charts over a shared simulated-time axis (:class:`TimeAxis`).

Colors are a fixed, CVD-validated categorical order (never cycled): task
kinds take the first two slots, attribution components the first four,
faults use the reserved status red, and both light and dark modes are
explicit steps of the same hues (selected, not auto-inverted).
"""

from __future__ import annotations

import html
from typing import Any, Iterable, List, Sequence, Tuple

CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #706f6a;
  --grid: #dddcd7; --outage: #706f6a;
  --c-map: #2a78d6; --c-reduce: #1baf7a; --c-failed: #e34948;
  --c-contention: #2a78d6; --c-solver: #eb6834; --c-fault: #1baf7a;
  --c-residual: #eda100;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #262625;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #96958c;
    --grid: #383835; --outage: #96958c;
    --c-map: #3987e5; --c-reduce: #199e70; --c-failed: #e66767;
    --c-contention: #3987e5; --c-solver: #d95926; --c-fault: #199e70;
    --c-residual: #c98500;
  }
}
html { background: var(--surface-1); }
body {
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary); background: var(--surface-1);
  max-width: 1020px; margin: 0 auto; padding: 24px 16px 64px;
}
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 8px; }
p.sub { color: var(--text-secondary); margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-2); border-radius: 8px; padding: 10px 16px;
  min-width: 108px;
}
.tile .v { font-size: 22px; font-weight: 600; font-variant-numeric: tabular-nums; }
.tile .l { font-size: 12px; color: var(--text-secondary); }
table { border-collapse: collapse; margin: 8px 0; }
th, td {
  text-align: right; padding: 3px 12px; font-variant-numeric: tabular-nums;
}
th { color: var(--text-secondary); font-weight: 500; font-size: 12px; }
th:first-child, td:first-child { text-align: left; }
tbody tr { border-top: 1px solid var(--grid); }
svg text { fill: var(--text-secondary); font-size: 10px; }
svg .lane-label { fill: var(--text-muted); }
.legend { display: flex; gap: 16px; font-size: 12px;
  color: var(--text-secondary); margin: 4px 0 8px; align-items: center; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
.note { color: var(--text-muted); font-size: 12px; }
"""

#: Bars drawn in a per-job waterfall (the table under it lists every job).
MAX_WATERFALL_JOBS = 25


def esc(value: Any) -> str:
    """HTML-escape ``str(value)``, quotes included."""
    return html.escape(str(value), quote=True)


def fmt(value: float, digits: int = 1) -> str:
    """A number with thousands separators and ``digits`` decimals."""
    return f"{value:,.{digits}f}"


def page(title: str, kind: str, sections: Iterable[str], lead: str = "") -> str:
    """One self-contained HTML document; empty sections are dropped.

    ``kind`` names the page in the subtitle; ``lead`` is HTML put before it.
    """
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{esc(title)}</title>",
        f"<style>{CSS}</style></head><body>",
        f"<h1>{esc(title)}</h1>",
        f'<p class="sub">{lead}single-file {kind} · inline SVG/CSS · '
        "no scripts, no network</p>",
        *sections,
        "</body></html>",
    ]
    return "\n".join(p for p in parts if p)


def tiles(pairs: Iterable[Tuple[str, str]]) -> str:
    """A row of stat tiles from ``(value, label)`` pairs."""
    return (
        '<div class="tiles">'
        + "".join(
            f'<div class="tile"><div class="v">{esc(value)}</div>'
            f'<div class="l">{esc(label)}</div></div>'
            for value, label in pairs
        )
        + "</div>"
    )


def table(head: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """A table with one header row; every cell is escaped."""
    cells = "".join(f"<th>{esc(h)}</th>" for h in head)
    body = "".join(
        "<tr>" + "".join(f"<td>{esc(c)}</td>" for c in row) + "</tr>" for row in rows
    )
    return f"<table><thead><tr>{cells}</tr></thead><tbody>{body}</tbody></table>"


def legend(*items: Tuple[str, str]) -> str:
    """A swatch legend from ``(css background, label)`` pairs."""
    return (
        '<div class="legend">'
        + "".join(
            f'<span><span class="sw" style="background:{background}"></span>'
            f"{label}</span>"
            for background, label in items
        )
        + "</div>"
    )


def svg(width: int, height: int, label: str, body: str) -> str:
    """An SVG chart scaled to the page width, labelled for screen readers."""
    return (
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'aria-label="{label}">{body}</svg>'
    )


def lane_label(x: int, y: Any, text: str) -> str:
    """A right-aligned row label ending at ``x``."""
    return f'<text class="lane-label" x="{x}" y="{y}" text-anchor="end">{text}</text>'


def _ticks(span: float, n: int = 6) -> List[float]:
    if span <= 0:
        return [0.0]
    raw = span / n
    magnitude = 10 ** max(len(str(int(raw))) - 1, 0)
    step = max(int(round(raw / magnitude)) * magnitude, 1)
    return [t for t in range(0, int(span) + 1, int(step))]


class TimeAxis:
    """Simulated seconds ``[0, span]`` mapped onto ``width`` px from ``x0``."""

    def __init__(self, x0: int, width: int, span: float) -> None:
        self.x0 = x0
        self.width = width
        self.span = span

    def x(self, t: float) -> float:
        """Horizontal position of simulated time ``t``."""
        return self.x0 + (t / self.span) * self.width

    def grid(self, height: float) -> str:
        """Vertical tick lines ``height`` px tall, labelled in seconds."""
        parts = []
        for t in _ticks(self.span):
            x = self.x(t) if self.span else self.x0
            parts.append(
                f'<line x1="{x:.1f}" y1="0" x2="{x:.1f}" y2="{height:.1f}" '
                f'stroke="var(--grid)" stroke-width="1"/>'
                f'<text x="{x:.1f}" y="{height + 12:.1f}" text-anchor="middle">'
                f"{t:,}</text>"
            )
        return "".join(parts)

    def chart(self, label: str, height: int, body: str) -> str:
        """An SVG of ``height`` px of rows drawn over the tick grid."""
        return svg(
            self.x0 + self.width + 10, height + 20, label, self.grid(height) + body
        )

    def strips(
        self, rows: Iterable[Tuple[str, Sequence[tuple]]], strip_h: int, pad: int
    ) -> List[str]:
        """Min-max-scaled polyline strips, one per ``(label, lines)`` row.

        Each line is ``(points, attrs, title)``: ``(t, value)`` points (None
        values are gaps), the polyline's stroke attributes, and its tooltip
        as a function of the strip's ``(lo, hi)`` value range.  All lines of
        a row share that range, drawn ``pad`` px inside the strip's top and
        bottom.  Rows without a single value are skipped.
        """
        out: List[str] = []
        for label, lines in rows:
            values = [v for points, _, _ in lines for _, v in points if v is not None]
            if not values:
                continue
            top = len(out) * strip_h
            lo, hi = min(values), max(values)
            scale = (hi - lo) or 1.0
            inner = strip_h - 2 * pad
            bottom = top + strip_h - pad
            middle = f"{top + strip_h / 2 + 3:.1f}"
            parts = [lane_label(self.x0 - 6, middle, esc(label))]
            for points, attrs, title in lines:
                coords = " ".join(
                    f"{self.x(t):.1f},{bottom - ((v - lo) / scale) * inner:.1f}"
                    for t, v in points
                    if v is not None
                )
                parts.append(
                    f'<polyline points="{coords}" fill="none" {attrs}>'
                    f"<title>{title(lo, hi)}</title></polyline>"
                )
            out.append("".join(parts))
        return out
