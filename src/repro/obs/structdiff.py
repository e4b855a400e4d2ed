"""Shared structural diff over JSON-like values.

Several subsystems need to answer "where exactly do these two nested
structures differ?": the checkpoint restore path proves replayed state
matches its snapshot, the behaviour-pin test compares each case's metrics
against its pinned table, and the run-diff engine (:mod:`repro.obs.diff`)
localises drift between two runs.  They all share this core: a leaf-level
walk of two JSON-like values (dicts, lists, scalars) producing one
:class:`DiffEntry` per divergent path, in deterministic (sorted-key /
index) order.

The module is dependency-free on purpose -- it sits below both
``repro.obs`` and ``repro.resilience`` and can be imported from anywhere
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["DiffEntry", "structural_diff", "format_entries"]


@dataclass(frozen=True)
class DiffEntry:
    """One leaf-level divergence between two JSON-like structures.

    ``kind`` is one of:

    * ``"changed"`` -- the path exists on both sides with unequal values;
    * ``"missing"`` -- the path exists only on the left side;
    * ``"extra"``   -- the path exists only on the right side;
    * ``"length"``  -- two lists of different length (compared up to the
      shorter one; the tail is reported as this single entry).
    """

    path: str
    kind: str
    left: Any = None
    right: Any = None

    def render(self, left_label: str = "a", right_label: str = "b") -> str:
        """Human-readable one-liner showing both values."""
        if self.kind == "missing":
            return f"{self.path}: only in {left_label} ({self.left!r})"
        if self.kind == "extra":
            return f"{self.path}: only in {right_label} ({self.right!r})"
        if self.kind == "length":
            return (
                f"{self.path}: length {self.left} ({left_label}) != "
                f"{self.right} ({right_label})"
            )
        return (
            f"{self.path}: {left_label}={self.left!r} "
            f"{right_label}={self.right!r}"
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering for machine-readable diff artifacts."""
        return {
            "path": self.path,
            "kind": self.kind,
            "a": _json_safe(self.left),
            "b": _json_safe(self.right),
        }


def _json_safe(value: Any) -> Any:
    """Coerce a leaf to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def structural_diff(
    a: Any,
    b: Any,
    path: str = "",
    max_entries: Optional[int] = None,
) -> List[DiffEntry]:
    """Leaf-level divergences between ``a`` and ``b``, depth-first.

    Dict keys are walked in sorted order and list items by index, so the
    entry order is deterministic.  ``max_entries`` bounds the walk (the
    full count is unavailable when it binds -- callers that only render
    the first N should pass ``N + 1`` to know whether more exist).
    """
    out: List[DiffEntry] = []
    _walk(a, b, path, out, max_entries)
    return out


def _walk(
    a: Any,
    b: Any,
    path: str,
    out: List[DiffEntry],
    max_entries: Optional[int],
) -> None:
    if max_entries is not None and len(out) >= max_entries:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                out.append(DiffEntry(sub, "extra", right=b[key]))
            elif key not in b:
                out.append(DiffEntry(sub, "missing", left=a[key]))
            else:
                _walk(a[key], b[key], sub, out, max_entries)
            if max_entries is not None and len(out) >= max_entries:
                return
        return
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", out, max_entries)
            if max_entries is not None and len(out) >= max_entries:
                return
        if len(a) != len(b):
            out.append(DiffEntry(path, "length", left=len(a), right=len(b)))
        return
    if a != b:
        out.append(DiffEntry(path, "changed", left=a, right=b))


def format_entries(
    entries: List[DiffEntry],
    limit: int = 5,
    left_label: str = "a",
    right_label: str = "b",
) -> str:
    """Render the first ``limit`` entries, noting how many were elided."""
    shown = "; ".join(
        e.render(left_label, right_label) for e in entries[:limit]
    )
    if len(entries) > limit:
        shown += f" (+{len(entries) - limit} more)"
    return shown
