"""Chrome trace-event (Catapult) conformance checking.

Perfetto-loadability of our traces is asserted, not assumed: the emitter in
:mod:`repro.obs.trace` is held to the Catapult trace-event field spec by
:func:`validate_trace_events`, which returns a list of human-readable
problems (empty = conformant).  The checks cover the subset of the spec our
traces exercise plus the duration-event pairing rules, so a future emitter
that switches from complete ("X") to begin/end ("B"/"E") events stays
validated:

* ``ph`` must be a known phase character;
* ``ts`` (and ``dur`` on complete events) must be *integers* -- the spec
  types timestamps as int64 microseconds and Perfetto's strict JSON path
  rejects floats;
* ``pid``/``tid`` must be integers;
* instant events need a valid scope ``s`` in {"g", "p", "t"};
* ``B``/``E`` events must nest stack-like per ``(pid, tid)``;
* ``args``, when present, must be a JSON-serialisable mapping.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

#: Phase characters defined by the Catapult trace-event format spec.
VALID_PHASES = frozenset(
    {
        "B", "E",  # duration begin/end
        "X",  # complete
        "i", "I",  # instant (I is the legacy spelling)
        "C",  # counter
        "b", "n", "e",  # async
        "s", "t", "f",  # flow
        "P",  # sample
        "N", "O", "D",  # object created/snapshot/destroyed
        "M",  # metadata
        "V", "v",  # memory dumps
        "R",  # mark
        "c",  # clock sync
        "(", ")",  # context
    }
)

#: Valid scopes for instant events.
INSTANT_SCOPES = frozenset({"g", "p", "t"})

#: Phases that are timestamped samples in the timeline (need ``ts``).
_TIMESTAMPED = frozenset({"B", "E", "X", "i", "I", "C"})


def _is_int(value: Any) -> bool:
    """True for genuine integers (bool is int in Python; reject it)."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_trace_events(events: Iterable[Dict[str, Any]]) -> List[str]:
    """Check ``events`` against the Catapult field spec; returns problems.

    ``events`` is the ``traceEvents`` array (or the recorder's in-memory
    event list).  An empty return value means the trace is conformant.
    """
    problems: List[str] = []
    # open B-event stacks per (pid, tid)
    stacks: Dict[Tuple[int, int], List[str]] = {}
    for i, ev in enumerate(events):
        where = f"event {i}"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing or non-string name")
        else:
            where = f"event {i} ({name!r})"
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            problems.append(f"{where}: invalid ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if key in ev and not _is_int(ev[key]):
                problems.append(f"{where}: {key} {ev[key]!r} is not an int")
        if ph in _TIMESTAMPED:
            if "ts" not in ev:
                problems.append(f"{where}: ph {ph!r} requires ts")
            elif not _is_int(ev["ts"]):
                problems.append(f"{where}: ts {ev['ts']!r} is not an int")
        if ph == "X":
            if "dur" not in ev:
                problems.append(f"{where}: complete event requires dur")
            elif not _is_int(ev["dur"]):
                problems.append(f"{where}: dur {ev['dur']!r} is not an int")
            elif ev["dur"] < 0:
                problems.append(f"{where}: negative dur {ev['dur']}")
        if ph in ("i", "I"):
            scope = ev.get("s", "t")
            if scope not in INSTANT_SCOPES:
                problems.append(f"{where}: instant scope {scope!r} invalid")
        if ph in ("B", "E"):
            key = (ev.get("pid", 0), ev.get("tid", 0))
            stack = stacks.setdefault(key, [])
            if ph == "B":
                stack.append(name if isinstance(name, str) else "?")
            elif not stack:
                problems.append(f"{where}: E without matching B on {key}")
            else:
                stack.pop()
        if "args" in ev:
            args = ev["args"]
            if not isinstance(args, dict):
                problems.append(f"{where}: args is not an object")
            else:
                try:
                    json.dumps(args)
                except (TypeError, ValueError) as exc:
                    problems.append(f"{where}: args not serialisable: {exc}")
    for (pid, tid), stack in stacks.items():
        if stack:
            problems.append(
                f"unclosed B events on pid={pid} tid={tid}: {stack[:5]}"
            )
    return problems
