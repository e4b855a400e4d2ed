"""Span-based tracing with Chrome trace-event output.

One :class:`Tracer` accompanies one run.  Instrumented code opens *spans*
(``with tracer.span("scheduler.invocation"): ...``); the recorder stores one
Chrome trace-event ``X`` (complete) entry per span, loadable in Perfetto or
``chrome://tracing``.  Alongside the Chrome JSON the recorder can emit the
same events as a JSONL log (one JSON object per line) for ad-hoc ``jq``-style
analysis.

Two timebases share the file:

* **pid 1 ("wall")** -- real elapsed time (microseconds since the tracer was
  created), used for scheduler invocations and CP solver phases.  This is
  where scheduling overhead O is visible.
* **pid 2 ("sim")**  -- simulated time (simulated seconds as microseconds),
  used for task executions and job lifecycle instants, one Perfetto row per
  resource.

Determinism contract: the tracer reads clocks only through its two
injectable sources (``wall_clock``, default ``time.perf_counter``, and the
bound sim clock).  It never schedules simulation events and never draws
randomness, so enabling tracing cannot change a run's N/T/P.  When disabled
(no recorder) every call is a no-op returning the shared
:data:`NULL_SPAN` -- nothing is allocated on the fast path.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ioutil import atomic_write_jsonl, atomic_write_text
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

#: Chrome trace process ids for the two timebases.
WALL_PID = 1
SIM_PID = 2


class NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        """No-op context entry."""
        return self

    def __exit__(self, *exc: object) -> bool:
        """No-op context exit; never swallows exceptions."""
        return False

    def add(self, **args: object) -> "NullSpan":
        """Discard span annotations (tracing disabled)."""
        return self


#: Singleton no-op span: reused so the disabled path never allocates.
NULL_SPAN = NullSpan()


class Span:
    """An open span; records one complete event when the ``with`` exits."""

    __slots__ = ("_tracer", "name", "cat", "args", "_t0", "_sim0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        args: Optional[Dict[str, object]],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = dict(args) if args else {}
        self._t0 = 0.0
        self._sim0 = 0.0

    def add(self, **args: object) -> "Span":
        """Attach extra key/value annotations to the span."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        """Stamp the span's start on both clocks."""
        self._t0 = self._tracer.wall_us()
        self._sim0 = self._tracer.sim_clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        """Record the completed span; exceptions propagate."""
        t1 = self._tracer.wall_us()
        args = self.args
        args["sim_time"] = self._sim0
        self._tracer.recorder.complete(
            self.name, self.cat, self._t0, max(t1 - self._t0, 0.0), args=args
        )
        return False


class TraceRecorder:
    """In-memory Chrome trace-event collector.

    Events accumulate as plain dicts in emission order;
    :meth:`write_chrome` / :meth:`write_jsonl` serialise them at the end of
    the run (tracing never does file I/O mid-simulation).
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def complete(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        pid: int = WALL_PID,
        tid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record a complete ("X") span event at ``ts`` lasting ``dur`` us.

        Timestamps are quantised to integer microseconds: the Catapult
        trace-event spec types ``ts``/``dur`` as integers, and Perfetto's
        strict JSON path rejects floats (`tests/obs/test_trace_conformance`
        pins this).
        """
        ev: Dict[str, Any] = {
            "name": name,
            "cat": cat or "repro",
            "ph": "X",
            "ts": int(round(ts)),
            "dur": int(round(dur)),
            "pid": pid,
            "tid": tid,
        }
        if args:
            ev["args"] = args
        self.events.append(ev)

    def instant(
        self,
        name: str,
        cat: str,
        ts: float,
        pid: int = WALL_PID,
        tid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record an instant ("i") event -- a point-in-time marker."""
        ev: Dict[str, Any] = {
            "name": name,
            "cat": cat or "repro",
            "ph": "i",
            "s": "t",
            "ts": int(round(ts)),
            "pid": pid,
            "tid": tid,
        }
        if args:
            ev["args"] = args
        self.events.append(ev)

    def _metadata_events(self) -> List[Dict[str, Any]]:
        names = [
            ("process_name", WALL_PID, 0, {"name": "wall (scheduler/solver)"}),
            ("process_name", SIM_PID, 0, {"name": "sim (tasks/jobs)"}),
        ]
        return [
            {"name": n, "ph": "M", "pid": pid, "tid": tid, "args": args}
            for n, pid, tid, args in names
        ]

    def chrome_trace(
        self, metrics: Optional[Dict[str, object]] = None
    ) -> Dict[str, Any]:
        """The full Chrome trace-event document as a dict."""
        doc: Dict[str, Any] = {
            "traceEvents": self._metadata_events() + self.events,
            "displayTimeUnit": "ms",
        }
        if metrics:
            doc["otherData"] = {"metrics": metrics}
        return doc

    def write_chrome(
        self, path: str, metrics: Optional[Dict[str, object]] = None
    ) -> None:
        """Write the Chrome trace JSON document to ``path`` atomically."""
        atomic_write_text(path, json.dumps(self.chrome_trace(metrics)))

    def write_jsonl(
        self, path: str, metrics: Optional[Dict[str, object]] = None
    ) -> None:
        """Write one JSON object per event to ``path`` (JSONL log).

        A final ``{"name": "metrics.snapshot", ...}`` line carries the
        metrics-registry snapshot when one is supplied.
        """
        records = list(self.events)
        if metrics is not None:
            records.append({"name": "metrics.snapshot", "ph": "M", "args": metrics})
        atomic_write_jsonl(path, records, sort_keys=False)


def _zero_clock() -> float:
    """Default sim clock before a simulator is bound."""
    return 0.0


class Tracer:
    """Front-end the instrumented layers talk to.

    ``recorder=None`` builds a *disabled* tracer: ``enabled`` is False,
    :meth:`span` returns :data:`NULL_SPAN`, and the attached registry is the
    shared null registry -- the whole surface becomes no-ops while call
    sites stay branch-free.  A disabled tracer still carries the injectable
    ``wall_clock``, which the resource manager uses to measure overhead O,
    so tests can pin O deterministically with or without tracing.
    """

    __slots__ = ("recorder", "enabled", "wall_clock", "sim_clock", "registry", "_epoch")

    def __init__(
        self,
        recorder: Optional[TraceRecorder] = None,
        wall_clock: Optional[Callable[[], float]] = None,
        sim_clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.recorder = recorder
        self.enabled = recorder is not None
        self.wall_clock = wall_clock if wall_clock is not None else time.perf_counter
        self.sim_clock = sim_clock if sim_clock is not None else _zero_clock
        if registry is None:
            registry = MetricsRegistry() if self.enabled else NULL_REGISTRY
        self.registry = registry
        self._epoch = self.wall_clock() if self.enabled else 0.0

    # ------------------------------------------------------------- clocks
    def bind_sim_clock(self, sim_clock: Callable[[], float]) -> None:
        """Point the tracer at the simulation clock (``lambda: sim.now``)."""
        self.sim_clock = sim_clock

    def wall_us(self) -> float:
        """Wall time in microseconds since the tracer's epoch."""
        return (self.wall_clock() - self._epoch) * 1e6

    # -------------------------------------------------------------- spans
    def span(
        self,
        name: str,
        cat: str = "",
        args: Optional[Dict[str, object]] = None,
    ) -> "Span | NullSpan":
        """Open a wall-clock span; use as a context manager.

        Pass annotations as a prebuilt ``args`` dict (and only build it
        under an ``if tracer.enabled:`` guard when it is expensive).
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat, args)

    def marker(
        self,
        name: str,
        cat: str = "",
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """A zero-duration span (e.g. a solver phase that was skipped)."""
        if not self.enabled:
            return
        merged = dict(args) if args else {}
        merged["sim_time"] = self.sim_clock()
        self.recorder.complete(name, cat, self.wall_us(), 0.0, args=merged)

    def instant(
        self,
        name: str,
        cat: str = "",
        args: Optional[Dict[str, object]] = None,
        sim_track: bool = False,
    ) -> None:
        """A point event, on the wall track or (``sim_track=True``) sim track."""
        if not self.enabled:
            return
        if sim_track:
            self.recorder.instant(
                name, cat, self.sim_clock() * 1e6, pid=SIM_PID, args=args
            )
        else:
            merged = dict(args) if args else {}
            merged["sim_time"] = self.sim_clock()
            self.recorder.instant(name, cat, self.wall_us(), args=merged)

    def sim_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        tid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """A retroactive span on the simulated timeline (seconds in, us out).

        Used by the executor when a task completes: the span covers the
        attempt's ``[start, end)`` in simulated time, on the row of its
        resource (``tid``).
        """
        if not self.enabled:
            return
        self.recorder.complete(
            name,
            cat,
            start * 1e6,
            max(end - start, 0.0) * 1e6,
            pid=SIM_PID,
            tid=tid,
            args=args,
        )

    # ------------------------------------------------------------- output
    def write(self, path: str) -> Tuple[str, str]:
        """Write the Chrome trace to ``path`` and a JSONL log alongside.

        The JSONL path is ``path`` with its suffix replaced by ``.jsonl``
        (or appended when there is no ``.json`` suffix).  Both files embed
        the final metrics-registry snapshot.  Returns the two paths.
        """
        if not self.enabled:
            raise RuntimeError("cannot write a disabled tracer's trace")
        snapshot = self.registry.as_dict()
        jsonl = jsonl_path(path)
        self.recorder.write_chrome(path, metrics=snapshot)
        self.recorder.write_jsonl(jsonl, metrics=snapshot)
        return path, jsonl


def jsonl_path(path: str) -> str:
    """The JSONL event log :meth:`Tracer.write` puts beside trace ``path``."""
    if path.endswith(".json"):
        return path[: -len(".json")] + ".jsonl"
    return path + ".jsonl"


#: Process-wide disabled tracer: the default for every instrumented layer.
NULL_TRACER = Tracer(None)
