"""Declarative SLOs with multi-window burn-rate alerting, evaluated live.

An :class:`SloSpec` names an error budget over a *bad / total* ratio that
the telemetry samples carry cumulatively:

* ``late_jobs`` -- completions past their deadline over all completions
  (the paper's N/P, watched online instead of at ``finalize()``);
* ``slow_invocations`` -- scheduler invocations whose wall overhead
  exceeded ``threshold`` seconds, over all invocations, read from the
  sampled ``scheduler.overhead_seconds`` bucket counts (a p99 target of
  ``threshold`` is ``budget=0.01``);
* ``degraded_solves`` -- plans produced below the ``cp_full`` ladder rung
  over all ladder solves (``resilience.rung_used.*`` counters).

The :class:`SloMonitor` subscribes to the sampler and applies the
multi-window burn-rate rule: for each :class:`BurnWindow` the burn rate is
``(bad/total over the window) / budget``, and the window *trips* when both
its long and short burns reach ``factor`` (the short window gates on
recency so a stale burst cannot alert forever).  Alerts are edge-triggered
-- one ``fired`` record when any window trips, one ``resolved`` when none
does -- and land in four places at once: the in-memory alert list, the
trace as ``slo.alert`` instants, the registry (``slo.alerts_fired`` plus a
per-SLO counter), and a structured warning log.  Every input is simulated
time or deterministic counts, so same-seed runs alert identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ioutil import atomic_write_text
from repro.obs.logs import get_logger, kv
from repro.obs.trace import NULL_TRACER, Tracer

_LOG = get_logger("obs.slo")

#: SLO kinds the monitor can evaluate.
KINDS = ("late_jobs", "slow_invocations", "degraded_solves")


@dataclass(frozen=True)
class BurnWindow:
    """One long/short burn-rate window pair, in simulated seconds."""

    #: Long lookback: sets how much budget the alert tolerates burning.
    long_window: float
    #: Short lookback: gates on recency (the burn must still be happening).
    short_window: float
    #: Burn-rate multiple of the budget at which the pair trips.
    factor: float

    def validate(self) -> None:
        """Reject inverted or non-positive windows."""
        if self.long_window <= 0 or self.short_window <= 0:
            raise ValueError(f"windows must be positive: {self}")
        if self.short_window > self.long_window:
            raise ValueError(f"short window exceeds long window: {self}")
        if self.factor <= 0:
            raise ValueError(f"factor must be positive: {self}")


#: Fast burn (page-worthy) and slow burn (budget-exhausting) pairs.
DEFAULT_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(long_window=60.0, short_window=15.0, factor=2.0),
    BurnWindow(long_window=300.0, short_window=60.0, factor=1.0),
)


@dataclass(frozen=True)
class SloSpec:
    """One declarative SLO: a budgeted bad/total ratio plus windows."""

    #: Alert name (also the registry counter suffix ``slo.alert.<name>``).
    name: str
    #: One of :data:`KINDS`.
    kind: str
    #: Allowed bad fraction (error budget), in (0, 1].
    budget: float
    #: ``slow_invocations`` only: overhead seconds above which an
    #: invocation counts as bad.
    threshold: float = 0.0
    #: Burn-rate window pairs; any pair tripping fires the alert.
    windows: Tuple[BurnWindow, ...] = DEFAULT_WINDOWS

    def validate(self) -> None:
        """Reject malformed specs before a run starts."""
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r} (expected one of {KINDS})"
            )
        if not 0 < self.budget <= 1:
            raise ValueError(
                f"budget must be in (0, 1]: {self.name} has {self.budget}"
            )
        if not self.windows:
            raise ValueError(f"SLO {self.name!r} has no burn windows")
        for window in self.windows:
            window.validate()


def default_slos() -> Tuple[SloSpec, ...]:
    """The stock SLO set: late-job budget, p99 overhead, rung ceiling."""
    return (
        SloSpec(name="late-jobs", kind="late_jobs", budget=0.10),
        SloSpec(
            name="scheduling-overhead-p99",
            kind="slow_invocations",
            budget=0.01,
            threshold=1.0,
        ),
        SloSpec(name="degraded-solves", kind="degraded_solves", budget=0.25),
    )


@dataclass
class SloAlert:
    """One edge-triggered alert transition (``fired`` or ``resolved``)."""

    #: The SLO's name.
    name: str
    #: The SLO's kind.
    kind: str
    #: ``"fired"`` or ``"resolved"``.
    state: str
    #: Simulated time of the transition.
    sim_time: float
    #: Burn rates of the tripping window pair (zeros on resolve).
    burn_long: float = 0.0
    burn_short: float = 0.0
    #: The tripping pair's windows (zeros on resolve).
    long_window: float = 0.0
    short_window: float = 0.0
    #: Bad/total deltas over the tripping long window.
    bad: float = 0.0
    total: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe record (one alert-log line)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "state": self.state,
            "sim_time": self.sim_time,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
            "long_window": self.long_window,
            "short_window": self.short_window,
            "bad": self.bad,
            "total": self.total,
        }


def _bad_total(
    spec: SloSpec,
    sample: Mapping[str, Any],
    boundaries: Optional[Sequence[float]],
) -> Optional[Tuple[float, float]]:
    """Cumulative (bad, total) counts for ``spec`` at ``sample``."""
    if spec.kind == "late_jobs":
        completed = sample.get("jobs_completed")
        late = sample.get("N")
        if completed is None or late is None:
            return None
        return float(late), float(completed)
    if spec.kind == "slow_invocations":
        counts = sample.get("overhead_buckets")
        if counts is None or boundaries is None:
            return None
        total = float(sum(counts))
        # counts[i] holds observations <= boundaries[i]; the final entry
        # is the overflow bucket.  Bad = observations in buckets whose
        # upper bound exceeds the threshold (conservative: a bucket
        # straddling the threshold counts as slow).
        bad = float(
            sum(
                count
                for count, bound in zip(
                    counts, list(boundaries) + [float("inf")]
                )
                if bound > spec.threshold
            )
        )
        return bad, total
    # degraded_solves
    counters = sample.get("counters")
    if counters is None:
        return None
    total = bad = 0.0
    for name, value in counters.items():
        if name.startswith("resilience.rung_used."):
            total += float(value)
            if name != "resilience.rung_used.cp_full":
                bad += float(value)
    return bad, total


class SloMonitor:
    """Evaluates SLO burn rates against the live telemetry samples.

    Subscribe it to a sampler
    (``sampler.add_listener(monitor.observe)``); each sample advances the
    per-SLO cumulative history and re-evaluates every window pair.
    """

    def __init__(
        self,
        specs: Sequence[SloSpec],
        tracer: Optional[Tracer] = None,
    ) -> None:
        for spec in specs:
            spec.validate()
        self.specs = tuple(specs)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: All alert transitions, in firing order.
        self.alerts: List[SloAlert] = []
        self._active: Dict[str, bool] = {spec.name: False for spec in specs}
        # Per-spec history of (sim_time, bad, total) cumulative points.
        self._history: Dict[str, List[Tuple[float, float, float]]] = {
            spec.name: [] for spec in specs
        }
        self._overhead_boundaries: Optional[Tuple[float, ...]] = None
        registry = self.tracer.registry
        self._m_fired = registry.counter("slo.alerts_fired")
        self._m_by_name = {
            spec.name: registry.counter(f"slo.alert.{spec.name}")
            for spec in specs
        }

    # ----------------------------------------------------------- evaluate
    def subscribe(self, sampler) -> None:
        """Attach to a sampler: every sample is evaluated as it lands."""
        if not getattr(sampler, "enabled", False):
            return

        def _listen(sample: Mapping[str, Any]) -> None:
            self.set_overhead_boundaries(sampler.overhead_boundaries)
            self.observe(sample)

        sampler.add_listener(_listen)

    def set_overhead_boundaries(
        self, boundaries: Optional[Sequence[float]]
    ) -> None:
        """Tell the monitor the overhead histogram's bucket bounds."""
        if boundaries is not None:
            self._overhead_boundaries = tuple(boundaries)

    def observe(self, sample: Mapping[str, Any]) -> List[SloAlert]:
        """Fold one telemetry sample in; returns new alert transitions."""
        now = float(sample.get("sim_time", 0.0))
        transitions: List[SloAlert] = []
        for spec in self.specs:
            point = _bad_total(spec, sample, self._overhead_boundaries)
            if point is None:
                continue
            bad, total = point
            history = self._history[spec.name]
            history.append((now, bad, total))
            tripping = self._evaluate(spec, history, now, bad, total)
            active = self._active[spec.name]
            if tripping is not None and not active:
                alert = self._transition(spec, "fired", now, tripping)
                transitions.append(alert)
            elif tripping is None and active:
                alert = self._transition(spec, "resolved", now, None)
                transitions.append(alert)
        return transitions

    def _window_delta(
        self,
        history: List[Tuple[float, float, float]],
        now: float,
        window: float,
        bad: float,
        total: float,
    ) -> Tuple[float, float]:
        """Bad/total deltas over the trailing ``window`` sim-seconds.

        The baseline is the latest history point at or before
        ``now - window``; a window reaching past the series start is
        clamped to the first sample (partial-window evaluation, so short
        runs still alert).
        """
        cutoff = now - window
        baseline = history[0]
        for point in history:
            if point[0] <= cutoff:
                baseline = point
            else:
                break
        return bad - baseline[1], total - baseline[2]

    def _evaluate(
        self,
        spec: SloSpec,
        history: List[Tuple[float, float, float]],
        now: float,
        bad: float,
        total: float,
    ) -> Optional[Tuple[BurnWindow, float, float, float, float]]:
        """First tripping window pair, or None when the SLO is healthy."""
        for window in spec.windows:
            d_bad_l, d_total_l = self._window_delta(
                history, now, window.long_window, bad, total
            )
            d_bad_s, d_total_s = self._window_delta(
                history, now, window.short_window, bad, total
            )
            if d_total_l <= 0 or d_total_s <= 0:
                continue
            burn_long = (d_bad_l / d_total_l) / spec.budget
            burn_short = (d_bad_s / d_total_s) / spec.budget
            if burn_long >= window.factor and burn_short >= window.factor:
                return window, burn_long, burn_short, d_bad_l, d_total_l
        return None

    def _transition(
        self,
        spec: SloSpec,
        state: str,
        now: float,
        tripping: Optional[Tuple[BurnWindow, float, float, float, float]],
    ) -> SloAlert:
        self._active[spec.name] = state == "fired"
        if tripping is not None:
            window, burn_long, burn_short, bad, total = tripping
            alert = SloAlert(
                name=spec.name,
                kind=spec.kind,
                state=state,
                sim_time=now,
                burn_long=burn_long,
                burn_short=burn_short,
                long_window=window.long_window,
                short_window=window.short_window,
                bad=bad,
                total=total,
            )
        else:
            alert = SloAlert(
                name=spec.name, kind=spec.kind, state=state, sim_time=now
            )
        self.alerts.append(alert)
        if state == "fired":
            self._m_fired.inc()
            self._m_by_name[spec.name].inc()
            _LOG.warning(
                "slo alert fired %s",
                kv(
                    name=spec.name,
                    kind=spec.kind,
                    sim_time=now,
                    burn_long=round(alert.burn_long, 4),
                    burn_short=round(alert.burn_short, 4),
                ),
            )
        else:
            _LOG.info(
                "slo alert resolved %s", kv(name=spec.name, sim_time=now)
            )
        self.tracer.instant(
            "slo.alert",
            "slo",
            args={
                "name": spec.name,
                "state": state,
                "burn_long": alert.burn_long,
                "burn_short": alert.burn_short,
            },
            sim_track=True,
        )
        return alert

    # ------------------------------------------------------------- output
    @property
    def fired(self) -> List[SloAlert]:
        """Only the ``fired`` transitions."""
        return [a for a in self.alerts if a.state == "fired"]

    def write_alerts(self, path: str) -> str:
        """Write the alert log as JSONL (one transition per line)."""
        lines = [
            json.dumps(alert.as_dict(), sort_keys=True)
            for alert in self.alerts
        ]
        atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
        return path
