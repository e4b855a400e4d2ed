"""Live telemetry: a deterministic sim-time sampler and ring-buffer store.

The post-hoc observability stack (traces, the metrics registry, forensics)
only speaks after :meth:`~repro.metrics.collector.MetricsCollector.finalize`;
this module watches the run *while it executes*.  A
:class:`TimeSeriesSampler` rides the simulation calendar itself: every
``interval`` simulated seconds it snapshots the kernel, the metrics
collector, the metrics registry, and any component-registered probes into a
bounded ring-buffer :class:`SeriesStore`.  Consumers -- the SLO monitor
(:mod:`repro.obs.slo`), the OpenMetrics exporter (:mod:`repro.obs.export`),
the HTML report's live timeline -- read the store or subscribe as
listeners.  The admission service has no calendar to ride; its
:class:`WallSeriesSampler` samples on the service clock whenever the
caller's loop finds a sample due.  Both samplers share one core (probes,
listeners, store, sequence numbers) and write one JSONL layout.

Determinism contract (mirrors the tracer's dual-timeline discipline):

* the cadence is **simulated** time, so same-seed runs sample at the same
  instants and see the same state -- the series is byte-identical across
  reruns once wall-clock fields are quarantined;
* the sampler never touches the tracer's wall clock (a pinned clock's draw
  count feeds the overhead metric O); the solver phase times it copies
  from the collector are wall time, quarantined on write;
* sampling events ride the calendar at :data:`SAMPLE_PRIORITY` (after
  every same-instant state transition) and re-arm only while real work is
  pending, so the run still drains and O/N/T/P are untouched;
* telemetry off hands out the shared :data:`NULL_SAMPLER` -- the same
  zero-overhead null-object pattern as ``NULL_REGISTRY``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.ioutil import atomic_write_jsonl, read_jsonl

if TYPE_CHECKING:  # avoid the repro.sim -> repro.obs import cycle
    from repro.metrics.collector import MetricsCollector
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.kernel import Simulator

#: Same-timestamp ordering: samples fire after every state transition at
#: their instant (releases=0, default=5, acquires=9), so a sample observes
#: the post-transition state, never a half-applied one.
SAMPLE_PRIORITY = 10

#: Sample fields that only replay identically under a pinned wall clock;
#: the JSONL writer drops them (the sweeps' quarantine rule).
QUARANTINED_KEYS = frozenset({"phase_times"})

#: Schema tag stamped on the series JSONL meta line.
SERIES_SCHEMA = "repro-telemetry/1"


@dataclass
class TelemetryConfig:
    """Knobs for the live telemetry sampler (``ObsConfig.telemetry``)."""

    #: Master switch; off hands out :data:`NULL_SAMPLER` (zero overhead).
    enabled: bool = False
    #: Sampling cadence in **simulated** seconds (grid-aligned: samples
    #: land at multiples of the interval, not ``start + k*interval``).
    interval: float = 5.0
    #: Ring-buffer capacity; the oldest samples drop past it.
    capacity: int = 4096
    #: When set, the run writes the sampled series here as JSONL.
    series_out: Optional[str] = None
    #: When set, fired/resolved SLO alerts are written here as JSONL.
    alerts_out: Optional[str] = None

    def validate(self) -> None:
        """Reject unusable settings before a run starts."""
        if self.interval <= 0:
            raise ValueError(f"telemetry interval must be > 0: {self.interval}")
        if self.capacity <= 0:
            raise ValueError(f"telemetry capacity must be > 0: {self.capacity}")


class SeriesStore:
    """Bounded ring buffer of telemetry samples, in sampling order."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0: {capacity}")
        self.capacity = capacity
        self._samples: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        #: Samples ever appended (``dropped = total - len(store)``).
        self.total = 0

    def append(self, sample: Dict[str, Any]) -> None:
        """Add one sample; the oldest is evicted past ``capacity``."""
        self._samples.append(sample)
        self.total += 1

    @property
    def dropped(self) -> int:
        """Samples evicted by the ring buffer."""
        return self.total - len(self._samples)

    @property
    def samples(self) -> List[Dict[str, Any]]:
        """The retained samples, oldest first (a fresh list)."""
        return list(self._samples)

    @property
    def last(self) -> Optional[Dict[str, Any]]:
        """The most recent sample, or None before the first one."""
        return self._samples[-1] if self._samples else None

    def __len__(self) -> int:
        return len(self._samples)


class _SeriesSampler:
    """What both samplers share: probes, listeners, store, JSONL writer.

    A record is opened with the next sequence number, filled by the
    subclass, then closed by :meth:`_emit`, which reads every probe, stores
    the record and hands it to each listener.  Subclasses decide *when* a
    sample is due and which fields it carries.
    """

    def __init__(
        self,
        interval: float,
        capacity: int,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0: {interval}")
        self.interval = interval
        self.store = SeriesStore(capacity)
        self._registry = registry
        self._probes: Dict[str, Callable[[], float]] = {}
        self._listeners: List[Callable[[Mapping[str, Any]], object]] = []
        self._seq = 0

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register a named gauge callable, read at every sample."""
        self._probes[name] = fn

    def add_listener(self, fn: Callable[[Mapping[str, Any]], object]) -> None:
        """Call ``fn(sample)`` after each sample is stored (SLO monitor)."""
        self._listeners.append(fn)

    def _open(self, final: bool, **head: Any) -> Dict[str, Any]:
        """A new record: sequence number, ``head`` fields, final flag."""
        record = {"seq": self._seq, **head, "final": bool(final)}
        self._seq += 1
        return record

    def _read_registry(self, record: Dict[str, Any]) -> None:
        """Scalar registry values go under ``counters``; histograms to
        :meth:`_histogram`."""
        counters: Dict[str, float] = {}
        for name, value in self._registry.as_dict().items():
            if isinstance(value, dict):
                self._histogram(record, name, value)
            else:
                counters[name] = value
        record["counters"] = counters

    def _histogram(self, record: Dict[str, Any], name: str, value: Dict) -> None:
        """Histograms stay out of the record unless a subclass keeps one."""

    def _emit(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Read the probes, store the record and fan it out."""
        record["probes"] = {name: self._probes[name]() for name in sorted(self._probes)}
        self.store.append(record)
        for listener in self._listeners:
            listener(record)
        return record

    def _meta(self) -> Dict[str, Any]:
        """Sampler-specific fields of the JSONL meta line."""
        return {}

    def write_series(self, path: str) -> str:
        """Write the stored series as JSONL (meta line + one per sample).

        Wall-clock fields (:data:`QUARANTINED_KEYS`) are dropped -- the same
        quarantine rule that keeps sweep outputs byte-identical across
        machines.
        """
        meta: Dict[str, Any] = {
            "schema": SERIES_SCHEMA,
            "interval": self.interval,
            "capacity": self.store.capacity,
            "samples": len(self.store),
            "total_samples": self.store.total,
            "dropped": self.store.dropped,
            **self._meta(),
        }
        samples = (
            {k: v for k, v in sample.items() if k not in QUARANTINED_KEYS}
            for sample in self.store.samples
        )
        return atomic_write_jsonl(path, [meta, *samples])


class TimeSeriesSampler(_SeriesSampler):
    """Samples kernel/collector/registry state on a sim-time cadence.

    Wire-up order: :meth:`attach` binds the run's simulator, collector and
    registry; components contribute :meth:`add_probe` callables (queue
    depth, slot utilization, breaker state); consumers subscribe with
    :meth:`add_listener`; :meth:`start` takes the first sample and arms
    the cadence.  After the calendar drains, :meth:`finalize` records the
    closing sample -- its O/N/T/P match ``RunMetrics.as_dict()`` exactly.
    """

    #: Real samplers record; the shared null sampler overrides to False.
    enabled = True

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig(enabled=True)
        self.config.validate()
        super().__init__(self.config.interval, self.config.capacity)
        self._sim: Optional["Simulator"] = None
        self._collector: Optional["MetricsCollector"] = None
        self._handle = None
        self._overhead_boundaries: Optional[Tuple[float, ...]] = None

    # ------------------------------------------------------------- wiring
    def attach(
        self,
        sim: "Simulator",
        collector: Optional["MetricsCollector"] = None,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        """Bind the run's simulator (required), collector and registry."""
        self._sim = sim
        self._collector = collector
        self._registry = registry

    # ----------------------------------------------------------- sampling
    def start(self) -> None:
        """Take the opening sample and arm the sim-time cadence."""
        if self._sim is None:
            raise RuntimeError("attach() must be called before start()")
        self.sample()
        self._arm()

    def _arm(self) -> None:
        """Schedule the next tick -- only while real work is pending.

        The guard (``sim.peek() is not None``) is what lets the run drain:
        the sampler never keeps the calendar alive on its own, so at most
        one trailing sample fires after the last real event.
        """
        sim = self._sim
        if sim is None or sim.peek() is None:
            return
        interval = self.interval
        next_t = (math.floor(sim.now / interval + 1e-9) + 1) * interval
        self._handle = sim.schedule_at(next_t, self._tick, priority=SAMPLE_PRIORITY)

    def _tick(self) -> None:
        self._handle = None
        self.sample()
        self._arm()

    def sample(self, final: bool = False) -> Dict[str, Any]:
        """Snapshot the run into one sample record and store it."""
        record = self._open(final)
        sim = self._sim
        if sim is not None:
            sim.sync_gauges()
            record.update(sim.telemetry_snapshot())
        collector = self._collector
        if collector is not None:
            record.update(collector.live_summary())
            record["jobs_arrived"] = collector.jobs_arrived
            record["jobs_completed"] = collector.jobs_completed
            record["jobs_failed"] = collector.jobs_failed
            record["invocations"] = collector.invocations
            record["phase_times"] = {
                "propagate": collector.solver_propagate_time,
                "warm_start": collector.solver_warm_start_time,
                "tree": collector.solver_tree_time,
                "lns": collector.solver_lns_time,
            }
        if self._registry is not None:
            self._read_registry(record)
        return self._emit(record)

    def _histogram(self, record: Dict[str, Any], name: str, value: Dict) -> None:
        if name == "scheduler.overhead_seconds":
            record["overhead_buckets"] = list(value["counts"])
            self._overhead_boundaries = tuple(value["boundaries"])

    def finalize(self) -> Optional[Dict[str, Any]]:
        """Cancel any pending tick and take the closing sample."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if self._sim is None:
            return None
        return self.sample(final=True)

    # ------------------------------------------------------------- output
    @property
    def overhead_boundaries(self) -> Optional[Tuple[float, ...]]:
        """Bucket boundaries of the sampled overhead histogram, if seen."""
        return self._overhead_boundaries

    def _meta(self) -> Dict[str, Any]:
        if self._overhead_boundaries is None:
            return {}
        return {"overhead_boundaries": list(self._overhead_boundaries)}


class WallSeriesSampler(_SeriesSampler):
    """Probe sampler on a *wall/service* time axis (no simulator).

    The admission service has no simulation calendar to ride, so this
    sampler is driven by its caller: the service's batch loop calls
    :meth:`maybe_sample` with the current service-clock reading and a
    sample is taken whenever at least ``interval`` seconds have elapsed
    since the previous one.  Samples reuse :class:`SeriesStore` and the
    ``repro-telemetry/1`` JSONL layout (meta carries ``axis: "wall"``),
    so the existing readers and the diff tooling apply unchanged.

    Under a :class:`~repro.obs.clocks.ManualServiceClock` the cadence --
    and therefore the whole series minus quarantined fields -- is as
    deterministic as the sim-time sampler's.
    """

    def __init__(
        self,
        interval: float = 1.0,
        capacity: int = 4096,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        super().__init__(interval, capacity, registry)
        self._next_due: Optional[float] = None

    def maybe_sample(self, now: float) -> Optional[Dict[str, Any]]:
        """Take a sample iff the cadence is due at ``now`` (else None)."""
        if self._next_due is not None and now < self._next_due:
            return None
        return self.sample(now)

    def sample(self, now: float, final: bool = False) -> Dict[str, Any]:
        """Snapshot probes + registry counters at service time ``now``."""
        record = self._open(final, t=float(now))
        if self._registry is not None:
            self._read_registry(record)
        self._next_due = now + self.interval
        return self._emit(record)

    def _meta(self) -> Dict[str, Any]:
        return {"axis": "wall"}


class NullTimeSeriesSampler(TimeSeriesSampler):
    """Inert sampler handed out when telemetry is off (shared singleton).

    Every method is a no-op; hot paths hold a sampler unconditionally and
    pay one attribute load on the disabled path (the ``NULL_REGISTRY``
    pattern).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(TelemetryConfig(enabled=False, capacity=1))

    def attach(self, sim, collector=None, registry=None) -> None:
        """No-op."""

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """No-op."""

    def add_listener(self, fn: Callable[[Mapping[str, Any]], object]) -> None:
        """No-op."""

    def start(self) -> None:
        """No-op."""

    def sample(self, final: bool = False) -> Dict[str, Any]:
        """No-op; returns an empty record and stores nothing."""
        return {}

    def finalize(self) -> Optional[Dict[str, Any]]:
        """No-op."""
        return None

    def write_series(self, path: str) -> str:
        """Refuse: a disabled sampler has nothing to write."""
        raise RuntimeError("telemetry is disabled: no series to write")


#: The shared inert sampler (telemetry off) -- never mutated.
NULL_SAMPLER = NullTimeSeriesSampler()


def read_series_jsonl(
    path: str,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a series JSONL file back into (meta, samples).

    The first line must be the meta object carrying :data:`SERIES_SCHEMA`;
    a damaged file raises ``ValueError`` (:func:`repro.ioutil.read_jsonl`).
    """
    meta, *samples = read_jsonl(path, schema=SERIES_SCHEMA)
    return meta, samples
