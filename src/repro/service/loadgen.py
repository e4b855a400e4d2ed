"""Deterministic load generation for the admission service.

Two drivers share one seeded arrival stream:

* :func:`run_inprocess` -- the replayable harness: a
  :class:`~repro.obs.clocks.ManualServiceClock` is advanced to each
  arrival and the service's sync core is pumped directly, so the whole
  run is single-threaded and the admission verdicts depend only on
  (seed, profile, cluster, batching config).  This is what the
  ``service_admission_latency`` bench case and the batching-determinism
  property test drive.
* :func:`run_against_url` -- the end-to-end smoke driver behind
  ``mrcp-rm loadtest``: the same stream is POSTed to a live HTTP
  endpoint over asyncio connections (open-loop, paced by wall time
  compressed by ``time_scale``).

Latency accounting is split on purpose: *solve* latency (inside the
controller, wall clock, pinnable) versus *admission* latency as observed
by the client (includes batching hold time).  The in-process report
carries both; the bench baseline pins only the deterministic verdict
digest, counts and service-time percentiles -- wall latency is measured
by ``perf/``'s ``svc_quote_stream`` workload.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.clocks import ManualServiceClock
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.service.schemas import JobSpec, SlaQuote, verdict_digest
from repro.service.server import SchedulerService, ServiceConfig
from repro.workload.entities import Job, make_uniform_cluster
from repro.workload.synthetic import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
)

#: Client-observed admission latency buckets (service-time seconds).
OBSERVED_LATENCY_BUCKETS_S = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass(frozen=True)
class LoadProfile:
    """Shape of one generated load run (fully seed-determined)."""

    requests: int = 200
    seed: int = 0
    #: Mean arrivals per service-time second.
    arrival_rate: float = 0.5
    #: Map/reduce task count bounds (kept small: quotes must be fast).
    map_tasks_range: Tuple[int, int] = (1, 6)
    reduce_tasks_range: Tuple[int, int] = (1, 3)
    #: Upper bound on map-task durations (seconds).
    e_max: int = 20
    #: U[1, x] multiplier on the minimum execution time for deadlines.
    #: Low values produce tight SLAs -- the mix of admits and rejects the
    #: smoke gate asserts on comes from here.
    deadline_multiplier_max: float = 2.0
    #: Probability a request is an advance reservation (starts later).
    ar_probability: float = 0.25
    #: Advance-reservation start offset bound (seconds).
    s_max: int = 60

    def to_workload_params(self, cluster_slots: Tuple[int, int]) -> SyntheticWorkloadParams:
        """Translate the profile into the paper's synthetic-workload knobs."""
        map_slots, reduce_slots = cluster_slots
        return SyntheticWorkloadParams(
            num_jobs=self.requests,
            map_tasks_range=self.map_tasks_range,
            reduce_tasks_range=(
                max(1, self.reduce_tasks_range[0]), max(1, self.reduce_tasks_range[1])
            ),
            e_max=self.e_max,
            ar_probability=self.ar_probability,
            s_max=self.s_max,
            deadline_multiplier_max=self.deadline_multiplier_max,
            arrival_rate=self.arrival_rate,
            total_map_slots=map_slots,
            total_reduce_slots=reduce_slots,
        )


def generate_request_stream(
    profile: LoadProfile, cluster_slots: Tuple[int, int] = (8, 8)
) -> List[Tuple[float, JobSpec]]:
    """The seeded (arrival service time, spec) stream both drivers replay.

    Jobs come from the paper's Table 3 synthetic model; specs carry SLA
    offsets *relative* to arrival, as a real client would send them.
    """
    jobs = generate_synthetic_workload(
        profile.to_workload_params(cluster_slots), seed=profile.seed
    )
    stream: List[Tuple[float, JobSpec]] = []
    for job in jobs:
        stream.append((float(job.arrival_time), _spec_of(job)))
    return stream


def _spec_of(job: Job) -> JobSpec:
    return JobSpec(
        job_id=f"load-{job.id}",
        map_durations=tuple(t.duration for t in job.map_tasks),
        reduce_durations=tuple(t.duration for t in job.reduce_tasks),
        earliest_start=job.earliest_start - job.arrival_time,
        deadline=job.deadline - job.arrival_time,
    )


@dataclass
class LoadTestReport:
    """What one load run produced (all fields JSON-serialisable)."""

    requests: int
    admitted: int
    rejected: int
    shed: int
    #: Order-insensitive sha256 prefix over canonical verdicts.
    digest: str
    #: Client-observed admission latency percentiles.
    latency_p50: float
    latency_p99: float
    latency_max: float
    #: Unit of the latency fields ("s" observed / "ms" solve wall).
    latency_unit: str
    #: Full latency histogram (for the CI failure artifact).
    histogram: Dict[str, object] = field(default_factory=dict)
    quotes: List[SlaQuote] = field(default_factory=list)

    def as_dict(self, include_quotes: bool = False) -> Dict[str, object]:
        """JSON-ready report; ``include_quotes`` adds every per-job quote."""
        data = {
            "requests": self.requests,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "digest": self.digest,
            "latency_p50": round(self.latency_p50, 6),
            "latency_p99": round(self.latency_p99, 6),
            "latency_max": round(self.latency_max, 6),
            "latency_unit": self.latency_unit,
            "histogram": self.histogram,
        }
        if include_quotes:
            data["quotes"] = [q.as_dict() for q in self.quotes]
        return data


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


def _summarise(
    quotes: Sequence[SlaQuote], latencies: Sequence[float], unit: str
) -> LoadTestReport:
    ordered = sorted(latencies)
    hist = Histogram("loadtest.admission_latency", OBSERVED_LATENCY_BUCKETS_S)
    for v in latencies:
        hist.observe(v)
    return LoadTestReport(
        requests=len(quotes),
        admitted=sum(1 for q in quotes if q.admitted),
        rejected=sum(1 for q in quotes if not q.admitted and q.reason != "overload_shed"),
        shed=sum(1 for q in quotes if q.reason == "overload_shed"),
        digest=verdict_digest(quotes),
        latency_p50=_percentile(ordered, 0.50),
        latency_p99=_percentile(ordered, 0.99),
        latency_max=ordered[-1] if ordered else 0.0,
        latency_unit=unit,
        histogram=hist.as_dict(),
        quotes=list(quotes),
    )


def run_inprocess(
    profile: Optional[LoadProfile] = None,
    config: Optional[ServiceConfig] = None,
    num_resources: int = 4,
    registry: Optional[MetricsRegistry] = None,
) -> LoadTestReport:
    """Drive the sync core under a manual clock (fully deterministic).

    The manual clock is advanced to each arrival; due batches are pumped
    *before* the next offer (exactly what the asyncio loop would have
    done by then) and the queue is drained at the end of the stream.
    Client-observed latency of a quote is flush-time minus offer-time on
    the service clock -- deterministic, unlike solve wall time.
    """
    profile = profile or LoadProfile()
    config = config or ServiceConfig()
    clock = ManualServiceClock()
    service = SchedulerService(
        resources=make_uniform_cluster(num_resources),
        config=config,
        registry=registry,
        clock=clock,
    )
    slots = (num_resources * 2, num_resources * 2)
    stream = generate_request_stream(profile, slots)
    quotes: List[SlaQuote] = []
    offered_at: Dict[str, float] = {}
    latencies: List[float] = []

    def collect(batch_quotes: List[SlaQuote]) -> None:
        now = clock.now()
        for q in batch_quotes:
            quotes.append(q)
            latencies.append(max(0.0, now - offered_at.pop(q.job_id, now)))

    for arrival, spec in stream:
        # Fire every batch that falls due strictly before this arrival at
        # its own due time, so hold-time bounds are honoured exactly.
        while True:
            due = service.batcher.due_at()
            if due is None or due > arrival:
                break
            clock.advance_to(max(clock.now(), due))
            collect(service.pump())
        clock.advance_to(max(clock.now(), arrival))
        immediate = service.submit_sync(spec)
        if immediate is not None:
            quotes.append(immediate)
            latencies.append(0.0)
        else:
            offered_at[spec.job_id] = arrival
        collect(service.pump())
    # End of stream: run the hold timer out rather than short-circuiting,
    # then drain whatever remains (mirrors service shutdown).
    due = service.batcher.due_at()
    if due is not None:
        clock.advance_to(max(clock.now(), due))
        collect(service.pump())
    collect(service.drain())
    return _summarise(quotes, latencies, "s")


async def run_against_url(
    base_url: str,
    profile: Optional[LoadProfile] = None,
    time_scale: float = 0.02,
    cluster_slots: Tuple[int, int] = (8, 8),
) -> LoadTestReport:
    """Replay the stream against a live endpoint (smoke / e2e driver).

    ``time_scale`` compresses service-time inter-arrival gaps into wall
    seconds (0.02 -> a 50s-spaced stream plays in 1s steps).  Latency is
    wall seconds from POST to response; verdicts still come back digest-
    stable because the server anchors each quote at its arrival tick.
    """
    profile = profile or LoadProfile()
    host, port = _parse_base_url(base_url)
    stream = generate_request_stream(profile, cluster_slots)
    quotes: List[SlaQuote] = []
    latencies: List[float] = []
    loop = asyncio.get_running_loop()
    started = loop.time()
    tasks: List[asyncio.Task] = []

    async def fire(delay: float, spec: JobSpec) -> None:
        target = started + delay
        pause = target - loop.time()
        if pause > 0:
            await asyncio.sleep(pause)
        t0 = loop.time()
        status, payload = await _http_json(
            host, port, "POST", "/submit", spec.as_dict()
        )
        if status == 200:
            quotes.append(SlaQuote.from_dict(payload))
            latencies.append(loop.time() - t0)

    first_arrival = stream[0][0] if stream else 0.0
    for arrival, spec in stream:
        delay = (arrival - first_arrival) * time_scale
        tasks.append(asyncio.create_task(fire(delay, spec)))
    await asyncio.gather(*tasks)
    return _summarise(quotes, latencies, "s")


def _parse_base_url(base_url: str) -> Tuple[str, int]:
    from urllib.parse import urlparse

    parsed = urlparse(base_url if "//" in base_url else f"http://{base_url}")
    return parsed.hostname or "127.0.0.1", parsed.port or 80


async def _http_json(
    host: str, port: int, method: str, path: str, payload: Optional[dict] = None
) -> Tuple[int, dict]:
    """One short-lived HTTP/1.1 exchange (no external client library)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:  # pragma: no cover
            pass
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    status_line = head_part.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split()[1]) if len(status_line.split()) > 1 else 0
    try:
        parsed = json.loads(body_part.decode() or "{}")
    except json.JSONDecodeError:
        parsed = {"raw": body_part.decode(errors="replace")}
    return status, parsed
