"""The asyncio admission front-end and its dependency-free HTTP server.

:class:`SchedulerService` is layered deliberately:

* a **synchronous core** (``submit_sync`` / ``pump`` / ``cancel_sync`` /
  ``status_sync`` / ``drain``) that owns the batcher and the admission
  controller and never touches an event loop -- the deterministic
  in-process load harness (:mod:`repro.service.loadgen`) drives exactly
  this surface under a :class:`~repro.obs.clocks.ManualServiceClock`;
* an **asyncio shell** (``submit`` / ``cancel`` / ``close`` and the
  batch loop) that maps the core onto wall-clock time: submissions park
  on futures, one background task wakes at each batch deadline, and
  shutdown drains the queue so no submitter is left hanging;
* a **stdlib HTTP/1.1 endpoint** (``serve``) exposing the API as JSON
  over ``asyncio.start_server`` -- no third-party web framework, so the
  core install stays dependency-free.

Routes: ``POST /submit``, ``GET /status/<job>``, ``POST /cancel/<job>``,
``GET /metrics`` (OpenMetrics, reusing the PR 6 exporter), ``GET
/health``, ``POST /shutdown``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.clocks import ServiceClock, WallServiceClock
from repro.obs.logs import get_logger, kv
from repro.obs.metrics import MetricsRegistry
from repro.obs.export import render_openmetrics
from repro.obs.timeseries import WallSeriesSampler
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.batching import ArrivalBatcher, BatchingConfig, PendingSubmission
from repro.service.schemas import (
    PENDING,
    CANCELLED,
    JobSpec,
    JobStatus,
    SlaQuote,
    ValidationError,
)
from repro.workload.entities import Resource, make_uniform_cluster

_LOG = get_logger("service.server")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the front-end needs besides the cluster itself."""

    batching: BatchingConfig = field(default_factory=BatchingConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    host: str = "127.0.0.1"
    port: int = 8351


class SchedulerService:
    """Admission-control service around :class:`AdmissionController`.

    The sync core is single-threaded by construction: the asyncio shell
    serialises everything through one event loop, and the in-process
    loadgen calls it from one thread.  All timing flows through the
    injectable ``clock`` (service time axis) and the controller's
    ``wall_clock`` (latency measurement), which is what makes load-test
    runs replayable.
    """

    def __init__(
        self,
        resources: Optional[Sequence[Resource]] = None,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[ServiceClock] = None,
        wall_clock: Optional[Callable[[], float]] = None,
        tracer: Optional[Tracer] = None,
        sampler: Optional[WallSeriesSampler] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = clock if clock is not None else WallServiceClock()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.resources = list(resources) if resources else make_uniform_cluster(4)
        self.controller = AdmissionController(
            self.resources,
            self.config.admission,
            registry=self.registry,
            wall_clock=wall_clock,
        )
        self.batcher = ArrivalBatcher(self.config.batching)
        self._seq = 0
        self._precancelled: Dict[str, SlaQuote] = {}
        self._started_at = self.clock.now()
        self._m_pending = self.registry.gauge("service.pending")
        self._m_batches = self.registry.counter("service.batches")
        self.sampler = sampler
        if sampler is not None:
            sampler.add_probe("service.pending", lambda: float(len(self.batcher)))
            sampler.add_probe(
                "service.committed",
                lambda: float(self.controller.committed_count),
            )
        # asyncio shell state (unused on the pure-sync path):
        self._futures: Dict[str, "asyncio.Future[SlaQuote]"] = {}
        self._wake: Optional[asyncio.Event] = None
        self._loop_task: Optional["asyncio.Task[None]"] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._closing = False

    # ============================================================ sync core
    def _parse(self, payload) -> Tuple[Optional[JobSpec], Optional[SlaQuote]]:
        """(spec, None) for a valid submission, (None, quote) otherwise."""
        now = self.clock.now()
        if isinstance(payload, JobSpec):
            try:
                payload.validate()
                return payload, None
            except ValidationError as exc:
                return None, self.controller.invalid(payload.job_id, now, str(exc))
        job_id = "?"
        if isinstance(payload, dict):
            job_id = str(payload.get("job_id") or "?")
        try:
            return JobSpec.from_dict(payload), None
        except ValidationError as exc:
            return None, self.controller.invalid(job_id, now, str(exc))

    def submit_sync(self, payload) -> Optional[SlaQuote]:
        """Offer a submission to the batcher.

        Returns an immediate verdict for anything that never reaches the
        solver (invalid payloads, duplicates of queued work, overload
        shedding); returns ``None`` when the submission is queued -- its
        quote arrives from a later :meth:`pump`.
        """
        spec, verdict = self._parse(payload)
        if verdict is not None:
            return verdict
        assert spec is not None
        now = self.clock.now()
        if spec.job_id in self.batcher:
            return self.controller.invalid(
                spec.job_id, now, "already queued (duplicate submission)"
            )
        self._seq += 1
        if not self.batcher.offer(spec, now, self._seq):
            return self.controller.shed(spec, now)
        self._m_pending.set(float(len(self.batcher)))
        return None

    def _quote_batch(self, batch: List[PendingSubmission]) -> List[SlaQuote]:
        """Quote one flushed batch in submission order.

        The overload fast-path is decided per flush: with the queue still
        deep after taking this batch, every quote in it starts the ladder
        at ``cp_limited`` (skipping the full solve keeps latency bounded
        while the backlog drains).
        """
        if not batch:
            return []
        self._m_batches.inc()
        start_rung = "cp_limited" if self.batcher.overloaded else "cp_full"
        quotes: List[SlaQuote] = []
        with self.tracer.span(
            "service.batch", "service", {"size": len(batch), "rung": start_rung}
        ) as span:
            for entry in batch:
                quotes.append(
                    self.controller.quote(
                        entry.spec, entry.offered_at, start_rung=start_rung
                    )
                )
            if self.tracer.enabled:
                span.add(admitted=sum(1 for q in quotes if q.admitted))
        self._m_pending.set(float(len(self.batcher)))
        return quotes

    def pump(self) -> List[SlaQuote]:
        """Flush every due batch at the current service time (sync driver)."""
        quotes: List[SlaQuote] = []
        while True:
            now = self.clock.now()
            if self.sampler is not None:
                self.sampler.maybe_sample(now)
            batch = self.batcher.flush_due(now)
            if not batch:
                return quotes
            quotes.extend(self._quote_batch(batch))

    def drain(self) -> List[SlaQuote]:
        """Quote everything still queued (shutdown path)."""
        quotes: List[SlaQuote] = []
        while len(self.batcher):
            quotes.extend(
                self._quote_batch(
                    self.batcher.flush_all(self.config.batching.max_batch_size)
                )
            )
        return quotes

    def cancel_sync(self, job_id: str) -> bool:
        """Cancel queued or admitted work; False when there is nothing to."""
        now = self.clock.now()
        if self.batcher.cancel(job_id):
            # Cancel-before-plan: the job never reached the solver.
            self._precancelled[job_id] = SlaQuote(
                job_id=job_id,
                admitted=False,
                reason="cancelled",
                predicted_completion=None,
                deadline=None,
                rung="none",
                solve_ms=0.0,
                arrival=int(ceil(now)),
            )
            self._m_pending.set(float(len(self.batcher)))
            return True
        return self.controller.cancel(job_id, now)

    def status_sync(self, job_id: str) -> Optional[JobStatus]:
        """Lifecycle snapshot, or None for a job the service never saw."""
        if job_id in self.batcher:
            return JobStatus(job_id, PENDING)
        pre = self._precancelled.get(job_id)
        if pre is not None:
            return JobStatus(job_id, CANCELLED, pre)
        return self.controller.status(job_id, self.clock.now())

    def metrics_text(self) -> str:
        """The OpenMetrics exposition of the service registry."""
        return render_openmetrics(self.registry)

    def health(self) -> Dict[str, object]:
        """Liveness payload for ``GET /health``."""
        return {
            "status": "closing" if self._closing else "ok",
            "uptime_seconds": round(self.clock.now() - self._started_at, 3),
            "pending": len(self.batcher),
            "committed": self.controller.committed_count,
            "shed_total": self.batcher.shed_total,
        }

    # ========================================================= asyncio shell
    async def start(self) -> None:
        """Start the background batch loop (idempotent)."""
        if self._loop_task is not None:
            return
        self._wake = asyncio.Event()
        self._closing = False
        self._loop_task = asyncio.create_task(
            self._run_batches(), name="service-batch-loop"
        )

    async def submit(self, payload) -> SlaQuote:
        """Submit and await the quote (resolves when its batch is planned)."""
        spec, verdict = self._parse(payload)
        if verdict is not None:
            return verdict
        assert spec is not None
        quote = self.submit_sync(spec)
        if quote is not None:
            return quote
        fut: "asyncio.Future[SlaQuote]" = asyncio.get_running_loop().create_future()
        self._futures[spec.job_id] = fut
        if self._wake is not None:
            self._wake.set()
        return await fut

    async def cancel(self, job_id: str) -> bool:
        """Cancel a job; a still-queued submitter resolves with reason ``cancelled``."""
        cancelled = self.cancel_sync(job_id)
        pre = self._precancelled.get(job_id)
        if pre is not None:
            self._resolve(pre)
        return cancelled

    def _resolve(self, quote: SlaQuote) -> None:
        fut = self._futures.pop(quote.job_id, None)
        if fut is not None and not fut.done():
            fut.set_result(quote)

    async def _run_batches(self) -> None:
        assert self._wake is not None
        while not self._closing:
            due = self.batcher.due_at()
            timeout = None
            if due is not None:
                timeout = max(0.0, due - self.clock.now())
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            if self._closing:
                break
            for quote in self.pump():
                self._resolve(quote)

    async def close(self) -> None:
        """Drain, stop the batch loop, and close the HTTP listener."""
        self._closing = True
        if self._wake is not None:
            self._wake.set()
        if self._loop_task is not None:
            await self._loop_task
            self._loop_task = None
        for quote in self.drain():
            self._resolve(quote)
        # Anyone still parked (e.g. cancelled entries that never quoted)
        # gets an explicit cancellation rather than a hang.
        for job_id, fut in list(self._futures.items()):
            if not fut.done():
                fut.cancel()
            self._futures.pop(job_id, None)
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
            self._http_server = None
        _LOG.info("service closed %s", kv(committed=self.controller.committed_count))

    # ============================================================ HTTP layer
    async def serve(
        self, host: Optional[str] = None, port: Optional[int] = None
    ) -> None:
        """Run the HTTP endpoint until ``POST /shutdown`` (or cancellation)."""
        await self.start()
        self._shutdown_requested = asyncio.Event()
        self._http_server = await asyncio.start_server(
            self._handle_connection,
            host if host is not None else self.config.host,
            port if port is not None else self.config.port,
        )
        addr = self._http_server.sockets[0].getsockname()
        _LOG.info("service listening %s", kv(host=addr[0], port=addr[1]))
        print(f"mrcp-rm service listening on http://{addr[0]}:{addr[1]}", flush=True)
        try:
            await self._shutdown_requested.wait()
        finally:
            await self.close()

    @property
    def bound_port(self) -> Optional[int]:
        """The actual listening port (useful with ``port=0`` in tests)."""
        if self._http_server is None or not self._http_server.sockets:
            return None
        return self._http_server.sockets[0].getsockname()[1]

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            if request is _OVERLONG:
                status, payload = 400, {"error": "request or header line too long"}
            else:
                status, payload = await self._route(*request)
            await _write_response(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # pragma: no cover - defensive edge
            _LOG.warning("request failed %s", kv(err=str(exc)))
            try:
                await _write_response(writer, 500, {"error": str(exc)})
            except ConnectionError:
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, object]:
        if method == "POST" and path == "/submit":
            try:
                payload = json.loads(body.decode() or "{}")
            except ValueError as exc:  # not UTF-8, or not JSON
                return 400, {"error": f"bad JSON: {exc}"}
            quote = await self.submit(payload)
            return 200, quote.as_dict()
        if method == "GET" and path.startswith("/status/"):
            status = self.status_sync(path[len("/status/"):])
            if status is None:
                return 404, {"error": "unknown job"}
            return 200, status.as_dict()
        if method == "POST" and path.startswith("/cancel/"):
            ok = await self.cancel(path[len("/cancel/"):])
            return (200 if ok else 409), {"cancelled": ok}
        if method == "GET" and path == "/metrics":
            return 200, self.metrics_text()
        if method == "GET" and path == "/health":
            return 200, self.health()
        if method == "POST" and path == "/shutdown":
            if self._shutdown_requested is not None:
                self._shutdown_requested.set()
            return 200, {"status": "shutting down"}
        return 404, {"error": f"no route {method} {path}"}


# ------------------------------------------------------------- HTTP helpers
#: What :func:`_read_request` returns when a request or header line is over
#: the reader's limit; the connection answers it with 400.
_OVERLONG = ("", "", b"")


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one HTTP/1.1 request: (method, path, body).

    None means there is nothing to answer: the peer closed, or sent no
    request line.
    """
    try:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
    except ConnectionError:
        return None
    except ValueError:  # readline: a line over the reader's limit
        return _OVERLONG
    body = b""
    if content_length > 0:
        body = await reader.readexactly(content_length)
    return method, path, body


async def _write_response(
    writer: asyncio.StreamWriter, status: int, payload: object
) -> None:
    """Send one JSON (or plain-text) HTTP/1.1 response and flush."""
    if isinstance(payload, str):
        body = payload.encode()
        content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8"
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        content_type = "application/json"
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              409: "Conflict", 500: "Internal Server Error"}.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
