"""Typed request/response payloads of the admission service.

Everything crossing the service boundary is a plain dataclass with a
strict ``as_dict``/``from_dict`` JSON round trip under the
``repro-service/1`` schema tag.  Two invariants matter:

* **Validation happens at the edge.**  ``JobSpec.validate`` rejects
  malformed submissions (no tasks, non-positive durations, deadline at or
  before earliest start) before anything reaches the solver, so the
  admission controller only ever sees well-formed work.
* **Verdicts are canonical.**  ``SlaQuote.verdict_key`` is the quote with
  every wall-clock-dependent field (``solve_ms``) stripped; the batching
  determinism property and the load-test digest both hash this canonical
  form, which is what "byte-identical verdicts across batch sizes" means
  operationally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workload.entities import Job, Task, TaskKind

#: Schema tag embedded in every service payload.
SERVICE_SCHEMA = "repro-service/1"

#: Job lifecycle states reported by ``status``.
PENDING = "pending"        # accepted into the arrival batch, not yet planned
ADMITTED = "admitted"      # quoted: predicted completion <= deadline
REJECTED = "rejected"      # quoted: cannot meet the deadline (or shed/invalid)
CANCELLED = "cancelled"    # cancelled by the client before completion
COMPLETED = "completed"    # all committed work finished (service time passed)

_STATES = (PENDING, ADMITTED, REJECTED, CANCELLED, COMPLETED)


class ValidationError(ValueError):
    """A submission failed edge validation (maps to HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """A client-submitted MapReduce job with its SLA.

    Durations are integer seconds on the service time axis;
    ``earliest_start`` and ``deadline`` are *relative* offsets from the
    job's arrival (the client does not know the service clock).
    """

    job_id: str
    map_durations: Tuple[int, ...]
    reduce_durations: Tuple[int, ...] = ()
    #: Seconds after arrival before the job may start (>= 0).
    earliest_start: int = 0
    #: Seconds after arrival by which the job must complete (> earliest_start).
    deadline: int = 0

    def validate(self) -> None:
        """Raise :class:`ValidationError` unless the spec is well-formed."""
        if not self.job_id or not str(self.job_id).strip():
            raise ValidationError("job_id must be a non-empty string")
        if not self.map_durations and not self.reduce_durations:
            raise ValidationError(f"job {self.job_id}: no tasks")
        for d in (*self.map_durations, *self.reduce_durations):
            if int(d) <= 0:
                raise ValidationError(
                    f"job {self.job_id}: task durations must be positive, got {d}"
                )
        if self.earliest_start < 0:
            raise ValidationError(
                f"job {self.job_id}: earliest_start must be >= 0"
            )
        if self.deadline <= self.earliest_start:
            raise ValidationError(
                f"job {self.job_id}: deadline ({self.deadline}) must exceed "
                f"earliest_start ({self.earliest_start})"
            )

    def to_job(self, numeric_id: int, arrival: int) -> Job:
        """Materialise the core :class:`Job` at an absolute arrival time."""
        maps = [
            Task(f"{self.job_id}-m{i}", numeric_id, TaskKind.MAP, int(d))
            for i, d in enumerate(self.map_durations)
        ]
        reduces = [
            Task(f"{self.job_id}-r{i}", numeric_id, TaskKind.REDUCE, int(d))
            for i, d in enumerate(self.reduce_durations)
        ]
        return Job(
            id=numeric_id,
            arrival_time=arrival,
            earliest_start=arrival + self.earliest_start,
            deadline=arrival + self.deadline,
            map_tasks=maps,
            reduce_tasks=reduces,
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready spec payload, tagged with the schema version."""
        return {
            "schema": SERVICE_SCHEMA,
            "job_id": self.job_id,
            "map_durations": list(self.map_durations),
            "reduce_durations": list(self.reduce_durations),
            "earliest_start": self.earliest_start,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        if not isinstance(data, dict):
            raise ValidationError(f"job spec is a {type(data).__name__}, not an object")
        schema = data.get("schema", SERVICE_SCHEMA)
        if schema != SERVICE_SCHEMA:
            raise ValidationError(f"unsupported schema {schema!r}")
        job_id = data.get("job_id")
        if not isinstance(job_id, str):
            raise ValidationError(
                f"job_id must be a non-empty string, not {type(job_id).__name__}"
            )
        try:
            spec = cls(
                job_id=job_id,
                map_durations=_durations(data.get("map_durations", [])),
                reduce_durations=_durations(data.get("reduce_durations", [])),
                earliest_start=_whole(data.get("earliest_start", 0)),
                deadline=_whole(data.get("deadline", 0)),
            )
        except TypeError as exc:
            raise ValidationError(f"malformed job spec: {exc}") from exc
        spec.validate()
        return spec


def _whole(value: object) -> int:
    """A whole number from JSON: an int that is not a bool, or an integral
    float.  Anything else -- a fraction, NaN, an infinity -- is refused
    rather than truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"expected a whole number, got {value!r}")


def _durations(raw: object) -> Tuple[int, ...]:
    """Whole-number durations from a JSON array; a string is not one."""
    if not isinstance(raw, list):
        raise TypeError(f"durations must be a list, not {type(raw).__name__}")
    return tuple(_whole(d) for d in raw)


@dataclass(frozen=True)
class SlaQuote:
    """The service's answer to one submission.

    ``predicted_completion`` and ``deadline`` are absolute service times;
    ``solve_ms`` is real wall time spent quoting and is excluded from the
    canonical verdict (it varies run to run even when the decision does
    not).
    """

    job_id: str
    admitted: bool
    #: "deadline_met" | "deadline_missed" | "overload_shed" |
    #: "infeasible" | "invalid" | "duplicate"
    reason: str
    #: Absolute service time the plan completes the job (None if no plan).
    predicted_completion: Optional[int]
    #: Absolute service-time deadline the quote was judged against.
    deadline: Optional[int]
    #: Ladder rung that produced the plan ("none" when nothing solved).
    rung: str
    #: Wall milliseconds spent producing this quote (non-canonical).
    solve_ms: float
    #: Absolute service time the submission was taken into the batcher.
    arrival: int

    def verdict_key(self) -> Tuple:
        """The canonical verdict: everything except wall-clock noise."""
        return (
            self.job_id,
            self.admitted,
            self.reason,
            self.predicted_completion,
            self.deadline,
            self.rung,
            self.arrival,
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready quote payload, tagged with the schema version."""
        return {
            "schema": SERVICE_SCHEMA,
            "job_id": self.job_id,
            "admitted": self.admitted,
            "reason": self.reason,
            "predicted_completion": self.predicted_completion,
            "deadline": self.deadline,
            "rung": self.rung,
            "solve_ms": round(self.solve_ms, 3),
            "arrival": self.arrival,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SlaQuote":
        return cls(
            job_id=str(data["job_id"]),
            admitted=bool(data["admitted"]),
            reason=str(data["reason"]),
            predicted_completion=(
                None
                if data.get("predicted_completion") is None
                else int(data["predicted_completion"])  # type: ignore[arg-type]
            ),
            deadline=(
                None if data.get("deadline") is None else int(data["deadline"])  # type: ignore[arg-type]
            ),
            rung=str(data.get("rung", "none")),
            solve_ms=float(data.get("solve_ms", 0.0)),
            arrival=int(data.get("arrival", 0)),
        )


@dataclass
class JobStatus:
    """Lifecycle snapshot returned by ``status(job_id)``."""

    job_id: str
    state: str
    quote: Optional[SlaQuote] = None
    #: Remaining planned (task_id, start, end) triples for admitted jobs.
    planned: List[Tuple[str, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.state not in _STATES:
            raise ValueError(f"unknown job state {self.state!r}")

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready status payload; the quote is inlined when present."""
        return {
            "schema": SERVICE_SCHEMA,
            "job_id": self.job_id,
            "state": self.state,
            "quote": None if self.quote is None else self.quote.as_dict(),
            "planned": [list(p) for p in self.planned],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobStatus":
        quote = data.get("quote")
        return cls(
            job_id=str(data["job_id"]),
            state=str(data["state"]),
            quote=None if quote is None else SlaQuote.from_dict(quote),  # type: ignore[arg-type]
            planned=[
                (str(t), int(s), int(e)) for t, s, e in data.get("planned", [])  # type: ignore[union-attr]
            ],
        )


def verdict_digest(quotes: Sequence[SlaQuote]) -> str:
    """A stable hex digest over canonical verdicts (order-insensitive).

    The behaviour pins hold the loadgen's digest: any change in any
    admission decision -- across code changes or batch-size choices --
    changes the digest.
    """
    import hashlib

    lines = sorted(repr(q.verdict_key()) for q in quotes)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
