"""Parallel experiment sweeps with deterministic fan-out.

The paper's evaluation is a factor-at-a-time sweep (Figures 2-9): every
figure is a grid of (configuration x replication) cells, each an independent
simulation run.  :func:`run_sweep` fans such a grid out over a
``ProcessPoolExecutor`` while keeping three guarantees:

**Deterministic seeding.**  Every cell's seed derives from the sweep's root
seed through a stable hash of the cell's *semantic coordinates* -- the
workload parameters and the replication index -- never from worker identity,
submission order, or completion order (:func:`cell_seed`).  Two cells with
identical workload parameters (e.g. the mrcp-rm and minedf-wc arms of
Figure 2, or the on/off arms of an ablation) share a seed and therefore face
the *identical* job stream, preserving the paper's paired comparisons.

**Crash isolation with bounded retry.**  A cell whose worker raises -- or
whose worker process dies outright -- marks only that cell failed; the sweep
always runs to completion.  Each cell is attempted at most ``retries + 1``
times.  A hard worker death breaks the whole process pool, so every cell
that was in flight is charged one attempt and the pool is rebuilt for the
survivors.

**Order-independent merging.**  Results are merged in cell-index order
regardless of completion order, and all wall-clock timing is kept out of the
merged artifacts, so ``run_sweep(spec, workers=4)`` writes byte-identical
``sweep.json`` / ``sweep.csv`` to ``run_sweep(spec, workers=1)``.  Byte
identity additionally requires ``SweepSpec.deterministic`` (the default):
each cell's solver budget is rewritten to be fail-limited rather than
time-limited (the bench-suite trick) and the overhead metric O is measured
through a pinned virtual wall clock, making O a deterministic proxy (clock
samples per invocation) instead of noisy real time.  Disable it
(``deterministic=False``) to measure real wall-clock overhead; N/T/P then
stay reproducible only while the solver's real time limit never binds.

Workers write their own per-cell JSON (and, with ``capture=True``, a Chrome
trace) under ``<out_dir>/cells/``; the parent merges them and ``--resume``
re-reads finished cells instead of re-running them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cp.solver import SolverParams
from repro.experiments.configs import FigureSeries, LabeledConfig
from repro.experiments.runner import RunConfig, run_once
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.obs.clocks import PinnedClock
from repro.obs.timeseries import TelemetryConfig, read_series_jsonl

SWEEP_SCHEMA = "repro-sweep/1"
SWEEP_SERIES_SCHEMA = "repro-sweep-series/1"

#: Time limit large enough that the fail limit always binds first: the
#: explored search tree -- and hence N/T/P -- is identical on every machine.
_DETERMINISTIC_TIME_LIMIT = 1.0e6
#: Fail limit substituted when a config left the tree search unlimited.
_DETERMINISTIC_FAIL_LIMIT = 300

#: Ordered CSV columns of the deterministic per-cell metrics.
_CSV_METRICS = ("O", "N", "T", "P")
_CSV_COUNTS = (
    "jobs_arrived",
    "jobs_completed",
    "jobs_failed",
    "scheduler_invocations",
    "makespan",
)


# --------------------------------------------------------------------------
# Deterministic seeding
# --------------------------------------------------------------------------


def stable_hash(text: str) -> int:
    """A 63-bit integer hash of ``text``, stable across processes/machines.

    ``hash()`` is salted per process (PYTHONHASHSEED); sha256 is not.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def workload_key(config: RunConfig) -> str:
    """The cell coordinate that identifies a config's *job stream*.

    Mirrors :func:`repro.experiments.runner._generate_jobs`: the workload
    depends on the generator parameters with the system's slot totals
    substituted in, and on nothing else.  Scheduler choice and solver knobs
    deliberately stay out, so competing schedulers (and ablation arms) over
    the same workload share a seed and face identical jobs.
    """
    params = getattr(config, config.workload, None)
    if params is None:
        # Invalid configs must still produce *a* key: validation errors are
        # reported by the worker as a failed cell, not a parent crash.
        return f"{config.workload}:<missing>"
    params = replace(
        params,
        total_map_slots=config.system.total_map_slots,
        total_reduce_slots=config.system.total_reduce_slots,
    )
    return f"{config.workload}:{params!r}"


def cell_seed(root_seed: int, config: RunConfig, replication: int) -> int:
    """Derive one cell's seed from the root seed and its coordinates.

    The hash covers (root seed, workload coordinates, replication) only --
    worker identity and completion order can never leak in.
    """
    return stable_hash(f"{root_seed}|{workload_key(config)}|{replication}")


def deterministic_solver_params(params: SolverParams) -> SolverParams:
    """Rewrite a solver budget so search effort is machine-independent.

    Huge time limit (never binds) and fail-limited tree search.  ``use_lns``
    passes through: LNS stops on counts of iterations and fails, never on
    the clock, so it repeats exactly too.
    """
    return replace(
        params,
        time_limit=_DETERMINISTIC_TIME_LIMIT,
        tree_fail_limit=params.tree_fail_limit or _DETERMINISTIC_FAIL_LIMIT,
    )


def deterministic_run_config(config: RunConfig) -> RunConfig:
    """Pin ``config`` so overhead O replays byte-identically.

    A :class:`PinnedClock` as the wall clock (O counts clock samples)
    and :func:`deterministic_solver_params` as the solver budget (search
    effort becomes machine-independent).  Sweep cells, checkpoints, chaos
    scenarios and run diffs all pin this way.
    """
    return replace(
        config,
        mrcp=replace(
            config.mrcp, solver=deterministic_solver_params(config.mrcp.solver)
        ),
        obs=replace(config.obs, wall_clock=PinnedClock()),
    )


def _canonical_config(config: RunConfig, seed: int, deterministic: bool) -> RunConfig:
    """The exact config a cell runs: derived seed, optionally pinned."""
    cfg = replace(config, seed=seed)
    return deterministic_run_config(cfg) if deterministic else cfg


# --------------------------------------------------------------------------
# Spec and cells
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One (configuration x replication) grid point of a sweep."""

    index: int
    figure: str
    label: str
    scheduler: str
    factor_value: float
    replication: int
    seed: int
    config: RunConfig


@dataclass
class SweepSpec:
    """A sweep: labelled configurations x replications under one root seed."""

    name: str
    configs: List[LabeledConfig]
    factor: str = "factor"
    replications: int = 1
    root_seed: int = 0
    #: Pin solver budgets and the overhead clock so merged output is
    #: byte-identical for any worker count (see module docstring).
    deterministic: bool = True
    #: Have each worker write its cell's Chrome trace next to the cell JSON
    #: (requires ``out_dir``); feeds the per-cell utilization strips of
    #: :func:`write_sweep_report`.
    capture: bool = False
    #: Have each worker sample live telemetry and write a per-cell series
    #: JSONL next to the cell JSON (requires ``out_dir``); the parent rolls
    #: all cell series up into ``sweep.series.jsonl``
    #: (:func:`merge_cell_series`).  Off by default so ``sweep.json`` stays
    #: byte-identical with earlier releases.
    telemetry: bool = False

    @classmethod
    def from_series(
        cls,
        series: FigureSeries,
        replications: int = 1,
        root_seed: int = 0,
        **overrides: Any,
    ) -> "SweepSpec":
        """Build the sweep reproducing one figure/ablation series."""
        return cls(
            name=series.figure,
            configs=list(series.configs),
            factor=series.factor,
            replications=replications,
            root_seed=root_seed,
            **overrides,
        )

    def validate(self) -> None:
        """Reject empty/ill-formed sweeps before any cell runs."""
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.configs:
            raise ValueError("sweep has no configurations")
        labels = [c.label for c in self.configs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate config labels in sweep: {labels}")

    def cells(self) -> List[SweepCell]:
        """The full grid, in the deterministic (config, replication) order."""
        self.validate()
        out: List[SweepCell] = []
        for labeled in self.configs:
            for rep in range(self.replications):
                seed = cell_seed(self.root_seed, labeled.config, rep)
                out.append(
                    SweepCell(
                        index=len(out),
                        figure=self.name,
                        label=labeled.label,
                        scheduler=labeled.scheduler,
                        factor_value=labeled.factor_value,
                        replication=rep,
                        seed=seed,
                        config=_canonical_config(
                            labeled.config, seed, self.deterministic
                        ),
                    )
                )
        return out


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


@dataclass
class CellJob:
    """Everything a worker needs to run one cell (must stay picklable)."""

    cell: SweepCell
    attempt: int = 1
    out_dir: Optional[str] = None
    capture: bool = False
    telemetry: bool = False


@dataclass
class CellOutcome:
    """One cell's result as reported by a worker (or the retry logic)."""

    index: int
    figure: str
    label: str
    scheduler: str
    factor_value: float
    replication: int
    seed: int
    status: str  # "ok" | "failed"
    attempts: int
    error: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    #: real wall seconds of the attempt -- informational only, never merged
    #: into the deterministic artifacts
    wall: float = 0.0

    def row(self) -> Dict[str, Any]:
        """The cell's deterministic merged-artifact row (no wall time)."""
        return {
            "index": self.index,
            "figure": self.figure,
            "label": self.label,
            "scheduler": self.scheduler,
            "factor_value": self.factor_value,
            "replication": self.replication,
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "metrics": dict(self.metrics),
            "counts": dict(self.counts),
        }


def cell_json_path(out_dir: str, index: int) -> str:
    """Per-cell result file: ``<out_dir>/cells/cell-0007.json``."""
    return os.path.join(out_dir, "cells", f"cell-{index:04d}.json")


def cell_trace_path(out_dir: str, index: int) -> str:
    """Per-cell Chrome trace written when the sweep captures traces."""
    return os.path.join(out_dir, "cells", f"cell-{index:04d}.trace.json")


def cell_series_path(out_dir: str, index: int) -> str:
    """Per-cell telemetry series written when the sweep samples telemetry."""
    return os.path.join(out_dir, "cells", f"cell-{index:04d}.series.jsonl")


def _one_line(text: str, limit: int = 400) -> str:
    """Collapse an error message to one bounded line for the artifacts."""
    flat = " ".join(str(text).split())
    return flat[:limit]


def _outcome_skeleton(cell: SweepCell, attempt: int) -> CellOutcome:
    return CellOutcome(
        index=cell.index,
        figure=cell.figure,
        label=cell.label,
        scheduler=cell.scheduler,
        factor_value=cell.factor_value,
        replication=cell.replication,
        seed=cell.seed,
        status="failed",
        attempts=attempt,
    )


def _write_cell_file(out_dir: str, outcome: CellOutcome) -> None:
    """Atomically persist one cell outcome (rename over partial writes)."""
    path = cell_json_path(out_dir, outcome.index)
    payload = dict(outcome.row())
    payload["wall"] = outcome.wall
    atomic_write_json(path, payload)


def execute_cell(job: CellJob) -> CellOutcome:
    """Run one cell to completion; never raises (crash isolation).

    This is the function shipped to pool workers.  Any exception -- config
    validation, workload generation, solver, executor invariants -- is
    captured as a failed outcome so one bad cell cannot take down the sweep.
    When the sweep has an output directory the worker persists its own
    result file (and optionally the run's trace) before returning.
    """
    cell = job.cell
    outcome = _outcome_skeleton(cell, job.attempt)
    config = cell.config
    obs = config.obs
    if job.capture and job.out_dir is not None:
        obs = replace(obs, trace_out=cell_trace_path(job.out_dir, cell.index))
    if job.telemetry and job.out_dir is not None:
        # Respect a caller-supplied telemetry config (cadence, capacity),
        # but the series always lands at the cell's canonical path.
        telemetry = obs.telemetry or TelemetryConfig()
        telemetry = replace(
            telemetry,
            enabled=True,
            series_out=cell_series_path(job.out_dir, cell.index),
        )
        obs = replace(obs, telemetry=telemetry)
    if obs is not config.obs:
        config = replace(config, obs=obs)
    t0 = time.perf_counter()
    try:
        metrics = run_once(config, replication=0)
    except Exception as exc:  # noqa: BLE001 -- isolation is the point
        outcome.error = _one_line(f"{type(exc).__name__}: {exc}")
    else:
        outcome.status = "ok"
        outcome.metrics = {k: float(v) for k, v in metrics.as_dict().items()}
        outcome.counts = {
            "jobs_arrived": metrics.jobs_arrived,
            "jobs_completed": metrics.jobs_completed,
            "jobs_failed": metrics.jobs_failed,
            "scheduler_invocations": metrics.scheduler_invocations,
            "makespan": metrics.makespan,
        }
    outcome.wall = time.perf_counter() - t0
    if job.out_dir is not None:
        _write_cell_file(job.out_dir, outcome)
    return outcome


# --------------------------------------------------------------------------
# Merged result
# --------------------------------------------------------------------------


@dataclass
class SweepResult:
    """All cell outcomes of one sweep, merged in cell-index order."""

    name: str
    factor: str
    root_seed: int
    replications: int
    deterministic: bool
    outcomes: List[CellOutcome]
    #: real wall seconds of the whole sweep (informational, not merged)
    wall: float = 0.0
    #: worker count the sweep ran with (informational, not merged)
    workers: int = 1

    @property
    def ok_cells(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "ok"]

    @property
    def failed_cells(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status != "ok"]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-label means of O/N/T/P over the ok replications.

        Sums run in replication order (cell-index order), so the floats --
        and the serialised artifacts -- are independent of completion order.
        """
        grouped: Dict[str, List[CellOutcome]] = {}
        for o in self.outcomes:
            grouped.setdefault(o.label, []).append(o)
        out: Dict[str, Dict[str, float]] = {}
        for label, cells in grouped.items():
            ok = [c for c in cells if c.status == "ok"]
            entry: Dict[str, float] = {
                "cells": float(len(cells)),
                "ok": float(len(ok)),
                "failed": float(len(cells) - len(ok)),
            }
            for m in _CSV_METRICS:
                values = [c.metrics[m] for c in ok if m in c.metrics]
                if values:
                    entry[m] = sum(values) / len(values)
            out[label] = entry
        return out

    def to_json_dict(self) -> Dict[str, Any]:
        """The deterministic merged document (schema ``repro-sweep/1``)."""
        return {
            "schema": SWEEP_SCHEMA,
            "sweep": {
                "name": self.name,
                "factor": self.factor,
                "root_seed": self.root_seed,
                "replications": self.replications,
                "deterministic": self.deterministic,
                "cells": len(self.outcomes),
            },
            "cells": [o.row() for o in self.outcomes],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        """Serialise :meth:`to_json_dict` with a stable key order."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        """One row per cell, in cell-index order, ``repr``-exact floats."""
        value_cols = ",".join(_CSV_METRICS + _CSV_COUNTS)
        header = (
            "index,figure,label,scheduler,factor_value,replication,seed,"
            f"status,attempts,{value_cols}"
        )
        lines = [header]
        for o in self.outcomes:
            cells = [
                str(o.index),
                o.figure,
                o.label,
                o.scheduler,
                repr(o.factor_value),
                str(o.replication),
                str(o.seed),
                o.status,
                str(o.attempts),
            ]
            cells += [
                repr(o.metrics[m]) if m in o.metrics else ""
                for m in _CSV_METRICS
            ]
            cells += [str(o.counts[c]) if c in o.counts else "" for c in _CSV_COUNTS]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str) -> Dict[str, str]:
        """Write the merged artifacts; returns name -> path.

        ``sweep.json`` and ``sweep.csv`` are the byte-identity surface;
        ``sweep.timing.json`` carries the (non-deterministic) wall clocks.
        """
        os.makedirs(out_dir, exist_ok=True)
        paths = {
            "json": os.path.join(out_dir, "sweep.json"),
            "csv": os.path.join(out_dir, "sweep.csv"),
            "timing": os.path.join(out_dir, "sweep.timing.json"),
        }
        atomic_write_text(paths["json"], self.to_json())
        atomic_write_text(paths["csv"], self.to_csv())
        timing = {
            "wall": self.wall,
            "workers": self.workers,
            "cell_walls": {o.index: o.wall for o in self.outcomes},
        }
        atomic_write_json(paths["timing"], timing)
        return paths


#: Headline fields copied from each cell's final telemetry sample into the
#: fleet rollup row.
_ROLLUP_FINAL = (
    "O",
    "N",
    "T",
    "P",
    "sim_time",
    "jobs_arrived",
    "jobs_completed",
    "jobs_failed",
    "invocations",
)


def _series_rollup(
    meta: Dict[str, Any], samples: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Compress one cell's telemetry series into a fleet-rollup entry.

    Keeps the series shape (sample counts, cadence), the final sample's
    headline fields, and the per-field peaks over the whole series --
    enough to spot the hot cells of a sweep without re-shipping every
    sample.
    """
    final = samples[-1] if samples else {}
    peaks: Dict[str, float] = {}
    for sample in samples:
        for key, value in sample.items():
            if key == "seq" or isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                peaks[key] = max(peaks.get(key, value), value)
        for name, value in (sample.get("probes") or {}).items():
            key = f"probes.{name}"
            peaks[key] = max(peaks.get(key, value), value)
    return {
        "samples": meta.get("samples"),
        "total_samples": meta.get("total_samples"),
        "dropped": meta.get("dropped"),
        "interval": meta.get("interval"),
        "final": {k: final[k] for k in _ROLLUP_FINAL if k in final},
        "peaks": {k: peaks[k] for k in sorted(peaks)},
    }


def merge_cell_series(out_dir: str, cells: Sequence[SweepCell]) -> str:
    """Merge per-cell telemetry series into ``<out_dir>/sweep.series.jsonl``.

    One meta line (schema :data:`SWEEP_SERIES_SCHEMA`), then one line per
    cell in cell-index order: the cell's identity plus a
    :func:`_series_rollup` of its series, or ``"series": null`` when the
    cell left no readable series file (failed cell, telemetry disabled).
    Cell series are deterministic and the merge order is the cell index,
    so the rollup is byte-identical for any worker count.
    """
    path = os.path.join(out_dir, "sweep.series.jsonl")
    lines = [
        json.dumps(
            {"schema": SWEEP_SERIES_SCHEMA, "cells": len(cells)},
            sort_keys=True,
        )
    ]
    for cell in cells:
        row: Dict[str, Any] = {
            "index": cell.index,
            "label": cell.label,
            "replication": cell.replication,
            "seed": cell.seed,
            "series": None,
        }
        try:
            meta, samples = read_series_jsonl(cell_series_path(out_dir, cell.index))
        except (OSError, ValueError):
            pass
        else:
            row["series"] = _series_rollup(meta, samples)
        lines.append(json.dumps(row, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def merge_outcomes(
    cells: Sequence[SweepCell], outcomes: Dict[int, CellOutcome]
) -> List[CellOutcome]:
    """Order outcomes by cell index -- the merge is a pure sort, so any
    completion order produces the same list."""
    missing = [c.index for c in cells if c.index not in outcomes]
    if missing:
        raise ValueError(f"sweep incomplete: no outcome for cells {missing}")
    return [outcomes[c.index] for c in cells]


# --------------------------------------------------------------------------
# Resume
# --------------------------------------------------------------------------


def _read_json_object(path: str) -> Optional[Dict[str, Any]]:
    """The JSON object stored at ``path``; None when the file is missing,
    malformed, or holds valid JSON that is not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _load_resumable(out_dir: str, cell: SweepCell) -> Optional[CellOutcome]:
    """A previously persisted *ok* outcome for this exact cell, if any.

    The file must match the cell's identity (figure/label/replication/seed):
    a results directory from a different sweep or root seed never poisons a
    resumed run -- its cells simply re-execute.
    """
    payload = _read_json_object(cell_json_path(out_dir, cell.index))
    if payload is None:
        return None
    identity = ("figure", "label", "replication", "seed")
    if any(payload.get(k) != getattr(cell, k) for k in identity):
        return None
    if payload.get("status") != "ok":
        return None
    return CellOutcome(
        index=cell.index,
        figure=cell.figure,
        label=cell.label,
        scheduler=cell.scheduler,
        factor_value=cell.factor_value,
        replication=cell.replication,
        seed=cell.seed,
        status="ok",
        attempts=int(payload.get("attempts", 1)),
        metrics={k: float(v) for k, v in payload.get("metrics", {}).items()},
        counts={k: int(v) for k, v in payload.get("counts", {}).items()},
        wall=float(payload.get("wall", 0.0)),
    )


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


def _safe_run(runner: Callable[[CellJob], CellOutcome], job: CellJob) -> CellOutcome:
    """Run a cell in-process, converting any raise into a failed outcome."""
    try:
        return runner(job)
    except Exception as exc:  # noqa: BLE001 -- isolation is the point
        outcome = _outcome_skeleton(job.cell, job.attempt)
        outcome.error = _one_line(f"{type(exc).__name__}: {exc}")
        if job.out_dir is not None:
            _write_cell_file(job.out_dir, outcome)
        return outcome


def _run_sequential(
    jobs: List[CellJob],
    retries: int,
    runner: Callable[[CellJob], CellOutcome],
    outcomes: Dict[int, CellOutcome],
    progress: Optional[Callable[[CellOutcome], None]],
) -> None:
    for job in jobs:
        for attempt in range(1, retries + 2):
            outcome = _safe_run(runner, replace(job, attempt=attempt))
            if outcome.status == "ok":
                break
        outcomes[job.cell.index] = outcome
        if progress is not None:
            progress(outcome)


def _run_pool(
    jobs: List[CellJob],
    workers: int,
    retries: int,
    runner: Callable[[CellJob], CellOutcome],
    outcomes: Dict[int, CellOutcome],
    progress: Optional[Callable[[CellOutcome], None]],
) -> None:
    """Fan cells out over a process pool, surviving hard worker deaths.

    At most ``workers`` cells are in flight at once, so a hard death can
    only implicate the in-flight cells -- queued cells are never charged an
    attempt.  Because a broken pool cannot say *which* worker died, every
    in-flight suspect is then re-run in its own single-worker quarantine
    pool: a dying cell breaks only its private pool (and burns its own
    retry budget), while innocent bystanders complete normally.
    """
    incomplete: Dict[int, CellJob] = {j.cell.index: j for j in jobs}
    attempts: Dict[int, int] = {idx: 0 for idx in incomplete}

    def finish(outcome: CellOutcome) -> None:
        outcomes[outcome.index] = outcome
        del incomplete[outcome.index]
        if progress is not None:
            progress(outcome)

    def handle(job: CellJob, outcome: CellOutcome) -> bool:
        """Record a completed attempt; True when the cell is done."""
        idx = job.cell.index
        outcome.attempts = attempts[idx]
        if outcome.status == "ok" or attempts[idx] > retries:
            finish(outcome)
            return True
        return False

    def quarantine(job: CellJob) -> None:
        """Re-run one crash suspect in a private single-worker pool."""
        idx = job.cell.index
        while idx in incomplete:
            if attempts[idx] > retries:
                outcome = _outcome_skeleton(job.cell, attempts[idx])
                outcome.error = "worker process died"
                finish(outcome)
                return
            attempts[idx] += 1
            solo = ProcessPoolExecutor(max_workers=1)
            try:
                fut = solo.submit(runner, replace(job, attempt=attempts[idx]))
                try:
                    outcome = fut.result()
                except BrokenProcessPool:
                    continue  # its own death; loop re-checks the budget
                except Exception as exc:  # noqa: BLE001
                    outcome = _outcome_skeleton(job.cell, attempts[idx])
                    outcome.error = _one_line(f"{type(exc).__name__}: {exc}")
                handle(job, outcome)
            finally:
                solo.shutdown(wait=False, cancel_futures=True)

    while incomplete:
        executor = ProcessPoolExecutor(max_workers=min(workers, len(incomplete)))
        futures: Dict[Any, CellJob] = {}
        suspects: List[CellJob] = []
        try:
            backlog = [incomplete[idx] for idx in sorted(incomplete)]
            backlog.reverse()  # pop() from the tail = cell-index order

            def submit_next() -> None:
                job = backlog.pop()
                attempts[job.cell.index] += 1
                fut = executor.submit(
                    runner, replace(job, attempt=attempts[job.cell.index])
                )
                futures[fut] = job

            while backlog and len(futures) < workers:
                submit_next()
            while futures:
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                for fut in done:
                    job = futures[fut]
                    try:
                        outcome = fut.result()
                    except BrokenProcessPool:
                        raise  # fut stays in ``futures`` -> a suspect
                    except Exception as exc:  # noqa: BLE001
                        # e.g. the outcome failed to unpickle; charge the
                        # attempt and treat like an in-worker failure.
                        outcome = _outcome_skeleton(job.cell, attempts[job.cell.index])
                        outcome.error = _one_line(f"{type(exc).__name__}: {exc}")
                    del futures[fut]
                    if not handle(job, outcome):
                        backlog.append(job)  # soft failure with budget left
                while backlog and len(futures) < workers:
                    submit_next()
        except BrokenProcessPool:
            # Salvage results that finished before the pool broke; every
            # future that cannot produce one is a crash suspect.
            for fut, job in list(futures.items()):
                try:
                    outcome = fut.result(timeout=0)
                except Exception:  # noqa: BLE001
                    suspects.append(job)
                else:
                    handle(job, outcome)  # unfinished retries rejoin below
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        for job in sorted(suspects, key=lambda j: j.cell.index):
            quarantine(job)
        # The outer loop rebuilds the pool for any remaining cells.


def build_sweep_report(
    result: SweepResult,
    spec: SweepSpec,
    out_dir: str,
    path: Optional[str] = None,
) -> str:
    """Render a sweep as one self-contained HTML file; returns its path.

    Reuses the PR-3 report machinery: a sweep summary table (per-label
    O/N/T/P means), a per-cell status table, and -- when the sweep ran with
    ``capture=True`` -- one per-resource utilization strip per cell, rebuilt
    from the worker-written Chrome traces under ``<out_dir>/cells/``.
    """
    from repro.obs.report import render_sweep_report, utilization_strip
    from repro.workload import make_uniform_cluster

    path = path or os.path.join(out_dir, "sweep.html")
    summary = result.summary()
    scheduler_of = {o.label: o.scheduler for o in result.outcomes}
    summary_rows = [
        {"label": label, "scheduler": scheduler_of.get(label, ""), **stats}
        for label, stats in summary.items()
    ]
    cell_rows = [o.row() for o in result.outcomes]

    strips: List[tuple] = []
    for cell in spec.cells():
        trace = _read_json_object(cell_trace_path(out_dir, cell.index))
        if trace is None:
            continue
        events = trace.get("traceEvents", [])
        outcome = result.outcomes[cell.index]
        span = float(outcome.counts.get("makespan", 0.0))
        resources = make_uniform_cluster(
            cell.config.system.num_resources,
            cell.config.system.map_slots,
            cell.config.system.reduce_slots,
        )
        label = (
            f"cell {cell.index}: {cell.label} "
            f"(rep {cell.replication}, seed {cell.seed})"
        )
        strips.append((label, utilization_strip(events, resources, span)))

    document = render_sweep_report(
        title=f"Sweep report: {result.name}",
        factor=result.factor,
        summary_rows=summary_rows,
        cell_rows=cell_rows,
        strips=strips,
    )
    atomic_write_text(path, document)
    return path


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    retries: int = 1,
    out_dir: Optional[str] = None,
    resume: bool = False,
    runner: Optional[Callable[[CellJob], CellOutcome]] = None,
    progress: Optional[Callable[[CellOutcome], None]] = None,
) -> SweepResult:
    """Execute a sweep over ``workers`` processes and merge the results.

    ``workers=1`` runs every cell in-process (the sequential reference the
    parallel runs must match byte-for-byte).  ``retries`` bounds re-attempts
    of failed cells.  ``resume=True`` with an ``out_dir`` reuses finished
    cell files from a previous (partial) run.  ``runner`` overrides the
    per-cell entry point -- it must be a picklable module-level callable;
    tests use it to inject worker crashes.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if spec.capture and out_dir is None:
        raise ValueError("capture=True requires an out_dir for the traces")
    if spec.telemetry and out_dir is None:
        raise ValueError("telemetry=True requires an out_dir for the series")
    runner = runner or execute_cell
    cells = spec.cells()
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "cells"), exist_ok=True)

    outcomes: Dict[int, CellOutcome] = {}
    if resume and out_dir is not None:
        for cell in cells:
            loaded = _load_resumable(out_dir, cell)
            if loaded is not None:
                outcomes[cell.index] = loaded

    jobs = [
        CellJob(
            cell=cell,
            out_dir=out_dir,
            capture=spec.capture,
            telemetry=spec.telemetry,
        )
        for cell in cells
        if cell.index not in outcomes
    ]
    t0 = time.perf_counter()
    if workers == 1 or len(jobs) <= 1:
        _run_sequential(jobs, retries, runner, outcomes, progress)
    else:
        _run_pool(jobs, workers, retries, runner, outcomes, progress)
    wall = time.perf_counter() - t0

    result = SweepResult(
        name=spec.name,
        factor=spec.factor,
        root_seed=spec.root_seed,
        replications=spec.replications,
        deterministic=spec.deterministic,
        outcomes=merge_outcomes(cells, outcomes),
        wall=wall,
        workers=workers,
    )
    if out_dir is not None:
        result.write(out_dir)
        if spec.telemetry:
            merge_cell_series(out_dir, cells)
    return result
