"""The traced run: spans at the layer boundaries, from the benchmark's side.

``Recorder.install`` rebinds the names through which callers reach each layer
(a module global such as ``repro.core.mrcp_rm.solve_invocation``, or a method
such as ``CpSolver.solve``) with wrappers that record a span: name, start,
end, parent span.  ``uninstall`` puts the original objects back.  Spans stay
in memory until ``write_jsonl``.  Nothing under ``src/`` is edited.

A span's self time is its duration minus its children's.  Every span belongs
to one layer, the timed section itself is the root span, and the root's self
time is the residual, so the layer self times and the residual add up to the
timed wall exactly: clock readings are integer nanoseconds.

Counts (fails, branches, propagator runs, admitted quotes, ...) are read at
the same boundaries from what the calls return.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import invocation, mrcp_rm
from repro.core.executor import ScheduledExecutor
from repro.cp import solver as cp_solver
from repro.resilience.breaker import DegradationLadder
from repro.service import admission
from repro.service.batching import ArrivalBatcher
from repro.service.schemas import JobSpec
from repro.sim.kernel import Simulator

ROOT = "timed"

#: (owner, attribute, span name).  The span name is also the layer.
TARGETS: Tuple[Tuple[object, str, str], ...] = (
    (Simulator, "run", "sim.kernel"),
    (mrcp_rm.MrcpRm, "_run_scheduler", "core.mrcp_rm"),
    (mrcp_rm, "solve_invocation", "core.invocation"),
    (mrcp_rm, "extract_assignments", "core.invocation.extract"),
    (mrcp_rm, "validate_schedule", "core.schedule.validate"),
    (invocation, "build_model", "core.formulation.build"),
    (invocation, "solve_formulation", "core.invocation"),
    (invocation, "decompose_combined_schedule", "core.matchmaking.decompose"),
    (cp_solver.CpSolver, "solve", "cp.solver"),
    (cp_solver, "best_warm_start", "cp.heuristics.warm_start"),
    (cp_solver, "list_schedule", "cp.heuristics.warm_start"),
    (cp_solver, "tree_search", "cp.search.tree"),
    (cp_solver, "lns_improve", "cp.lns"),
    (cp_solver, "check_solution", "cp.checker"),
    (DegradationLadder, "solve", "resilience.breaker"),
    (ScheduledExecutor, "install", "core.executor.install"),
    (ScheduledExecutor, "snapshot_running", "core.executor.scan"),
    (ScheduledExecutor, "planned_unstarted", "core.executor.scan"),
    (JobSpec, "from_dict", "service.schemas.parse"),
    (ArrivalBatcher, "offer", "service.batching"),
    (ArrivalBatcher, "flush_due", "service.batching"),
    (admission.AdmissionController, "quote", "service.admission"),
    (admission, "solve_invocation", "core.invocation"),
    (admission, "extract_assignments", "core.invocation.extract"),
)

#: Propagator classes, grouped the way the per-layer metrics name them.
PROPAGATOR_LAYER = {
    "CumulativePropagator": "cumulative",
    "BarrierPropagator": "precedence",
    "EndBeforeStartPropagator": "precedence",
    "DeadlineIndicatorPropagator": "lateness",
    "SumBoolBoundPropagator": "objective",
}


class Recorder:
    """Spans and counts of one traced timed section."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or -1, tag or None]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._originals: List[Tuple[object, str, object]] = []
        #: What to read from a call once it has returned, by span name.
        self._readers: Dict[str, Callable] = {
            "sim.kernel": self._read_sim,
            "core.mrcp_rm": self._read_invocation,
            "core.formulation.build": self._read_build,
            "cp.solver": self._read_solve,
            "cp.lns": self._read_lns,
            "resilience.breaker": self._read_ladder,
            "service.schemas.parse": self._read_parse,
            "service.batching": self._read_batching,
            "service.admission": self._read_quote,
        }

    # ------------------------------------------------------------ recording
    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, None])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        self.spans[index][2] = time.perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {index} closed out of order")

    def _wrap(self, fn: Callable, name: str) -> Callable:
        reader = self._readers.get(name)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if reader is not None:
                reader(self.spans[index], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        """Rebind every name in ``TARGETS`` to a span-recording wrapper."""
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(original.__func__, name))
            else:
                wrapper = self._wrap(original, name)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original objects back, last rebound first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- readers
    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _read_sim(self, span, args, kwargs, result) -> None:
        self.counts["sim.kernel.events_n"] += args[0].dispatched

    def _read_invocation(self, span, args, kwargs, result) -> None:
        span[4] = self.counts["core.mrcp_rm.invocations_n"]
        self.counts["core.mrcp_rm.invocations_n"] += 1

    def _read_build(self, span, args, kwargs, result) -> None:
        self.counts["core.formulation.intervals_n"] += len(result.interval_of)

    def _read_search_stats(self, stats) -> None:
        self.counts["cp.search.branches_n"] += stats.branches
        self.counts["cp.search.fails_n"] += stats.fails
        self.counts["cp.engine.propagations_n"] += stats.propagations

    def _read_propagators(self, by_class: Dict[str, Dict[str, int]]) -> None:
        for class_name, c in by_class.items():
            layer = PROPAGATOR_LAYER.get(class_name, "other")
            self.counts[f"cp.propagators.{layer}.runs_n"] += c["runs"]
            self.counts[f"cp.propagators.{layer}.prunes_n"] += c["prunes"]
            self.counts["propagator_runs"] += c["runs"]
            self.counts["propagator_useful"] += c["prunes"] + c["fails"]

    def _read_solve(self, span, args, kwargs, result) -> None:
        stats = result.stats
        self._read_search_stats(stats)
        self.counts["solves"] += 1
        if stats.tree_time == 0.0:
            self.counts["solves_fastpath"] += 1
        limit = kwargs.get("time_limit", args[0].params.time_limit)
        if stats.wall_time >= 0.95 * limit:
            self.counts["solves_budget_bound"] += 1
        # The solver times its own root propagation; it is carved out of the
        # solve span's self time, never more than the span holds.
        root_ns = min(round(stats.propagate_time * 1e9), span[2] - span[1])
        self.counts["root_propagate_ns"] += root_ns
        if result.profile is not None:
            self._read_propagators(result.profile.propagators)

    def _read_lns(self, span, args, kwargs, result) -> None:
        best, stats = result
        incumbent = args[2]
        self.counts["cp.lns.iterations_n"] += stats.lns_iterations
        self.counts["lns_gain"] += incumbent.objective - best.objective
        if not self._inside("cp.solver"):
            # Called by the benchmark itself (batch_lns): no enclosing solve
            # folds these in.
            self._read_search_stats(stats)
            profile = args[1].profile
            if profile is not None:
                self._read_propagators(profile.as_dict())

    def _read_ladder(self, span, args, kwargs, result) -> None:
        rung = "cp_full" if result.rung == "cp_full" else "degraded"
        self.counts[f"resilience.breaker.rung_{rung}_n"] += 1

    def _read_parse(self, span, args, kwargs, result) -> None:
        span[4] = result.job_id

    def _read_batching(self, span, args, kwargs, result) -> None:
        if isinstance(result, list):  # flush_due: the batch it released
            span[4] = result[0].spec.job_id if result else None
        else:  # offer(spec, now, seq)
            span[4] = args[1].job_id

    def _read_quote(self, span, args, kwargs, result) -> None:
        span[4] = result.job_id
        self.counts["quotes"] += 1
        self.counts["quotes_admitted"] += result.admitted
        self.counts["committed_jobs"] += args[0].committed_count

    # --------------------------------------------------------------- ledger
    def self_times_ns(self) -> Dict[str, int]:
        """Self time per span name; the values add up to the root's duration."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        by_name: Counter = Counter()
        for (name, *_), ns in zip(self.spans, own):
            by_name[name] += ns
        return dict(by_name)

    def ledger(self) -> Dict[str, float]:
        """Every trace-derived per-layer metric, by name."""
        c = self.counts
        ns = Counter(self.self_times_ns())
        ns["cp.solver"] -= c["root_propagate_ns"]
        ns["cp.solver.root_propagate"] = c["root_propagate_ns"]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "sim.kernel.outside_invocation_s": ns["sim.kernel"],
            "core.mrcp_rm.self_s": ns["core.mrcp_rm"],
            "core.invocation.self_s": ns["core.invocation"],
            "core.invocation.extract_s": ns["core.invocation.extract"],
            "core.formulation.build_s": ns["core.formulation.build"],
            "core.matchmaking.decompose_s": ns["core.matchmaking.decompose"],
            "core.schedule.validate_s": ns["core.schedule.validate"],
            "core.executor.install_s": ns["core.executor.install"],
            "core.executor.scan_s": ns["core.executor.scan"],
            "cp.solver.self_s": ns["cp.solver"],
            "cp.solver.root_propagate_s": ns["cp.solver.root_propagate"],
            "cp.heuristics.warm_start_s": ns["cp.heuristics.warm_start"],
            "cp.search.tree_s": ns["cp.search.tree"],
            "cp.lns.lns_s": ns["cp.lns"],
            "cp.checker.check_s": ns["cp.checker"],
            "resilience.breaker.self_s": ns["resilience.breaker"],
            "service.schemas.parse_s": ns["service.schemas.parse"],
            "service.batching.self_s": ns["service.batching"],
            "service.admission.self_s": ns["service.admission"],
            "residual_s": ns[ROOT],
        }
        out = {name: value / 1e9 for name, value in out.items()}
        for name in (
            "sim.kernel.events_n",
            "core.mrcp_rm.invocations_n",
            "core.formulation.intervals_n",
            "cp.search.branches_n",
            "cp.search.fails_n",
            "cp.engine.propagations_n",
            "cp.lns.iterations_n",
            "cp.propagators.cumulative.runs_n",
            "cp.propagators.cumulative.prunes_n",
            "cp.propagators.precedence.runs_n",
            "cp.propagators.lateness.runs_n",
            "cp.propagators.objective.runs_n",
            "resilience.breaker.rung_cp_full_n",
            "resilience.breaker.rung_degraded_n",
        ):
            out[name] = c[name]
        out["cp.lns.iter_per_s"] = ratio(c["cp.lns.iterations_n"], out["cp.lns.lns_s"])
        out["cp.lns.gain_per_kiter"] = ratio(
            1000.0 * c["lns_gain"], c["cp.lns.iterations_n"]
        )
        out["cp.solver.fastpath_ratio"] = ratio(c["solves_fastpath"], c["solves"])
        out["cp.solver.budget_bound_ratio"] = ratio(
            c["solves_budget_bound"], c["solves"]
        )
        out["cp.propagators.useful_ratio"] = ratio(
            c["propagator_useful"], c["propagator_runs"]
        )
        out["service.admission.committed_jobs_mean"] = ratio(
            c["committed_jobs"], c["quotes"]
        )
        out["service.admission.admit_ratio"] = ratio(
            c["quotes_admitted"], c["quotes"]
        )
        return out

    def root_ns(self) -> int:
        """Duration of the root span: the traced timed wall."""
        _, start, end, _, _ = self.spans[0]
        return end - start

    def write_jsonl(self, path: str) -> None:
        """One line per span; a span inherits the tag of its nearest ancestor."""
        tags: List[Optional[object]] = []
        with open(path, "w") as out:
            for index, (name, start, end, parent, tag) in enumerate(self.spans):
                if tag is None and parent >= 0:
                    tag = tags[parent]
                tags.append(tag)
                out.write(
                    json.dumps(
                        {"i": index, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "tag": tag}
                    )
                    + "\n"
                )
