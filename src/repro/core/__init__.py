"""MRCP-RM: the MapReduce Constraint Programming based Resource Manager.

The paper's primary contribution (Sections III-V):

* :mod:`repro.core.formulation` -- builds the Table 1 CP model from the
  current system state (eligible jobs + frozen running tasks), in either
  *combined* mode (one aggregated resource, Section V.D) or *joint* mode
  (per-resource alternatives, the plain Table 1 formulation).
* :mod:`repro.core.matchmaking` -- the Section V.D decomposition: a combined
  single-resource schedule is mapped onto the physical resources'
  unit-capacity slots with the best-gap heuristic.
* :mod:`repro.core.mrcp_rm` -- the Table 2 incremental algorithm driving the
  whole loop inside the discrete event simulation, including the Section
  V.E earliest-start-time deferral optimisation.
* :mod:`repro.core.executor` -- schedule-driven cluster execution with slot
  occupancy invariants.
* :mod:`repro.core.schedule` -- assignment/schedule types and an independent
  validator.
"""

from repro.core.schedule import (
    Schedule,
    SchedulingError,
    SlotKind,
    TaskAssignment,
    validate_schedule,
)
from repro.core.formulation import (
    FormulationMode,
    FormulationResult,
    build_model,
)
from repro.core.matchmaking import UnitSlot, decompose_combined_schedule
from repro.core.invocation import (
    InvocationOutcome,
    extract_assignments,
    solve_formulation,
    solve_invocation,
)
from repro.core.batch import BatchResult, schedule_batch
from repro.core.executor import ScheduledExecutor
from repro.core.gantt import render_gantt
from repro.core.mrcp_rm import MrcpRm, MrcpRmConfig, PlanRecord

__all__ = [
    "TaskAssignment",
    "Schedule",
    "SlotKind",
    "SchedulingError",
    "validate_schedule",
    "FormulationMode",
    "FormulationResult",
    "build_model",
    "UnitSlot",
    "decompose_combined_schedule",
    "ScheduledExecutor",
    "MrcpRm",
    "MrcpRmConfig",
    "PlanRecord",
    "InvocationOutcome",
    "extract_assignments",
    "solve_formulation",
    "solve_invocation",
    "render_gantt",
    "schedule_batch",
    "BatchResult",
]
