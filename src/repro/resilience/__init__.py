"""Resilience: crash-safe checkpoints, solver degradation, chaos testing.

Three pillars (see ``docs/RESILIENCE.md``):

* :mod:`repro.resilience.breaker` -- a circuit breaker per degradation
  rung around the CP solver: full solve -> fail-limited warm-started
  solve -> EDF list schedule -> greedy admission-only placement.
* :mod:`repro.resilience.checkpoint` -- versioned, schema-validated,
  atomically written snapshots of complete run state, restored by
  state-validated deterministic replay.
* :mod:`repro.resilience.chaos` -- kill/restore cycles, overload bursts
  and pool worker deaths that *prove* the two mechanisms above.

The breaker module is imported eagerly (the resource manager config
references :class:`LadderConfig`); checkpoint and chaos load lazily via
PEP 562 so importing :mod:`repro.core` -- which imports this package --
never touches :mod:`repro.experiments` (avoiding the import cycle
core -> resilience -> experiments -> core).
"""

from repro.resilience.breaker import (
    RUNGS,
    CircuitBreaker,
    DegradationLadder,
    InjectedSolverFailures,
    LadderConfig,
)

__all__ = [
    "RUNGS",
    "CircuitBreaker",
    "DegradationLadder",
    "InjectedSolverFailures",
    "LadderConfig",
    # lazy (PEP 562):
    "CheckpointConfig",
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointedRun",
    "capture_snapshot",
    "restore_run",
    "run_with_checkpoints",
    "ChaosReport",
    "default_chaos_config",
    "escalation_ladder",
    "kill_restore_cycle",
    "overload_burst",
    "pool_worker_death",
]

_CHECKPOINT_EXPORTS = (
    "CheckpointConfig",
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointedRun",
    "capture_snapshot",
    "restore_run",
    "run_with_checkpoints",
)
_CHAOS_EXPORTS = (
    "ChaosReport",
    "default_chaos_config",
    "escalation_ladder",
    "kill_restore_cycle",
    "overload_burst",
    "pool_worker_death",
)


def __getattr__(name: str):
    if name in _CHECKPOINT_EXPORTS:
        from repro.resilience import checkpoint

        return getattr(checkpoint, name)
    if name in _CHAOS_EXPORTS:
        from repro.resilience import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
