"""Per-figure experiment definitions (Figures 2-9) plus ablations.

Every figure of the paper's evaluation maps to a :class:`FigureSeries`: the
factor being varied, and one :class:`~repro.experiments.runner.RunConfig`
per (factor value, scheduler) combination.  Each series is a list of
``(label, factor value, RunConfig)`` points handed to one builder
(:func:`_series`); the points come from the profile's baseline run with one
knob overridden (:func:`_synthetic`, :func:`_workflow`).

Two profiles:

* ``SCALED`` (default): the same parameter *geometry* as Table 3/4 with task
  counts and the cluster shrunk 5x (synthetic) / 10x (Facebook) and short
  job streams -- minutes of wall time on a laptop.  Workload intensity
  (work per job relative to cluster capacity per inter-arrival) is
  preserved, so the figures' qualitative shapes are reproduced.
* ``PAPER``: the original Table 3/4 values.  Expect hours of wall time; use
  for spot checks rather than sweeps.

The boldface (default) values of Table 3 are not recoverable from the
paper's text; DESIGN.md Section 4 records the choices used here
(e_max=50, p=0.5, s_max=10000, d_UL=5, lambda=0.01, m=50).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.formulation import FormulationMode
from repro.core.mrcp_rm import MrcpRmConfig
from repro.cp.solver import SolverParams
from repro.experiments.runner import RunConfig, SystemConfig
from repro.faults import FaultModel
from repro.workload import (
    FacebookWorkloadParams,
    SyntheticWorkloadParams,
    WorkflowWorkloadParams,
)

SCALED = "scaled"
PAPER = "paper"
PROFILES = (SCALED, PAPER)


@dataclass
class LabeledConfig:
    """One point of a figure: a factor value (and scheduler) to run."""

    label: str
    factor_value: float
    scheduler: str
    config: RunConfig


@dataclass
class FigureSeries:
    """All runs needed to regenerate one figure."""

    figure: str
    title: str
    factor: str
    configs: List[LabeledConfig]
    metrics: Sequence[str] = ("O", "T", "P")
    notes: str = ""


def _check_profile(profile: str) -> None:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected {PROFILES}")


# --------------------------------------------------------------------------
# Baseline parameterisations per profile
# --------------------------------------------------------------------------


def default_solver_params(profile: str) -> SolverParams:
    """Per-invocation CP budget for the given profile."""
    if profile == SCALED:
        return SolverParams(time_limit=0.15, tree_fail_limit=300)
    return SolverParams(time_limit=0.5, tree_fail_limit=1000)


def default_mrcp_config(profile: str) -> MrcpRmConfig:
    """MRCP-RM configuration with the profile's solver budget."""
    return MrcpRmConfig(solver=default_solver_params(profile))


def default_synthetic_params(profile: str) -> SyntheticWorkloadParams:
    """Table 3 defaults (DESIGN.md Section 4), scaled 5x when requested."""
    _check_profile(profile)
    tasks = (1, 20) if profile == SCALED else (1, 100)
    return SyntheticWorkloadParams(
        num_jobs=40 if profile == SCALED else 400,
        map_tasks_range=tasks,
        reduce_tasks_range=tasks,
        e_max=50,
        ar_probability=0.5,
        s_max=10_000,
        deadline_multiplier_max=5.0,
        arrival_rate=0.01,
    )


def default_synthetic_system(profile: str) -> SystemConfig:
    """The paper's system defaults (m=50 x (2,2)); m=10 when scaled."""
    return SystemConfig(
        num_resources=10 if profile == SCALED else 50,
        map_slots=2,
        reduce_slots=2,
    )


def default_facebook_params(profile: str) -> FacebookWorkloadParams:
    """Table 4 workload defaults per profile (10x scaled or full)."""
    _check_profile(profile)
    return FacebookWorkloadParams(
        num_jobs=60 if profile == SCALED else 1000,
        arrival_rate=0.0001,
        deadline_multiplier_max=2.0,
        scale=0.1 if profile == SCALED else 1.0,
    )


def default_facebook_system(profile: str) -> SystemConfig:
    """Figures 2-3 system: 64 x (1,1) resources (8 when scaled)."""
    return SystemConfig(
        num_resources=8 if profile == SCALED else 64,
        map_slots=1,
        reduce_slots=1,
    )


def default_workflow_params(profile: str) -> WorkflowWorkloadParams:
    """Random layered-DAG workload defaults per profile (extension)."""
    _check_profile(profile)
    if profile == SCALED:
        return WorkflowWorkloadParams(
            num_jobs=25,
            stages_range=(2, 4),
            tasks_per_stage_range=(1, 6),
            e_max=20,
            arrival_rate=0.01,
        )
    return WorkflowWorkloadParams(
        num_jobs=200,
        stages_range=(2, 6),
        tasks_per_stage_range=(1, 20),
        e_max=50,
        arrival_rate=0.01,
    )


# --------------------------------------------------------------------------
# Points and the one series builder
# --------------------------------------------------------------------------

#: One figure point: (label, factor value, the run).
Point = Tuple[str, Any, RunConfig]


def _synthetic(profile: str, **overrides: Any) -> RunConfig:
    """The profile's synthetic MRCP-RM run with named fields overridden.

    Each keyword names a field of the Table 3 workload
    (:class:`SyntheticWorkloadParams`), the system (:class:`SystemConfig`)
    or the manager (:class:`MrcpRmConfig`); the three share no field name.
    """
    parts = {
        "synthetic": default_synthetic_params(profile),
        "system": default_synthetic_system(profile),
        "mrcp": default_mrcp_config(profile),
    }
    for name, part in parts.items():
        own = {f.name for f in fields(part)}
        parts[name] = replace(
            part, **{k: overrides.pop(k) for k in own & overrides.keys()}
        )
    if overrides:
        raise TypeError(f"unknown run fields: {sorted(overrides)}")
    return RunConfig(scheduler="mrcp-rm", workload="synthetic", **parts)


def _workflow(profile: str, **overrides: Any) -> RunConfig:
    """The profile's DAG-workflow MRCP-RM run, workload fields overridden."""
    return RunConfig(
        scheduler="mrcp-rm",
        workload="workflow",
        workflow=replace(default_workflow_params(profile), **overrides),
        system=default_synthetic_system(profile),
        mrcp=default_mrcp_config(profile),
    )


def _series(
    figure: str,
    title: str,
    factor: str,
    points: Sequence[Point],
    notes: str,
    metrics: Sequence[str] = ("O", "T", "P"),
) -> FigureSeries:
    """Every figure, ablation and extension series is built here."""
    return FigureSeries(
        figure=figure,
        title=title,
        factor=factor,
        configs=[
            LabeledConfig(label, value, config.scheduler, config)
            for label, value, config in points
        ],
        metrics=metrics,
        notes=notes,
    )


def _vary(profile: str, factor: str, field: str, values: Sequence) -> List[Point]:
    """Factor-at-a-time points: one :func:`_synthetic` run per value.

    Values pass through uncast: an int stays an int in the config repr.
    """
    return [(f"{factor}={v:g}", v, _synthetic(profile, **{field: v})) for v in values]


def _on_off(name: str, arm: Callable[[bool], RunConfig]) -> List[Point]:
    """The two arms of a design-choice ablation, "on" first."""
    return [
        (f"{name}={'on' if on else 'off'}", 1.0 if on else 0.0, arm(on))
        for on in (True, False)
    ]


# --------------------------------------------------------------------------
# The figures
# --------------------------------------------------------------------------


def _facebook(profile: str) -> List[Point]:
    """Figs 2-3: MRCP-RM vs MinEDF-WC on the Facebook workload per lambda
    (the paper sweeps 0.0001 .. 0.0005 jobs/s in both profiles)."""
    return [
        (
            f"lambda={lam:g}/{sched}",
            lam,
            RunConfig(
                scheduler=sched,
                workload="facebook",
                facebook=replace(default_facebook_params(profile), arrival_rate=lam),
                system=default_facebook_system(profile),
                mrcp=default_mrcp_config(profile),
            ),
        )
        for lam in (0.0001, 0.0002, 0.0003, 0.0004, 0.0005)
        for sched in ("mrcp-rm", "minedf-wc")
    ]


_FACEBOOK_NOTES = (
    "Facebook Table 4 workload; deadlines U[1,2]*TE; p=0; "
    "1 map + 1 reduce slot per resource."
)

#: Figure name -> profile -> ``(title, factor, points, notes[, metrics])``,
#: the arguments :func:`_series` builds the figure from.  Figs 4-9 vary
#: one Table 3 parameter at a time; the ablations (DESIGN.md Section 5)
#: switch one design choice; the extensions run DAG workflows (paper
#: Section VII).
_FIGURES: Dict[str, Callable[[str], tuple]] = {
    "fig2": lambda p: (
        "MRCP-RM vs MinEDF-WC: proportion of late jobs",
        "lambda (jobs/s)",
        _facebook(p),
        _FACEBOOK_NOTES,
        ("P",),
    ),
    "fig3": lambda p: (
        "MRCP-RM vs MinEDF-WC: average turnaround time",
        "lambda (jobs/s)",
        _facebook(p),
        _FACEBOOK_NOTES,
        ("T",),
    ),
    "fig4": lambda p: (
        "Effect of task execution times (e_max)",
        "e_max",
        _vary(p, "e_max", "e_max", [10, 50, 100]),
        "O and T should increase with e_max; P ~2% at e_max=100.",
    ),
    "fig5": lambda p: (
        "Effect of earliest start times (s_max)",
        "s_max",
        _vary(p, "s_max", "s_max", [10_000, 50_000, 250_000]),
        "O, T and P should all decrease as s_max grows.",
    ),
    "fig6": lambda p: (
        "Effect of the advance-reservation probability (p)",
        "p",
        _vary(p, "p", "ar_probability", [0.1, 0.5, 0.9]),
        "Same trend as fig5 but weaker in O (s_max stays small).",
    ),
    "fig7": lambda p: (
        "Effect of the deadline multiplier (d_UL)",
        "d_UL",
        _vary(p, "d_UL", "deadline_multiplier_max", [2, 5, 10]),
        "O and P should drop sharply from d_UL=2 to 5 and 10.",
    ),
    "fig8": lambda p: (
        "Effect of the job arrival rate (lambda)",
        "lambda",
        _vary(p, "lambda", "arrival_rate", [0.001, 0.01, 0.015, 0.02]),
        "O, T and P should all increase with lambda.",
    ),
    "fig9": lambda p: (
        "Effect of the number of resources (m)",
        "m",
        _vary(p, "m", "num_resources", [5, 10, 20] if p == SCALED else [25, 50, 100]),
        "T, P and O should all increase as m shrinks.",
    ),
    "ablation-separation": lambda p: (
        "V.D ablation: combined-resource vs joint matchmaking",
        "mode",
        [
            # Joint mode builds (tasks x resources) optional intervals;
            # keep the instance compact even in the paper profile.
            (
                f"mode={mode.value}",
                float(i),
                _synthetic(p, mode=mode, **({"num_jobs": 60} if p == PAPER else {})),
            )
            for i, mode in enumerate((FormulationMode.COMBINED, FormulationMode.JOINT))
        ],
        "Combined mode should show substantially lower O at equal P.",
    ),
    "ablation-est-deferral": lambda p: (
        "V.E ablation: earliest-start-time deferral",
        "deferral",
        # Deferral matters when many jobs have far-future start times.
        _on_off(
            "deferral",
            lambda on: _synthetic(p, ar_probability=0.9, s_max=50_000, est_deferral=on),
        ),
        "Deferral should reduce O (fewer tasks re-planned per solve).",
    ),
    "ablation-ordering": lambda p: (
        "VI.B ablation: job ordering strategies",
        "ordering",
        [
            (f"ordering={order}", float(i), _synthetic(p, ordering=order))
            for i, order in enumerate(("edf", "laxity", "input"))
        ],
        "The paper reports no significant difference; EDF slightly best.",
    ),
    "ablation-lns": lambda p: (
        "Solver ablation: LNS improvement phase",
        "lns",
        # Tight deadlines, so the improvement phase has work to do.
        _on_off(
            "lns",
            lambda on: _synthetic(
                p,
                deadline_multiplier_max=2.0,
                solver=replace(default_solver_params(p), use_lns=on),
            ),
        ),
        "LNS should lower P under tight deadlines at equal budget.",
    ),
    "ablation-replanning": lambda p: (
        "V.B ablation: incremental re-planning vs schedule-once",
        "replan",
        _on_off(
            "replan", lambda on: _synthetic(p, deadline_multiplier_max=2.0, replan=on)
        ),
        "Re-planning should reduce P (late jobs) at higher O.",
    ),
    # Fig. 1's "incrementally builds on the previous solution": the prior
    # plan re-used as a warm start.
    "ablation-hints": lambda p: (
        "Fig. 1 ablation: previous-solution warm starts",
        "hints",
        _on_off(
            "hints",
            lambda on: _synthetic(p, deadline_multiplier_max=2.0, use_hints=on),
        ),
        "Hints should not raise P; O may drop when arrivals fit "
        "around the existing plan.",
    ),
    # Deeper DAGs mean longer critical paths and more constrained solves.
    "ext-workflow-depth": lambda p: (
        "Extension: DAG workflow depth (Section VII generalisation)",
        "max stages",
        [
            (f"stages<={s}", float(s), _workflow(p, stages_range=(max(2, s - 1), s)))
            for s in (2, 4, 6)
        ],
        "Deeper DAGs (longer critical paths) should raise T; all "
        "precedence edges hold by construction (validated per solve).",
    ),
    # DAG density via extra skip-level edges.
    "ext-workflow-density": lambda p: (
        "Extension: DAG precedence density",
        "extra edge probability",
        [
            (f"density={d:g}", d, _workflow(p, extra_edge_probability=d))
            for d in (0.0, 0.4, 0.8)
        ],
        "More precedence edges restrict overlap; T should not drop as density rises.",
    ),
}


def list_figures() -> List[str]:
    """Names of every reproducible figure and ablation."""
    return list(_FIGURES)


def figure_series(figure: str, profile: str = SCALED) -> FigureSeries:
    """Build the run configurations for one figure/ablation."""
    _check_profile(profile)
    try:
        builder = _FIGURES[figure]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure!r}; available: {', '.join(_FIGURES)}"
        ) from None
    return _series(figure, *builder(profile))


def default_report_config(num_jobs: int = 14, faults: bool = False) -> RunConfig:
    """The run ``mrcp-rm report`` renders: late jobs, with plan history.

    Tight deadlines on a four-resource cluster leave late jobs for the
    report's slack waterfall to explain; ``faults`` adds task failures,
    stragglers and random outages.  The config's seed is 0, so replication
    ``r`` draws the workload and fault streams seeded ``r``.
    """
    fault_model = None
    if faults:
        fault_model = FaultModel(
            task_failure_prob=0.15,
            straggler_prob=0.2,
            straggler_factor=2.0,
            outage_rate=0.002,
            outage_duration_range=(30.0, 90.0),
            outage_horizon=2000.0,
        )
    return RunConfig(
        synthetic=SyntheticWorkloadParams(
            num_jobs=num_jobs, deadline_multiplier_max=1.4, scale=0.1
        ),
        system=SystemConfig(num_resources=4),
        mrcp=MrcpRmConfig(
            record_plan_history=True,
            solver=SolverParams(time_limit=0.5, tree_fail_limit=200, use_lns=False),
            faults=fault_model,
        ),
    )
