"""The paper's figure shapes (Figs 2-9), the design ablations, two extensions.

The reproduction contract is about *shapes*, not absolute values (the
substrate is a simulator plus a from-scratch CP solver, not the authors'
CPLEX testbed): who wins, which direction a metric moves, where the big
jumps are.  Each test runs one figure's full series at a reduced scaled
profile and asserts the direction the paper reports, tolerantly enough to
survive small-sample noise.  Each series runs the way ``mrcp-rm run``
does: the figure's sweep on one worker, on the wall clock.  Paper scale is
``mrcp-rm run <figure> --profile paper``.
"""

from dataclasses import replace

import pytest

from repro.experiments.configs import SCALED, figure_series
from repro.experiments.pool import SweepSpec, run_sweep
from repro.sim.stats import mean_ci

pytestmark = pytest.mark.slow

#: Jobs per run and replications per point: the whole module stays ~10 s.
NUM_JOBS = 25
REPLICATIONS = 2


def series_rows(series, result, metrics=None):
    """Tabular data: one dict per configuration with mean +/- half-width."""
    metrics = list(metrics or series.metrics)
    samples = result.samples()
    rows = []
    for labeled in series.configs:
        values = samples[labeled.label]
        row = {
            "label": labeled.label,
            series.factor: labeled.factor_value,
            "scheduler": labeled.scheduler,
            "replications": len(values["T"]),
        }
        for m in metrics:
            mean, hw = mean_ci(values[m])
            row[m] = mean
            row[f"{m}_hw"] = hw
        rows.append(row)
    return rows


def run_figure(figure):
    """Run one figure's series; one row per (factor value, scheduler)."""
    series = figure_series(figure, SCALED)
    for labeled in series.configs:
        config = labeled.config
        if config.synthetic is not None:
            config.synthetic = replace(config.synthetic, num_jobs=NUM_JOBS)
        if config.facebook is not None:
            config.facebook = replace(config.facebook, num_jobs=NUM_JOBS)
    spec = SweepSpec.from_series(series, REPLICATIONS, deterministic=False)
    result = run_sweep(spec, workers=1)
    assert result.failed_cells == []
    return series_rows(series, result, metrics=("O", "T", "P", "N"))


def values_of(rows, factor, metric, scheduler=None):
    """The metric's means in increasing order of the factor value."""
    picked = [r for r in rows if scheduler in (None, r["scheduler"])]
    points = sorted((float(r[factor]), float(r[metric])) for r in picked)
    return [value for _, value in points]


def by_factor(rows, factor, metric):
    """factor value -> metric mean, for the two-sided ablations."""
    return {float(r[factor]): float(r[metric]) for r in rows}


def mean(seq):
    return sum(seq) / len(seq)


# --------------------------------------------------------------------------
# Figures 2-9
# --------------------------------------------------------------------------


def test_fig2_mrcp_vs_minedf_late_jobs():
    """MRCP-RM's P is far below MinEDF-WC's at every lambda (the reduction
    shrinks from ~93% at lambda=1e-4 to ~70% at 5e-4).  Here the headline:
    averaged across the sweep, MRCP-RM produces no more late jobs."""
    rows = run_figure("fig2")
    p_mrcp = values_of(rows, "lambda (jobs/s)", "P", "mrcp-rm")
    p_minedf = values_of(rows, "lambda (jobs/s)", "P", "minedf-wc")
    assert len(p_mrcp) == len(p_minedf) == 5
    assert mean(p_mrcp) <= mean(p_minedf)


def test_fig3_mrcp_vs_minedf_turnaround():
    """MRCP-RM achieves up to ~7% lower T than MinEDF-WC and the two curves
    track each other as lambda rises: MRCP-RM stays within a modest factor
    (it trades a little T for far fewer deadline misses), both T grow."""
    rows = run_figure("fig3")
    t_mrcp = values_of(rows, "lambda (jobs/s)", "T", "mrcp-rm")
    t_minedf = values_of(rows, "lambda (jobs/s)", "T", "minedf-wc")
    assert len(t_mrcp) == len(t_minedf) == 5
    assert mean(t_mrcp) <= 1.5 * mean(t_minedf)
    assert t_mrcp[-1] >= t_mrcp[0]
    assert t_minedf[-1] >= t_minedf[0]


def test_fig4_execution_time_effect():
    """O and T both increase with e_max (longer tasks stay in the system
    longer); T scales with task length -- the strongest trend."""
    rows = run_figure("fig4")
    t = values_of(rows, "e_max", "T")
    assert len(t) == 3
    assert t[-1] > 2 * t[0]  # e_max 10 -> 100 should move T a lot


def test_fig5_start_time_effect():
    """O, T and P all tend to *decrease* as s_max grows -- jobs spread out
    over future reservation windows, so fewer overlap at any instant."""
    rows = run_figure("fig5")
    t = values_of(rows, "s_max", "T")
    p = values_of(rows, "s_max", "P")
    assert len(t) == 3
    assert t[-1] <= t[0]
    assert p[-1] <= p[0]


def test_fig6_ar_probability_effect():
    """Same direction as Figure 5 (more AR jobs => less overlap => lower T
    and P) but weaker, because the default s_max is small."""
    rows = run_figure("fig6")
    t = values_of(rows, "p", "T")
    p = values_of(rows, "p", "P")
    assert len(t) == 3
    assert t[-1] <= t[0]
    # late jobs do not increase when more of the load is pre-booked
    assert p[-1] <= p[0] + 1.0


def test_fig7_deadline_effect():
    """The sharpest figure -- P collapses from 3.46% at d_UL=2 to 0.56% and
    0.21% at 5 and 10, and O drops alongside (less laxity means the solver
    works much harder at d_UL=2).  T barely moves."""
    rows = run_figure("fig7")
    p = values_of(rows, "d_UL", "P")
    o = values_of(rows, "d_UL", "O")
    t = values_of(rows, "d_UL", "T")
    assert len(p) == 3
    # late jobs fall as deadlines loosen (each step may rise by 0.5 at most)
    assert all(b <= a + 0.5 for a, b in zip(p, p[1:]))
    assert p[0] >= p[-1]
    # tight deadlines are where the solver sweats: O highest at d_UL=2
    assert o[0] >= o[-1]
    assert max(t) <= 1.5 * min(t) + 1.0


def test_fig8_arrival_rate_effect():
    """O, T and P all increase with lambda; even at the highest rate O
    remains a small fraction of T (O/T <= 0.04% in the paper; the ratio
    differs on our substrate but stays small)."""
    rows = run_figure("fig8")
    t = values_of(rows, "lambda", "T")
    p = values_of(rows, "lambda", "P")
    o = values_of(rows, "lambda", "O")
    assert len(t) == 4
    assert t[-1] >= t[0]
    assert p[-1] >= p[0]
    for o_i, t_i in zip(o, t):
        assert o_i <= 0.25 * t_i


def test_fig9_resource_count_effect():
    """Shrinking the cluster from m=50 to m=25 raises T and P markedly;
    growing it to 100 changes little because most tasks already start at
    their earliest start times."""
    rows = run_figure("fig9")
    t = values_of(rows, "m", "T")
    p = values_of(rows, "m", "P")
    assert len(t) == 3
    assert t[-1] <= t[0]
    assert p[-1] <= p[0]
    # the small-m end is the painful one
    assert t[0] >= t[1]


# --------------------------------------------------------------------------
# Ablations of the design choices DESIGN.md Section 5 calls out
# --------------------------------------------------------------------------


def test_ablation_separation():
    """Section V.D: the combined-resource formulation should cut solver
    overhead substantially versus joint matchmaking (the paper's anecdote:
    15 s vs 60 s), at comparable solution quality."""
    rows = run_figure("ablation-separation")
    o = by_factor(rows, "mode", "O")  # 0.0 = combined, 1.0 = joint
    p = by_factor(rows, "mode", "P")
    assert o[0.0] <= o[1.0] * 1.05  # combined no slower (usually far faster)
    assert abs(p[0.0] - p[1.0]) <= 15.0  # quality in the same ballpark


def test_ablation_est_deferral():
    """Section V.E: deferring far-future reservations shrinks each solve;
    overhead must not increase, and outcomes must not degrade."""
    rows = run_figure("ablation-est-deferral")
    o = by_factor(rows, "deferral", "O")  # 1.0 = on, 0.0 = off
    p = by_factor(rows, "deferral", "P")
    assert o[1.0] <= o[0.0] * 1.25
    assert p[1.0] <= p[0.0] + 5.0


def test_ablation_ordering():
    """Section VI.B: the three job orderings should produce similar P
    (the paper reports no significant difference)."""
    rows = run_figure("ablation-ordering")
    p = values_of(rows, "ordering", "P")
    assert len(p) == 3
    assert max(p) - min(p) <= 10.0


def test_ablation_lns():
    """LNS should not hurt: with tight deadlines, the improvement phase
    produces no more late jobs than warm start + tree search alone."""
    rows = run_figure("ablation-lns")
    p = by_factor(rows, "lns", "P")  # 1.0 = on, 0.0 = off
    assert p[1.0] <= p[0.0] + 2.0


def test_ablation_hints():
    """Previous-plan warm starts (Fig. 1's incremental loop) must not hurt
    solution quality."""
    rows = run_figure("ablation-hints")
    p = by_factor(rows, "hints", "P")  # 1.0 = on, 0.0 = off
    assert p[1.0] <= p[0.0] + 2.0


def test_ablation_replanning():
    """Table 2's incremental re-planning should reduce late jobs versus
    scheduling each job once on arrival, at the cost of extra overhead."""
    rows = run_figure("ablation-replanning")
    p = by_factor(rows, "replan", "P")  # 1.0 = on, 0.0 = off
    n = by_factor(rows, "replan", "N")
    assert p[1.0] <= p[0.0] + 1.0
    assert n[1.0] <= n[0.0] + 0.5


# --------------------------------------------------------------------------
# Extensions: DAG workflows (the Section VII generalisation)
# --------------------------------------------------------------------------


def test_ext_workflow_depth():
    """Longer critical paths -> longer turnarounds."""
    rows = run_figure("ext-workflow-depth")
    t = values_of(rows, "max stages", "T")
    assert len(t) == 3
    assert t[-1] > t[0]


def test_ext_workflow_density():
    """Denser precedence cannot speed jobs up."""
    rows = run_figure("ext-workflow-density")
    t = values_of(rows, "extra edge probability", "T")
    assert len(t) == 3
    assert t[-1] >= t[0] * 0.95
