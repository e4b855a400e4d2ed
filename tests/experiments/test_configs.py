"""Figure/ablation configuration definitions."""

import hashlib

import pytest

from repro.core.formulation import FormulationMode
from repro.experiments.configs import (
    PAPER,
    SCALED,
    default_facebook_params,
    default_synthetic_params,
    figure_series,
    list_figures,
)

#: sha256 over ``repr(figure_series(f, p))`` concatenated for every figure
#: in ``list_figures()`` order x (scaled, paper).  Any change to a figure's
#: configs -- a value, a value's type, a default -- moves it.
FIGURE_REPR_SHA256 = "768f7b03c1bcdaeb6d529ab2ce0bba95c30a574054261344628f3fd463009e52"


def test_all_figures_listed():
    figures = list_figures()
    for fig in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
        assert fig in figures
    assert any(f.startswith("ablation-") for f in figures)


@pytest.mark.parametrize("figure", list_figures())
@pytest.mark.parametrize("profile", [SCALED, PAPER])
def test_every_series_builds_valid_configs(figure, profile):
    series = figure_series(figure, profile)
    assert series.configs
    for labeled in series.configs:
        labeled.config.validate()


def test_unknown_figure_rejected():
    with pytest.raises(ValueError):
        figure_series("fig99")
    with pytest.raises(ValueError):
        figure_series("fig2", profile="huge")


def test_fig2_pairs_both_schedulers_per_lambda():
    series = figure_series("fig2", SCALED)
    lambdas = {c.factor_value for c in series.configs}
    assert len(lambdas) == 5
    for lam in lambdas:
        scheds = {c.scheduler for c in series.configs if c.factor_value == lam}
        assert scheds == {"mrcp-rm", "minedf-wc"}


def test_fig4_varies_only_emax():
    series = figure_series("fig4", SCALED)
    e_values = [c.config.synthetic.e_max for c in series.configs]
    assert e_values == [10, 50, 100]
    rates = {c.config.synthetic.arrival_rate for c in series.configs}
    assert len(rates) == 1  # factor-at-a-time: everything else fixed


def test_fig9_scales_resource_counts_per_profile():
    scaled = figure_series("fig9", SCALED)
    paper = figure_series("fig9", PAPER)
    assert [c.config.system.num_resources for c in scaled.configs] == [5, 10, 20]
    assert [c.config.system.num_resources for c in paper.configs] == [25, 50, 100]


def test_paper_profile_uses_table3_ranges():
    params = default_synthetic_params(PAPER)
    assert params.map_tasks_range == (1, 100)
    assert params.reduce_tasks_range == (1, 100)
    scaled = default_synthetic_params(SCALED)
    assert scaled.map_tasks_range[1] < 100


def test_facebook_paper_profile_full_scale():
    params = default_facebook_params(PAPER)
    assert params.num_jobs == 1000
    assert params.scale == 1.0
    assert params.deadline_multiplier_max == 2.0


def test_ablation_separation_modes():
    series = figure_series("ablation-separation", SCALED)
    modes = [c.config.mrcp.mode for c in series.configs]
    assert FormulationMode.COMBINED in modes
    assert FormulationMode.JOINT in modes


def test_ablation_lns_toggles_solver_flag():
    series = figure_series("ablation-lns", SCALED)
    flags = {c.config.mrcp.solver.use_lns for c in series.configs}
    assert flags == {True, False}


def test_ablation_replanning_toggles():
    series = figure_series("ablation-replanning", SCALED)
    flags = {c.config.mrcp.replan for c in series.configs}
    assert flags == {True, False}


def test_ablation_hints_toggles():
    series = figure_series("ablation-hints", SCALED)
    flags = {c.config.mrcp.use_hints for c in series.configs}
    assert flags == {True, False}


def test_workflow_extension_series():
    depth = figure_series("ext-workflow-depth", SCALED)
    assert all(c.config.workload == "workflow" for c in depth.configs)
    assert [c.factor_value for c in depth.configs] == [2.0, 4.0, 6.0]
    density = figure_series("ext-workflow-density", SCALED)
    probs = [c.config.workflow.extra_edge_probability for c in density.configs]
    assert probs == [0.0, 0.4, 0.8]


def test_series_have_fresh_param_objects():
    """Mutating one point's params must not leak into another point."""
    series = figure_series("fig4", SCALED)
    a, b = series.configs[0].config, series.configs[1].config
    assert a.synthetic is not b.synthetic
    assert a.system is not b.system or a.system == b.system


def test_figure_configs_repr_pin():
    text = "".join(
        repr(figure_series(figure, profile))
        for figure in list_figures()
        for profile in (SCALED, PAPER)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == FIGURE_REPR_SHA256
