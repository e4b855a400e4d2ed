"""Parallel sweep engine: seeding, merging, retries, resume (unit level).

Process-pool integration (workers=4 byte-identity, worker crashes) lives in
``tests/integration/test_sweep_parallel.py``; everything here runs
in-process via ``workers=1`` or calls the pure helpers directly.
"""

import json
import os
import random
from dataclasses import replace

import pytest

from repro.experiments.configs import LabeledConfig
from repro.experiments.pool import (
    CellJob,
    CellOutcome,
    PinnedClock,
    SweepSpec,
    build_sweep_report,
    deterministic_run_config,
    deterministic_solver_params,
    execute_cell,
    merge_outcomes,
    run_sweep,
)
from repro.experiments.runner import (
    RunConfig,
    SystemConfig,
    replication_seed,
    run_once,
)
from repro.workload import SyntheticWorkloadParams


def _tiny_synthetic(**kw):
    params = dict(
        num_jobs=4,
        map_tasks_range=(1, 3),
        reduce_tasks_range=(1, 2),
        e_max=8,
        ar_probability=0.2,
        s_max=50,
        deadline_multiplier_max=3.0,
        arrival_rate=0.05,
    )
    params.update(kw)
    return SyntheticWorkloadParams(**params)


def _config(scheduler="mrcp-rm", **wl):
    return RunConfig(
        scheduler=scheduler,
        workload="synthetic",
        synthetic=_tiny_synthetic(**wl),
        system=SystemConfig(num_resources=2, map_slots=2, reduce_slots=2),
    )


def _spec(name="unit", labels=("a", "b"), replications=2, root_seed=0, **kw):
    configs = [
        LabeledConfig(
            label=label,
            factor_value=float(i),
            scheduler="mrcp-rm",
            config=_config(arrival_rate=0.05 + 0.01 * i),
        )
        for i, label in enumerate(labels)
    ]
    return SweepSpec(
        name=name,
        configs=configs,
        factor="arrival_rate",
        replications=replications,
        root_seed=root_seed,
        **kw,
    )


# ------------------------------------------------------------------ seeding


def test_a_cell_is_run_once_of_its_config_under_the_root_seed():
    """The one seeding rule: cell (label, rep) == run_once(root seed, rep)."""
    spec = _spec(root_seed=5)
    result = run_sweep(spec, workers=1)
    assert [(o.label, o.replication) for o in result.outcomes] == [
        ("a", 0), ("a", 1), ("b", 0), ("b", 1)
    ]
    by_label = {c.label: c.config for c in spec.configs}
    for outcome in result.outcomes:
        config = deterministic_run_config(replace(by_label[outcome.label], seed=5))
        metrics = run_once(config, outcome.replication)
        assert outcome.status == "ok"
        for m in ("N", "T", "P"):
            assert outcome.metrics[m] == metrics.as_dict()[m], (outcome.label, m)
        assert outcome.counts == {
            "jobs_arrived": metrics.jobs_arrived,
            "jobs_completed": metrics.jobs_completed,
            "jobs_failed": metrics.jobs_failed,
            "scheduler_invocations": metrics.scheduler_invocations,
            "makespan": metrics.makespan,
        }


def test_one_replication_carries_one_seed_across_points_and_schedulers():
    """Common random numbers: factor values and schedulers of one replication
    share a stream; different replications draw different ones."""
    spec = _spec(labels=("a", "b"), replications=3, root_seed=2)
    spec.configs.append(
        LabeledConfig(
            label="edf", factor_value=0.0, scheduler="edf", config=_config("edf")
        )
    )
    seeds = {}
    for cell in spec.cells():
        seeds.setdefault(cell.replication, set()).add(cell.seed)
    assert all(len(s) == 1 for s in seeds.values())
    assert len({s for (s,) in seeds.values()}) == 3


def test_spec_cells_are_deterministic_and_indexed():
    spec = _spec()
    cells_a, cells_b = spec.cells(), spec.cells()
    assert [c.seed for c in cells_a] == [c.seed for c in cells_b]
    assert [c.index for c in cells_a] == list(range(4))
    assert len({(c.label, c.replication) for c in cells_a}) == 4


def test_spec_rejects_duplicate_labels_and_bad_counts():
    spec = _spec(labels=("same", "same"))
    with pytest.raises(ValueError):
        spec.cells()
    with pytest.raises(ValueError):
        _spec(replications=0).cells()
    with pytest.raises(ValueError):
        SweepSpec(name="empty", configs=[]).cells()


def test_deterministic_solver_params_never_time_bound():
    params = deterministic_solver_params(_config().mrcp.solver)
    assert params.time_limit >= 1e6
    assert params.tree_fail_limit
    # LNS stops on counts, not the clock, so it may stay on either way.
    for use_lns in (True, False):
        given = replace(_config().mrcp.solver, use_lns=use_lns)
        assert deterministic_solver_params(given).use_lns is use_lns


def test_pinned_clock_is_deterministic_and_picklable():
    import pickle

    clock = PinnedClock(tick=0.5)
    assert [clock() for _ in range(3)] == [0.5, 1.0, 1.5]
    clone = pickle.loads(pickle.dumps(PinnedClock(tick=0.5)))
    assert clone() == 0.5


# ------------------------------------------------------------------ merging


def _fake_outcome(cell):
    return CellOutcome(
        index=cell.index,
        figure=cell.figure,
        label=cell.label,
        scheduler=cell.scheduler,
        factor_value=cell.factor_value,
        replication=cell.replication,
        seed=cell.seed,
        status="ok",
        attempts=1,
        metrics={"O": 0.001, "N": float(cell.index)},
    )


def test_merge_is_order_independent():
    cells = _spec().cells()
    outcomes = {c.index: _fake_outcome(c) for c in cells}
    shuffled = list(outcomes.items())
    random.Random(123).shuffle(shuffled)
    merged = merge_outcomes(cells, dict(shuffled))
    assert [o.index for o in merged] == [c.index for c in cells]
    assert merged == merge_outcomes(cells, outcomes)


def test_merge_rejects_incomplete_sweeps():
    cells = _spec().cells()
    outcomes = {c.index: _fake_outcome(c) for c in cells[:-1]}
    with pytest.raises(ValueError, match="incomplete"):
        merge_outcomes(cells, outcomes)


def test_csv_and_json_do_not_contain_wall_times(tmp_path):
    result = run_sweep(_spec(replications=1), workers=1, out_dir=str(tmp_path))
    assert result.wall > 0
    assert "wall" not in result.to_csv()
    assert "wall" not in json.dumps(result.to_json_dict())
    timing = json.load(open(tmp_path / "sweep.timing.json"))
    assert timing["wall"] > 0


# -------------------------------------------------------- execution & retry


def test_execute_cell_restarts_pinned_clock_per_attempt():
    spec = _spec(labels=("a",), replications=1)
    cell = spec.cells()[0]
    first = execute_cell(CellJob(cell=cell))
    second = execute_cell(CellJob(cell=cell, attempt=2))
    assert first.status == second.status == "ok"
    assert first.metrics == second.metrics


def test_failed_cell_marks_only_itself_and_exhausts_retries():
    spec = _spec(labels=("good", "bad"), replications=1)
    # An invalid config raises inside run_once (crash isolation path):
    # minedf-wc cannot run fault injection.
    from repro.faults import FaultModel

    bad = spec.configs[1].config
    bad.scheduler = "minedf-wc"
    bad.mrcp.faults = FaultModel(task_failure_prob=0.5, seed=1)
    spec.configs[1] = LabeledConfig(
        label="bad", factor_value=1.0, scheduler="minedf-wc", config=bad
    )
    result = run_sweep(spec, workers=1, retries=2)
    assert len(result.outcomes) - len(result.failed_cells) == 1
    (failed,) = result.failed_cells
    assert failed.label == "bad"
    assert failed.attempts == 3  # retries + 1
    assert "ValueError" in failed.error


def test_sequential_retry_preserves_determinism_of_ok_cells():
    spec = _spec(labels=("a",), replications=1)
    baseline = run_sweep(spec, workers=1).to_csv()
    again = run_sweep(spec, workers=1, retries=3).to_csv()
    assert baseline == again


# ----------------------------------------------------------------- resume


def test_resume_reuses_finished_cells(tmp_path):
    spec = _spec(replications=1)
    first = run_sweep(spec, workers=1, out_dir=str(tmp_path))
    assert all(o.status == "ok" for o in first.outcomes)

    calls = []

    def counting_runner(job):
        calls.append(job.cell.index)
        return execute_cell(job)

    resumed = run_sweep(
        spec,
        workers=1,
        out_dir=str(tmp_path),
        resume=True,
        runner=counting_runner,
    )
    assert calls == []  # every cell came from disk
    assert resumed.to_csv() == first.to_csv()
    assert resumed.to_json() == first.to_json()


def test_resume_ignores_foreign_or_failed_cell_files(tmp_path):
    spec = _spec(replications=1)
    run_sweep(spec, workers=1, out_dir=str(tmp_path))
    # Corrupt cell 0 (different seed = foreign sweep) and fail cell 1.
    p0 = tmp_path / "cells" / "cell-0000.json"
    payload = json.load(open(p0))
    payload["seed"] = payload["seed"] + 1
    json.dump(payload, open(p0, "w"))
    p1 = tmp_path / "cells" / "cell-0001.json"
    payload = json.load(open(p1))
    payload["status"] = "failed"
    json.dump(payload, open(p1, "w"))

    calls = []

    def counting_runner(job):
        calls.append(job.cell.index)
        return execute_cell(job)

    run_sweep(
        spec,
        workers=1,
        out_dir=str(tmp_path),
        resume=True,
        runner=counting_runner,
    )
    assert sorted(calls) == [0, 1]  # only the poisoned cells re-ran


def test_resume_reruns_cells_of_a_changed_configuration(tmp_path):
    """Seeds and labels do not see the configuration (a scaled and a paper
    sweep share both), so the cell file's config fingerprint must: resuming
    after a config field changed re-runs every cell."""
    spec = _spec(replications=2)
    run_sweep(spec, workers=1, out_dir=str(tmp_path))
    changed = replace(
        spec,
        configs=[
            replace(
                lc,
                config=replace(
                    lc.config, synthetic=replace(lc.config.synthetic, num_jobs=5)
                ),
            )
            for lc in spec.configs
        ],
    )
    assert [c.seed for c in changed.cells()] == [c.seed for c in spec.cells()]

    calls = []

    def counting_runner(job):
        calls.append(job.cell.index)
        return execute_cell(job)

    resumed = run_sweep(
        changed,
        workers=1,
        out_dir=str(tmp_path),
        resume=True,
        runner=counting_runner,
    )
    assert sorted(calls) == [0, 1, 2, 3]
    assert all(o.counts["jobs_arrived"] == 5 for o in resumed.outcomes)


@pytest.mark.parametrize("reader", ["resume", "report"])
def test_non_object_json_reads_as_unreadable(tmp_path, reader):
    """Valid JSON that is not an object is treated like an unreadable file:
    resume re-executes the cell, and the report skips its strip."""
    spec = _spec(replications=1, capture=True)
    result = run_sweep(spec, workers=1, out_dir=str(tmp_path))
    if reader == "resume":
        (tmp_path / "cells" / "cell-0000.json").write_text("[]")
        calls = []

        def counting_runner(job):
            calls.append(job.cell.index)
            return execute_cell(job)

        run_sweep(
            spec, workers=1, out_dir=str(tmp_path), resume=True, runner=counting_runner
        )
        assert calls == [0]
    else:
        (tmp_path / "cells" / "cell-0000.trace.json").write_text("[]")
        path = build_sweep_report(result, spec, str(tmp_path))
        html = open(path, encoding="utf-8").read()
        assert "cell 0:" not in html
        assert "cell 1:" in html


def test_capture_requires_out_dir():
    with pytest.raises(ValueError, match="out_dir"):
        run_sweep(_spec(capture=True), workers=1)


def test_capture_writes_per_cell_traces(tmp_path):
    spec = _spec(labels=("a",), replications=1, capture=True)
    run_sweep(spec, workers=1, out_dir=str(tmp_path))
    trace = json.load(open(tmp_path / "cells" / "cell-0000.trace.json"))
    assert trace["traceEvents"]


def test_run_sweep_validates_arguments():
    with pytest.raises(ValueError):
        run_sweep(_spec(), workers=0)
    with pytest.raises(ValueError):
        run_sweep(_spec(), retries=-1)


# ----------------------------------------------------------------- report


def test_build_sweep_report_renders_summary_and_strips(tmp_path):
    spec = _spec(replications=1, capture=True)
    result = run_sweep(spec, workers=1, out_dir=str(tmp_path))
    path = build_sweep_report(result, spec, str(tmp_path))
    html = open(path, encoding="utf-8").read()
    assert html.startswith("<!DOCTYPE html>")
    assert "Sweep summary" in html
    assert "Per-cell utilization" in html
    assert "<script" not in html  # self-contained, no JS
    assert os.path.basename(path) == "sweep.html"


def test_captured_replications_write_where_the_sweep_reads(tmp_path):
    """Every cell of a multi-replication captured, telemetry-on sweep leaves
    its trace and series at the cell's own path, and the report draws one
    strip per cell."""
    spec = _spec(replications=2, capture=True, telemetry=True)
    result = run_sweep(spec, workers=1, out_dir=str(tmp_path))
    cells = spec.cells()
    assert [c.replication for c in cells] == [0, 1, 0, 1]
    for cell in cells:
        stem = tmp_path / "cells" / f"cell-{cell.index:04d}"
        assert json.load(open(f"{stem}.trace.json"))["traceEvents"]
        assert os.path.getsize(f"{stem}.series.jsonl") > 0
    rows = [json.loads(line) for line in open(tmp_path / "sweep.series.jsonl")]
    assert all(row["series"] is not None for row in rows[1:])
    assert sorted(tmp_path.joinpath("cells").iterdir()) == sorted(
        tmp_path / "cells" / f"cell-{c.index:04d}{ext}"
        for c in cells
        for ext in (".json", ".trace.json", ".trace.jsonl", ".series.jsonl")
    )
    html = open(build_sweep_report(result, spec, str(tmp_path))).read()
    assert html.count("<svg") == len(cells)
    for cell in cells:
        seed = replication_seed(spec.root_seed, cell.replication)
        label = f"{cell.label} (rep {cell.replication}, seed {seed})"
        assert f"cell {cell.index}: {label}" in html
