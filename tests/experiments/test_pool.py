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
    cell_seed,
    deterministic_solver_params,
    execute_cell,
    merge_outcomes,
    run_sweep,
    stable_hash,
    workload_key,
)
from repro.experiments.runner import RunConfig, SystemConfig
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


def test_stable_hash_is_process_independent():
    # sha256-backed: these values must never change across runs/machines.
    assert stable_hash("") == 7183457195969485844
    assert stable_hash("0|synthetic:x|0") == stable_hash("0|synthetic:x|0")
    assert stable_hash("a") != stable_hash("b")


def test_cell_seed_depends_on_coordinates_only():
    cfg = _config()
    assert cell_seed(0, cfg, 0) == cell_seed(0, cfg, 0)
    assert cell_seed(0, cfg, 0) != cell_seed(0, cfg, 1)
    assert cell_seed(0, cfg, 0) != cell_seed(1, cfg, 0)
    different_wl = _config(arrival_rate=0.9)
    assert cell_seed(0, cfg, 0) != cell_seed(0, different_wl, 0)


def test_cell_seed_ignores_scheduler_and_solver_knobs():
    # Paired comparisons (mrcp-rm vs minedf-wc over one workload) must face
    # the identical job stream, so the seed ignores non-workload knobs.
    a, b = _config("mrcp-rm"), _config("minedf-wc")
    b.mrcp.solver.time_limit = 99.0
    assert workload_key(a) == workload_key(b)
    assert cell_seed(7, a, 1) == cell_seed(7, b, 1)


def test_workload_key_substitutes_system_slots():
    small = _config()
    big = _config()
    big.system = SystemConfig(num_resources=8, map_slots=2, reduce_slots=2)
    assert workload_key(small) != workload_key(big)


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
    bad.faults = FaultModel(task_failure_prob=0.5, seed=1)
    spec.configs[1] = LabeledConfig(
        label="bad", factor_value=1.0, scheduler="minedf-wc", config=bad
    )
    result = run_sweep(spec, workers=1, retries=2)
    assert len(result.ok_cells) == 1
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


@pytest.mark.parametrize("reader", ["resume", "report"])
def test_non_object_json_reads_as_unreadable(tmp_path, reader):
    """Valid JSON that is not an object is treated like an unreadable file:
    resume re-executes the cell, and the report skips its strip."""
    from repro.experiments.pool import build_sweep_report

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
    from repro.experiments.pool import build_sweep_report

    spec = _spec(replications=1, capture=True)
    result = run_sweep(spec, workers=1, out_dir=str(tmp_path))
    path = build_sweep_report(result, spec, str(tmp_path))
    html = open(path, encoding="utf-8").read()
    assert html.startswith("<!DOCTYPE html>")
    assert "Sweep summary" in html
    assert "Per-cell utilization" in html
    assert "<script" not in html  # self-contained, no JS
    assert os.path.basename(path) == "sweep.html"
