"""Sweep engine across real worker processes: identity and crash isolation.

The determinism contract (docs/SWEEPS.md): ``run_sweep(spec, workers=N)``
must produce byte-identical merged artifacts for every N, and a worker that
raises -- or dies outright -- must fail only its own cell while the sweep
runs to completion.
"""

import json
import os

from repro.experiments.configs import LabeledConfig
from repro.experiments.pool import (
    SweepSpec,
    execute_cell,
    run_sweep,
)
from repro.experiments.runner import RunConfig, SystemConfig, run_once
from repro.workload import SyntheticWorkloadParams


def _config(arrival_rate=0.05):
    return RunConfig(
        scheduler="mrcp-rm",
        workload="synthetic",
        synthetic=SyntheticWorkloadParams(
            num_jobs=4,
            map_tasks_range=(1, 3),
            reduce_tasks_range=(1, 2),
            e_max=8,
            ar_probability=0.2,
            s_max=50,
            deadline_multiplier_max=3.0,
            arrival_rate=arrival_rate,
        ),
        system=SystemConfig(num_resources=2, map_slots=2, reduce_slots=2),
    )


def _spec(replications=2):
    return SweepSpec(
        name="integration",
        configs=[
            LabeledConfig("lo", 0.04, "mrcp-rm", _config(0.04)),
            LabeledConfig("hi", 0.08, "mrcp-rm", _config(0.08)),
        ],
        factor="arrival_rate",
        replications=replications,
        root_seed=9,
    )


# Pool runners must be module-level (picklable by reference).
def _raise_on_hi_rep0(job):
    if job.cell.label == "hi" and job.cell.replication == 0:
        raise RuntimeError("injected worker failure")
    return execute_cell(job)


def _die_on_hi_rep0(job):
    if job.cell.label == "hi" and job.cell.replication == 0:
        os._exit(13)  # hard death: breaks the whole process pool
    return execute_cell(job)


def test_parallel_output_byte_identical_to_sequential(tmp_path):
    spec = _spec()
    seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
    seq = run_sweep(spec, workers=1, out_dir=str(seq_dir))
    par = run_sweep(spec, workers=4, out_dir=str(par_dir))
    assert not seq.failed_cells and not par.failed_cells
    for name in ("sweep.json", "sweep.csv"):
        seq_bytes = (seq_dir / name).read_bytes()
        par_bytes = (par_dir / name).read_bytes()
        assert seq_bytes == par_bytes, f"{name} differs between worker counts"
    assert seq.to_json() == par.to_json()


def test_lns_on_sweep_byte_identical_across_worker_counts(tmp_path):
    """Deterministic mode keeps LNS on, and LNS repeats in any worker."""
    config = RunConfig(
        scheduler="mrcp-rm",
        workload="synthetic",
        synthetic=SyntheticWorkloadParams(
            num_jobs=6,
            map_tasks_range=(1, 10),
            reduce_tasks_range=(1, 5),
            e_max=20,
            ar_probability=0.0,
            deadline_multiplier_max=1.5,
            arrival_rate=0.2,
        ),
        system=SystemConfig(num_resources=3),
    )
    assert config.mrcp.solver.use_lns
    spec = SweepSpec(
        name="lns-on",
        configs=[LabeledConfig("lns=on", 1.0, "mrcp-rm", config)],
        factor="lns",
        replications=2,
        root_seed=2,
    )
    for cell in spec.cells():
        assert cell.config.mrcp.solver.use_lns
        assert run_once(cell.config).solver_lns_iterations > 0
    one_dir, two_dir = tmp_path / "one", tmp_path / "two"
    one = run_sweep(spec, workers=1, out_dir=str(one_dir))
    two = run_sweep(spec, workers=2, out_dir=str(two_dir))
    assert not one.failed_cells and not two.failed_cells
    for name in ("sweep.json", "sweep.csv"):
        assert (one_dir / name).read_bytes() == (two_dir / name).read_bytes()


def test_worker_raise_fails_only_its_cell():
    result = run_sweep(_spec(), workers=2, retries=1, runner=_raise_on_hi_rep0)
    assert len(result.outcomes) == 4
    (failed,) = result.failed_cells
    assert (failed.label, failed.replication) == ("hi", 0)
    assert failed.attempts == 2  # retries + 1
    assert "injected worker failure" in failed.error
    assert len(result.ok_cells) == 3


def test_worker_death_fails_only_its_cell():
    result = run_sweep(_spec(), workers=2, retries=1, runner=_die_on_hi_rep0)
    assert len(result.outcomes) == 4
    # Only the dying cell fails; innocent in-flight cells are re-run in
    # quarantine pools and complete.
    (failed,) = result.failed_cells
    assert (failed.label, failed.replication) == ("hi", 0)
    assert "died" in failed.error
    assert failed.attempts == 2  # retries + 1
    assert len(result.ok_cells) == 3


def test_failed_cells_present_in_artifacts(tmp_path):
    result = run_sweep(
        _spec(),
        workers=2,
        retries=0,
        runner=_raise_on_hi_rep0,
        out_dir=str(tmp_path),
    )
    doc = json.load(open(tmp_path / "sweep.json"))
    statuses = {(c["label"], c["replication"]): c["status"] for c in doc["cells"]}
    assert statuses[("hi", 0)] == "failed"
    assert sum(1 for s in statuses.values() if s == "ok") == len(result.ok_cells)
    csv_text = (tmp_path / "sweep.csv").read_text()
    assert "failed" in csv_text


def test_resume_completes_a_partially_failed_sweep(tmp_path):
    # First pass: one cell fails. Second pass with the default runner and
    # --resume semantics re-runs only that cell and succeeds.
    first = run_sweep(
        _spec(),
        workers=2,
        retries=0,
        runner=_raise_on_hi_rep0,
        out_dir=str(tmp_path),
    )
    assert len(first.failed_cells) == 1
    second = run_sweep(_spec(), workers=2, out_dir=str(tmp_path), resume=True)
    assert not second.failed_cells
    # The healed sweep equals a clean sequential run byte-for-byte.
    clean = run_sweep(_spec(), workers=1)
    assert second.to_csv() == clean.to_csv()
