"""Byte pins on what the seeded random streams produce.

Each pin is a sha256 prefix of a canonical JSON rendering of one generator's
output: the Table 3 job list of the ``open_steady`` perf workload, both
Facebook job-type paths (exact-mix permutation and weighted choice), a DAG
workflow workload, the ``svc_quote_stream`` request stream and the fault
injector's stream states after a seeded run with faults on.  Together they
cover every distribution in :mod:`repro.sim.rng`, and they need nothing
beyond the package itself, so they guard the streams on a clean install.

The pins were taken from the numpy-backed streams; the pure-Python
generator reproduces them bit for bit.  Set iteration order must not leak
into any draw, so the digests are also recomputed under two other hash
seeds in fresh interpreters.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.mrcp_rm import MrcpRm, MrcpRmConfig
from repro.faults.model import FaultModel
from repro.service.loadgen import LoadProfile, generate_request_stream
from repro.sim import Simulator
from repro.workload.entities import make_uniform_cluster
from repro.workload.facebook import FacebookWorkloadParams, generate_facebook_workload
from repro.workload.synthetic import (
    SyntheticWorkloadParams,
    generate_synthetic_workload,
)
from repro.workload.workflows import WorkflowWorkloadParams, generate_workflow_workload

PINS = {
    "open_steady_jobs": "008820cf7ab40cfed7aa160570dd0e25",
    "facebook_exact_mix": "fecabf81e845a4eb5cc4a0aaf9a6a60d",
    "facebook_choice": "22af1e3d83a75b915ff066df3b849dee",
    "workflow_dag": "9db284d3f74747c9f2383d882643b551",
    "svc_quote_stream": "d217f5f333a5f5e638209c7eb62899c3",
    "fault_rng_state": "d47e7a2c92eb2cd53642e67ee4a4f263",
}


def _task(t):
    return [t.id, t.kind.value, t.duration, t.demand]


def _job(job):
    return [
        job.id,
        job.arrival_time,
        job.earliest_start,
        job.deadline,
        [_task(t) for t in job.map_tasks],
        [_task(t) for t in job.reduce_tasks],
    ]


def _workflow(job):
    return [
        job.id,
        job.arrival_time,
        job.earliest_start,
        job.deadline,
        [[s.name, [_task(t) for t in s.tasks]] for s in job.stages],
        [list(e) for e in job.edges],
        sorted([list(e), d] for e, d in job.edge_delays.items()),
    ]


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _open_steady():
    # Table 3 at the scaled profile of the perf workload, seed 1.
    params = SyntheticWorkloadParams(
        num_jobs=1500,
        map_tasks_range=(1, 20),
        reduce_tasks_range=(1, 20),
        e_max=50,
        ar_probability=0.5,
        s_max=10_000,
        deadline_multiplier_max=5.0,
        arrival_rate=0.01,
    )
    return [_job(j) for j in generate_synthetic_workload(params, seed=1)]


def _facebook(exact_mix: bool):
    params = FacebookWorkloadParams(
        num_jobs=200, arrival_rate=0.01, scale=0.05, exact_mix=exact_mix
    )
    return [_job(j) for j in generate_facebook_workload(params, seed=4)]


def _workflows():
    params = WorkflowWorkloadParams(num_jobs=150, transfer_delay_range=(0, 6))
    return [_workflow(j) for j in generate_workflow_workload(params, seed=2)]


def _quote_stream():
    profile = LoadProfile(
        requests=800,
        seed=11,
        arrival_rate=0.6,
        map_tasks_range=(1, 10),
        reduce_tasks_range=(1, 5),
        deadline_multiplier_max=3.0,
        ar_probability=0.5,
        s_max=600,
    )
    return [
        [arrival, spec.as_dict()]
        for arrival, spec in generate_request_stream(profile, (100, 100))
    ]


def _fault_rng_state():
    params = SyntheticWorkloadParams(
        num_jobs=25,
        map_tasks_range=(1, 6),
        reduce_tasks_range=(1, 3),
        e_max=10,
        ar_probability=0.3,
        s_max=100,
        deadline_multiplier_max=3.0,
        arrival_rate=0.05,
        total_map_slots=8,
        total_reduce_slots=8,
    )
    faults = FaultModel(
        task_failure_prob=0.1,
        straggler_prob=0.2,
        jitter_sigma=0.3,
        outage_rate=0.002,
        outage_duration_range=(5.0, 30.0),
        outage_horizon=400.0,
        seed=5,
    )
    sim = Simulator()
    manager = MrcpRm(sim, make_uniform_cluster(4, 2, 2), MrcpRmConfig(faults=faults))
    for job in generate_synthetic_workload(params, seed=5):
        sim.schedule_at(job.arrival_time, lambda j=job: manager.submit(j))
    sim.run()
    return manager.fault_injector.rng_state()


BUILDERS = {
    "open_steady_jobs": _open_steady,
    "facebook_exact_mix": lambda: _facebook(True),
    "facebook_choice": lambda: _facebook(False),
    "workflow_dag": _workflows,
    "svc_quote_stream": _quote_stream,
    "fault_rng_state": _fault_rng_state,
}


def digests() -> dict:
    """Every pinned output's digest, by pin name."""
    return {name: _sha(build()) for name, build in BUILDERS.items()}


@pytest.mark.parametrize("name", sorted(PINS))
def test_stream_output_is_pinned(name):
    assert _sha(BUILDERS[name]()) == PINS[name]


@pytest.mark.parametrize("hash_seed", ["1", "7"])
def test_pins_do_not_depend_on_the_hash_seed(hash_seed):
    root = Path(__file__).resolve().parents[2]
    probe = (
        "import json; from tests.sim.test_rng_pins import digests; "
        "print(json.dumps(digests()))"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert json.loads(out.stdout) == PINS
