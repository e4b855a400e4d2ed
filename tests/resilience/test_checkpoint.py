"""Checkpoint capture, atomic persistence, validation, and restore."""

import json
import os

import pytest

from repro.metrics.collector import SOLVER_WALL_TIME_KEYS
from repro.resilience.chaos import default_chaos_config, escalation_ladder
from repro.resilience.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointMismatch,
    capture_snapshot,
    config_fingerprint,
    list_checkpoints,
    load_snapshot,
    restore_run,
    run_with_checkpoints,
    validate_snapshot,
    write_snapshot,
)
from repro.experiments.runner import build_live_run


def _config(**kw):
    return default_chaos_config(**kw)


def test_checkpoint_config_requires_a_cadence():
    with pytest.raises(TypeError):
        CheckpointConfig()
    with pytest.raises(ValueError, match="every_events"):
        CheckpointConfig(every_events=0)


@pytest.mark.parametrize("keep", [0, -1])
def test_keep_below_one_is_rejected(keep):
    """``keep`` counts the newest snapshots left on disk: 0 or less used to
    delete every one, leaving a kill drill nothing to restore from."""
    with pytest.raises(ValueError, match="keep"):
        CheckpointConfig(every_events=20, keep=keep)
    assert CheckpointConfig(every_events=20, keep=None).keep is None


def test_capture_snapshot_shape_and_fingerprint():
    config = _config()
    run = build_live_run(config, 0)
    for _ in range(10):
        assert run.sim.step()
    snap = capture_snapshot(run)
    validate_snapshot(snap)  # must not raise
    assert snap["schema"] == "repro-ckpt/2"
    assert snap["fingerprint"] == config_fingerprint(config, 0)
    assert snap["position"]["events_dispatched"] == 10
    assert snap["deterministic"] is True
    # Canonical JSON: a serialisation round trip is the identity.
    assert json.loads(json.dumps(snap, sort_keys=True)) == snap


def test_write_load_list_and_prune(tmp_path):
    config = _config()
    out = str(tmp_path / "ckpts")
    ckpt = CheckpointConfig(every_events=10, out_dir=out, keep=2)
    run = run_with_checkpoints(config, ckpt)
    assert run.metrics is not None  # drained normally
    assert len(run.snapshots) >= 3
    on_disk = list_checkpoints(out)
    assert len(on_disk) == 2  # keep=2 pruned the older files
    newest = load_snapshot(on_disk[-1])
    assert newest == run.snapshots[-1]
    # No temp droppings from the atomic writes.
    assert not [p for p in os.listdir(out) if ".tmp" in p]


def test_validate_rejects_wrong_schema_and_missing_keys():
    config = _config()
    run = build_live_run(config, 0)
    run.sim.step()
    snap = capture_snapshot(run)
    bad_schema = dict(snap, schema="repro-ckpt/999")
    with pytest.raises(CheckpointError, match="schema"):
        validate_snapshot(bad_schema)
    missing = {k: v for k, v in snap.items() if k != "position"}
    with pytest.raises(CheckpointError, match="position"):
        validate_snapshot(missing)


def test_previous_schema_is_refused_before_any_replay():
    config = _config()
    run = build_live_run(config, 0)
    run.sim.step()
    old = dict(capture_snapshot(run), schema="repro-ckpt/1")
    # /1 stored the executor as history-long plan/started maps; a clean
    # refusal naming both schemas, not a replay CheckpointMismatch.
    for refuse in (validate_snapshot, lambda s: restore_run(config, s)):
        with pytest.raises(
            CheckpointError, match="repro-ckpt/1.*repro-ckpt/2"
        ) as exc:
            refuse(old)
        assert not isinstance(exc.value, CheckpointMismatch)


def test_restore_refuses_a_foreign_config():
    config = _config()
    run = build_live_run(config, 0)
    for _ in range(10):
        run.sim.step()
    snap = capture_snapshot(run)
    other = _config(seed=123)
    with pytest.raises(CheckpointMismatch, match="fingerprint"):
        restore_run(other, snap)


def test_restore_refuses_a_wrong_replication():
    config = _config()
    run = build_live_run(config, 0)
    for _ in range(10):
        run.sim.step()
    snap = capture_snapshot(run)
    with pytest.raises(CheckpointMismatch, match="replication"):
        restore_run(config, snap, replication=1)


def test_kill_and_restore_matches_uninterrupted_run(tmp_path):
    """The tentpole contract: killed at a checkpoint boundary + restored
    == never killed, down to the deterministic metric surface."""
    config = _config()
    reference = build_live_run(config, 0)
    ref_metrics = reference.finish()

    out = str(tmp_path / "ckpts")
    killed = run_with_checkpoints(
        config,
        CheckpointConfig(every_events=20, out_dir=out),
        kill_after_checkpoints=2,
    )
    assert killed.killed
    restored = restore_run(config, killed.paths[-1])
    assert restored.as_dict() == ref_metrics.as_dict()
    assert restored.jobs_completed == ref_metrics.jobs_completed


def test_restore_from_in_memory_snapshot_dict():
    config = _config()
    killed = run_with_checkpoints(
        config, CheckpointConfig(every_events=20), kill_after_checkpoints=1
    )
    assert killed.killed and not killed.paths  # nothing persisted
    restored = restore_run(config, killed.snapshots[-1])
    reference = build_live_run(config, 0).finish()
    assert restored.as_dict() == reference.as_dict()


def _without_wall_times(metrics):
    d = metrics.as_dict(verbose=True)
    return {k: v for k, v in d.items() if k not in SOLVER_WALL_TIME_KEYS}


def test_reused_config_replays_identically():
    """A config is a value: one config object run twice, with no reset in
    between, gives the same run.  The pinned clock's sample count and the
    ladder's injected-failure count are run state, not config state."""
    config = default_chaos_config(
        seed=0, num_jobs=16, faults=False, ladder=escalation_ladder()
    )
    first, second = (build_live_run(config, 0).finish() for _ in range(2))
    assert first.breaker_opens > 0  # the injected failures did fire
    assert _without_wall_times(first) == _without_wall_times(second)

    pinned = _config()  # deterministic_run_config applied
    ckpt = CheckpointConfig(every_events=20)
    snapshots = [run_with_checkpoints(pinned, ckpt).snapshots for _ in range(2)]
    assert snapshots[0] and snapshots[0] == snapshots[1]


def test_compare_states_mismatch_renders_paths_with_both_values():
    """A replay fork names the divergent paths and shows both sides."""
    from repro.resilience.checkpoint import _compare_states

    expected = {
        "position": {"events_dispatched": 40, "sim_now": 8.0, "seq": 41},
        "state": {"jobs": {"1": {"phase": "MAP"}}, "clock": 3},
    }
    replayed = {
        "position": dict(expected["position"]),
        "state": {"jobs": {"1": {"phase": "REDUCE"}}, "clock": 5},
    }
    with pytest.raises(CheckpointMismatch) as exc:
        _compare_states(expected, replayed)
    message = str(exc.value)
    assert "state diverged" in message and "2 path(s)" in message
    assert "jobs.1.phase: snapshot='MAP' replay='REDUCE'" in message
    assert "clock: snapshot=3 replay=5" in message


def test_compare_states_mismatch_elides_past_the_path_budget():
    from repro.resilience.checkpoint import (
        _MISMATCH_PATHS_SHOWN,
        _compare_states,
    )

    n = _MISMATCH_PATHS_SHOWN + 4
    expected = {"position": {}, "state": {str(i): i for i in range(n)}}
    replayed = {"position": {}, "state": {str(i): -i - 1 for i in range(n)}}
    with pytest.raises(CheckpointMismatch, match=r"\(\+4 more\)"):
        _compare_states(expected, replayed)
