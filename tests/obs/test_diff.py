"""Run-diff engine: pure units (no simulation runs; see the integration
suite for the end-to-end capture/diff/bisect acceptance tests)."""

import json

import pytest

from repro.obs.diff import (
    align_events,
    canonicalize_events,
    delta_waterfalls,
    diff_series,
    diff_sweeps,
    first_divergent_plan,
    metrics_delta,
)
from repro.obs.trace import SIM_PID, WALL_PID

_US = 1_000_000


def _sim_event(name, t, **args):
    return {
        "name": name, "ph": "i", "s": "g", "pid": SIM_PID, "tid": 0,
        "ts": int(t * _US), "args": args,
    }


def _wall_event(name, ts, **args):
    return {
        "name": name, "ph": "X", "pid": WALL_PID, "tid": 0,
        "ts": ts, "dur": 7, "args": args,
    }


# ----------------------------------------------------------- canonicalize


def test_canonicalize_keeps_sim_timestamps_drops_wall_ones():
    canon, times = canonicalize_events(
        [_sim_event("task.start", 5.0, job=1), _wall_event("solve", 123)]
    )
    assert canon[0]["ts"] == 5 * _US
    assert "ts" not in canon[1] and "dur" not in canon[1]
    assert times == [5.0, None]


def test_canonicalize_drops_metadata_and_snapshot_lines():
    canon, _ = canonicalize_events(
        [
            {"name": "process_name", "ph": "M", "pid": 1, "args": {}},
            {"name": "metrics.snapshot", "counters": {}},
            _sim_event("keep", 1.0),
        ]
    )
    assert [e["name"] for e in canon] == ["keep"]


def test_canonicalize_quarantines_wall_args_but_keeps_the_rest():
    canon, _ = canonicalize_events(
        [_wall_event("scheduler.invocation", 9, overhead=0.123, trigger="arrival")]
    )
    assert canon[0]["args"] == {"trigger": "arrival"}


def test_canonicalize_reads_sim_time_from_wall_event_args():
    _, times = canonicalize_events(
        [_wall_event("scheduler.invocation", 5, sim_time=42.0)]
    )
    assert times == [42.0]


# ------------------------------------------------------------------ align


def test_align_identical_streams_has_no_divergence():
    events = [_sim_event("a", 1.0), _sim_event("b", 2.0)]
    alignment = align_events(events, list(events))
    assert alignment.identical
    assert alignment.first_divergence is None
    assert alignment.matched == 2 and alignment.only_a == 0


def test_align_wall_jitter_is_not_divergence():
    a = [_wall_event("solve", 100, trigger="arrival"), _sim_event("x", 1.0)]
    b = [_wall_event("solve", 999, trigger="arrival"), _sim_event("x", 1.0)]
    assert align_events(a, b).identical


def test_align_localises_first_divergent_event():
    a = [_sim_event("a", 1.0), _sim_event("b", 2.0), _sim_event("c", 3.0)]
    b = [_sim_event("a", 1.0), _sim_event("B", 2.5), _sim_event("c", 3.0)]
    alignment = align_events(a, b)
    fd = alignment.first_divergence
    assert fd["index"] == 1
    assert fd["sim_time"] == 2.0  # min of the two diverging instants
    assert fd["a"]["name"] == "b" and fd["b"]["name"] == "B"
    assert alignment.matched == 2  # a and c still align across the fork


def test_align_prefix_stream_diverges_at_the_truncation():
    a = [_sim_event("a", 1.0), _sim_event("b", 2.0)]
    alignment = align_events(a, a[:1])
    fd = alignment.first_divergence
    assert fd["index"] == 1 and fd["b"] is None
    assert fd["sim_time"] == 2.0


def test_align_reports_conformance_problems_per_side():
    bad = [{"name": "x", "ph": "X", "pid": SIM_PID, "ts": 0}]  # no dur
    problems = align_events(bad, []).problems
    assert any(p.startswith("a:") for p in problems)


# ------------------------------------------------------------- waterfalls


def _row(job_id, tardiness, contention=0, solver=0, fault=0, residual=None):
    if residual is None:
        residual = tardiness - contention - solver - fault
    return {
        "job_id": job_id,
        "tardiness_us": tardiness,
        "contention_us": contention,
        "solver_us": solver,
        "fault_us": fault,
        "residual_us": residual,
    }


def test_delta_waterfalls_sum_exactly_to_the_tardiness_delta():
    a = [_row(1, 10 * _US, contention=4 * _US), _row(2, 5 * _US)]
    b = [_row(1, 17 * _US, contention=9 * _US), _row(2, 5 * _US)]
    [entry] = delta_waterfalls(a, b)  # job 2 unchanged -> omitted
    assert entry["job_id"] == 1
    assert entry["delta_us"] == 7 * _US
    assert sum(entry["components_us"].values()) == entry["delta_us"]
    assert entry["components_us"]["contention"] == 5 * _US
    assert entry["direction"] == "later"


def test_delta_waterfalls_appeared_and_disappeared_jobs():
    entries = delta_waterfalls([_row(1, 3 * _US)], [_row(2, 4 * _US)])
    by_id = {e["job_id"]: e for e in entries}
    assert by_id[1]["direction"] == "disappeared"
    assert by_id[1]["delta_us"] == -3 * _US
    assert by_id[2]["direction"] == "appeared"
    assert by_id[2]["delta_us"] == 4 * _US
    for e in entries:
        assert sum(e["components_us"].values()) == e["delta_us"]


def test_delta_waterfalls_shifted_composition_same_total():
    a = [_row(1, 10 * _US, contention=8 * _US)]
    b = [_row(1, 10 * _US, solver=8 * _US)]
    [entry] = delta_waterfalls(a, b)
    assert entry["delta_us"] == 0 and entry["direction"] == "shifted"
    assert entry["components_us"]["contention"] == -8 * _US
    assert entry["components_us"]["solver"] == 8 * _US


# ----------------------------------------------------------------- series


def test_diff_series_aligns_by_sim_time_and_finds_first_divergence():
    a = [
        {"sim_time": 0.0, "N": 0, "probes": {"q": 1.0}},
        {"sim_time": 5.0, "N": 1, "probes": {"q": 2.0}},
        {"sim_time": 10.0, "N": 1, "probes": {"q": 2.0}},
    ]
    b = [
        {"sim_time": 0.0, "N": 0, "probes": {"q": 1.0}},
        {"sim_time": 5.0, "N": 2, "probes": {"q": 5.0}},
    ]
    result = diff_series(a, b)
    assert result["aligned"] == 2 and result["only_a"] == 1
    assert result["changed"]["N"]["first_divergence_t"] == 5.0
    assert result["changed"]["probes.q"]["max_abs_delta"] == 3.0
    assert [p[0] for p in result["overlays"]["N"]] == [0.0, 5.0]


def test_diff_series_identical_reports_nothing_changed():
    samples = [{"sim_time": 0.0, "N": 0}, {"sim_time": 5.0, "N": 2}]
    result = diff_series(samples, list(samples))
    assert result["changed"] == {} and result["overlays"] == {}


# ---------------------------------------------------------------- metrics


def test_metrics_delta_union_and_missing_sides():
    out = metrics_delta({"O": 1.0, "N": 2.0}, {"N": 3.0, "T": 9.0})
    assert out["N"] == {"a": 2.0, "b": 3.0, "delta": 1.0}
    assert out["O"]["b"] is None and out["O"]["delta"] is None
    assert out["T"]["a"] is None


# ------------------------------------------------------------------ plans


def _plan(t, outcome="feasible", overhead=0.1, trigger="arrival",
          rung="cp_full", starts=None):
    return {
        "t": t, "outcome": outcome, "overhead": overhead,
        "trigger": trigger, "rung": rung,
        "planned_starts": starts or {"1": t + 1.0},
    }


def test_first_divergent_plan_ignores_overhead_jitter():
    a = [_plan(0.0, overhead=0.10), _plan(5.0, overhead=0.20)]
    b = [_plan(0.0, overhead=0.11), _plan(5.0, overhead=0.19)]
    assert first_divergent_plan(a, b) is None


def test_first_divergent_plan_pins_index_and_sim_time():
    a = [_plan(0.0), _plan(5.0, starts={"1": 6.0}), _plan(9.0)]
    b = [_plan(0.0), _plan(5.0, starts={"1": 7.5}), _plan(9.0)]
    hit = first_divergent_plan(a, b)
    assert hit["index"] == 1 and hit["sim_time"] == 5.0
    assert hit["changed"][0]["path"] == "planned_starts.1"


def test_first_divergent_plan_rung_change_is_divergence():
    a = [_plan(0.0, rung="cp_full")]
    b = [_plan(0.0, rung="greedy")]
    assert first_divergent_plan(a, b)["changed"][0]["path"] == "rung"


def test_first_divergent_plan_length_mismatch():
    a = [_plan(0.0)]
    b = [_plan(0.0), _plan(4.0)]
    hit = first_divergent_plan(a, b)
    assert hit["index"] == 1 and hit["sim_time"] == 4.0
    assert hit["a"] is None and hit["changed"][0]["kind"] == "length"


# ------------------------------------------------------------------ sweeps


def _sweep_doc(n_cells, metrics_of=None):
    metrics_of = metrics_of or {}
    return {
        "schema": "repro-sweep/1",
        "sweep": {"name": "fig7"},
        "cells": [
            {
                "index": i,
                "label": f"cell{i}",
                "replication": 0,
                "seed": i,
                "status": "ok",
                "metrics": metrics_of.get(i, {"N": 1.0}),
                "counts": {"jobs": 4},
            }
            for i in range(n_cells)
        ],
        "summary": {"cfg": {"N": 1.0}},
    }


def test_diff_sweeps_identical(tmp_path):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(_sweep_doc(3)))
    pb.write_text(json.dumps(_sweep_doc(3)))
    doc = diff_sweeps(str(pa), str(pb))
    assert doc["verdict"] == "identical"
    assert doc["cells_divergent"] == 0 and doc["cells_total"] == 3
    assert all(c["verdict"] == "identical" for c in doc["cells"])


def test_diff_sweeps_per_cell_verdicts_and_unpaired(tmp_path):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(_sweep_doc(3)))
    pb.write_text(json.dumps(_sweep_doc(2, metrics_of={1: {"N": 2.0}})))
    doc = diff_sweeps(str(pa), str(pb))
    assert doc["verdict"] == "divergent"
    verdicts = {c["index"]: c["verdict"] for c in doc["cells"]}
    assert verdicts == {0: "identical", 1: "divergent", 2: "only_in_a"}
    changed = {c["index"]: c["changed"] for c in doc["cells"]}
    assert changed[1][0]["path"] == "metrics.N"
    assert doc["cells_divergent"] == 2


def test_diff_sweeps_rejects_wrong_schema(tmp_path):
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps({"schema": "other/1"}))
    with pytest.raises(ValueError, match="schema"):
        diff_sweeps(str(pa), str(pa))
