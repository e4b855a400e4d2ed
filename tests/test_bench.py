"""Behaviour-pin harness: schema, determinism, exact comparison, CLI."""

import copy
import json
import re

import pytest

from repro.bench import (
    CASES,
    DEFAULT_BASELINE,
    SCHEMA,
    compare,
    load_result,
    main,
    run_suite,
    write_result,
)


@pytest.fixture(scope="module")
def suite_result():
    """One suite run shared across the module's tests."""
    return run_suite()


def test_result_schema(suite_result):
    assert suite_result["schema"] == SCHEMA
    assert set(suite_result["cases"]) == set(CASES)
    for case in suite_result["cases"].values():
        assert isinstance(case["metrics"], dict) and case["metrics"]
    env = suite_result["env"]
    assert "python" in env and "platform" in env


def test_cases_track_real_effort(suite_result):
    """The pinned cases must exercise the solver, not trivially pass."""
    solve = suite_result["cases"]["solver_micro_solve"]["metrics"]
    assert solve["fails"] > 0 and solve["branches"] > 0
    lns = suite_result["cases"]["solver_micro_lns"]["metrics"]
    assert set(lns) == {
        "warm_objective",
        "objective",
        "iterations",
        "fails",
        "branches",
    }
    assert lns["objective"] < lns["warm_objective"]
    assert lns["iterations"] > 1 and lns["fails"] > 0 and lns["branches"] > 0
    assert suite_result["cases"]["fig7_small"]["metrics"]["N"] > 0


def test_self_compare_passes(suite_result):
    assert compare(suite_result, suite_result) == []


def test_metric_drift_detected(suite_result):
    drifted = copy.deepcopy(suite_result)
    drifted["cases"]["solver_micro_solve"]["metrics"]["objective"] += 1
    failures = compare(drifted, suite_result)
    assert any("objective" in f and "changed" in f for f in failures)


def test_missing_case_detected(suite_result):
    partial = copy.deepcopy(suite_result)
    del partial["cases"]["fig2_small"]
    failures = compare(partial, suite_result)
    assert any("missing" in f for f in failures)


def test_schema_mismatch_detected(suite_result):
    alien = dict(suite_result, schema="other/9")
    failures = compare(alien, suite_result)
    assert failures and "schema mismatch" in failures[0]


def test_schema_one_document_refused(suite_result):
    """A pre-PR-23 baseline (timings inside) is refused, not half-read."""
    old = dict(suite_result, schema="repro-bench/1")
    for doc_pair in ((suite_result, old), (old, suite_result)):
        [failure] = compare(*doc_pair)
        assert "schema mismatch" in failure and "repro-bench/1" in failure


def test_committed_baseline_matches_current_behaviour(suite_result):
    """The pinned metrics must equal the committed BENCH_core.json."""
    assert compare(suite_result, load_result(DEFAULT_BASELINE)) == []


def _all_keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _all_keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _all_keys(value)


def test_committed_baseline_holds_no_timing():
    """Speed is perf/'s question: the baseline carries pins only."""
    baseline = load_result(DEFAULT_BASELINE)
    assert baseline["schema"] == SCHEMA == "repro-bench/2"
    assert set(baseline) == {"schema", "suite", "env", "cases"}
    assert set(baseline["cases"]) == set(CASES)
    assert all(set(case) == {"metrics"} for case in baseline["cases"].values())
    timing = re.compile("wall|time|calibration|rounds|smoke")
    assert [key for key in _all_keys(baseline) if timing.search(key)] == []


def test_nondeterministic_case_raises(monkeypatch):
    """A case whose second run disagrees with its first is an error."""
    runs = iter(({"n": 1}, {"n": 2}))
    monkeypatch.setattr("repro.bench.CASES", {"flaky": lambda: next(runs)})
    with pytest.raises(RuntimeError, match="'flaky' is nondeterministic"):
        run_suite()


def test_cli_replay_roundtrip(tmp_path, capsys):
    """`--replay` compares a written result without re-running the suite."""
    baseline = tmp_path / "baseline.json"
    result = load_result(DEFAULT_BASELINE)
    write_result(str(baseline), result)
    replay = tmp_path / "current.json"
    write_result(str(replay), result)
    assert main(["--replay", str(replay), "--baseline", str(baseline)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_missing_baseline(tmp_path, capsys):
    replay = tmp_path / "current.json"
    write_result(str(replay), load_result(DEFAULT_BASELINE))
    missing = tmp_path / "nope.json"
    assert main(["--replay", str(replay), "--baseline", str(missing)]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_update_writes_valid_json(tmp_path, suite_result, monkeypatch):
    """`--update` writes a loadable, schema-correct baseline file."""
    out = tmp_path / "BENCH_new.json"
    write_result(str(out), suite_result)
    loaded = json.loads(out.read_text())
    assert loaded["schema"] == SCHEMA
    assert compare(loaded, suite_result) == []


def test_cli_failure_names_case(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    result = load_result(DEFAULT_BASELINE)
    write_result(str(baseline), result)
    drifted = copy.deepcopy(result)
    case = next(iter(CASES))
    metric = next(iter(drifted["cases"][case]["metrics"]))
    drifted["cases"][case]["metrics"][metric] += 5
    replay = tmp_path / "current.json"
    write_result(str(replay), drifted)
    assert main(["--replay", str(replay), "--baseline", str(baseline)]) == 1
    err = capsys.readouterr().err
    assert "REGRESSION" in err and repr(metric) in err
    assert f"offending case(s): {case}" in err
