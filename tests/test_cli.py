"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "fig9" in out and "ablation-separation" in out


def test_demo_command(capsys):
    assert main(["demo", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "late jobs (N)" in out
    assert "10/10" in out


def test_trace_command(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    assert main(["trace", str(out_file), "--seed", "2"]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["jobs"]
    assert "wrote" in capsys.readouterr().out


def test_trace_facebook(tmp_path):
    out_file = tmp_path / "fb.json"
    assert main(["trace", str(out_file), "--workload", "facebook"]) == 0
    assert json.loads(out_file.read_text())["jobs"]


def test_trace_workflow(tmp_path):
    out_file = tmp_path / "wf.json"
    assert main(["trace", str(out_file), "--workload", "workflow"]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["kind"] == "workflow"
    assert payload["workflows"]


def test_run_command_end_to_end(capsys, monkeypatch):
    """`mrcp-rm run` executes a (shrunken) figure and prints its table."""
    from dataclasses import replace

    import repro.experiments.configs as C

    original = C.default_synthetic_params

    def tiny(profile):
        return replace(
            original(profile),
            num_jobs=4,
            map_tasks_range=(1, 3),
            reduce_tasks_range=(1, 2),
            arrival_rate=0.05,
        )

    monkeypatch.setattr(C, "default_synthetic_params", tiny)
    assert main(["run", "fig7", "--replications", "1", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out
    assert "P (%)" in out


def test_run_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig99"])


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_non_positive_replications_rejected_by_parser(command, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "fig7", "--replications", value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--replications" in err and "must be >= 1" in err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_report_command(tmp_path, capsys):
    """`mrcp-rm report` writes a self-contained HTML report."""
    out_file = tmp_path / "report.html"
    assert main(
        ["report", "--out", str(out_file), "--jobs", "8", "--seed", "1"]
    ) == 0
    html = out_file.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html and "<script" not in html
    assert "Live timeline" in html
    assert "report written" in capsys.readouterr().out


def test_report_command_with_faults(tmp_path, capsys):
    out_file = tmp_path / "report.html"
    assert main(
        ["report", "--out", str(out_file), "--jobs", "8", "--seed", "2",
         "--faults"]
    ) == 0
    assert "fault-injected" in out_file.read_text()


def test_bench_command_replay(tmp_path, capsys):
    """`mrcp-rm bench --replay` compares without re-running the suite."""
    from repro.bench import DEFAULT_BASELINE, load_result, write_result

    result = load_result(DEFAULT_BASELINE)
    replay = tmp_path / "current.json"
    write_result(str(replay), result)
    assert main(["bench", "--replay", str(replay)]) == 0
    assert "ok:" in capsys.readouterr().out
    result["cases"]["solver_micro_solve"]["metrics"]["objective"] += 1
    write_result(str(replay), result)
    assert main(["bench", "--replay", str(replay)]) == 1
    assert "solver_micro_solve" in capsys.readouterr().err


def _shrink_synthetic(monkeypatch):
    from dataclasses import replace

    import repro.experiments.configs as C

    original = C.default_synthetic_params

    def tiny(profile):
        return replace(
            original(profile),
            num_jobs=4,
            map_tasks_range=(1, 3),
            reduce_tasks_range=(1, 2),
            arrival_rate=0.05,
        )

    monkeypatch.setattr(C, "default_synthetic_params", tiny)


def test_sweep_command_writes_merged_artifacts(tmp_path, capsys, monkeypatch):
    """`mrcp-rm sweep` runs a figure grid and writes sweep.json/sweep.csv."""
    _shrink_synthetic(monkeypatch)
    out_dir = tmp_path / "sweep"
    assert main(
        ["sweep", "fig7", "--replications", "1", "--workers", "1",
         "--out-dir", str(out_dir)]
    ) == 0
    out = capsys.readouterr().out
    assert "sweep fig7" in out
    doc = json.loads((out_dir / "sweep.json").read_text())
    assert doc["schema"] == "repro-sweep/1"
    assert all(c["status"] == "ok" for c in doc["cells"])
    assert (out_dir / "sweep.csv").read_text().startswith("index,figure,label")


def test_sweep_command_parallel_matches_sequential(tmp_path, monkeypatch):
    """The CLI byte-identity contract: --workers N == --workers 1."""
    _shrink_synthetic(monkeypatch)
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(
        ["sweep", "fig7", "--replications", "1", "--workers", "1",
         "--out-dir", str(seq), "--quiet"]
    ) == 0
    assert main(
        ["sweep", "fig7", "--replications", "1", "--workers", "2",
         "--out-dir", str(par), "--quiet"]
    ) == 0
    for name in ("sweep.json", "sweep.csv"):
        assert (seq / name).read_bytes() == (par / name).read_bytes()


def test_sweep_command_report(tmp_path, monkeypatch):
    _shrink_synthetic(monkeypatch)
    out_dir = tmp_path / "sweep"
    assert main(
        ["sweep", "fig7", "--replications", "1", "--out-dir", str(out_dir),
         "--capture", "--report", "--quiet"]
    ) == 0
    html = (out_dir / "sweep.html").read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "Sweep summary" in html and "<script" not in html


def test_telemetry_command_overload(tmp_path, capsys):
    """`mrcp-rm telemetry` writes validated artifacts and prints alerts."""
    out_dir = tmp_path / "tele"
    assert main(
        ["telemetry", "--scenario", "overload", "--seed", "0",
         "--out-dir", str(out_dir)]
    ) == 0
    out = capsys.readouterr().out
    assert "SLO ALERT fired" in out
    assert "(validated)" in out

    from repro.obs.export import validate_openmetrics
    from repro.obs.timeseries import read_series_jsonl

    assert validate_openmetrics(
        (out_dir / "telemetry.prom").read_text()
    ) == []
    meta, samples = read_series_jsonl(str(out_dir / "series.jsonl"))
    assert meta["samples"] == len(samples) > 0
    assert samples[-1]["final"] is True
    alerts = [
        json.loads(line)
        for line in (out_dir / "alerts.jsonl").read_text().splitlines()
    ]
    assert any(a["state"] == "fired" for a in alerts)


def test_telemetry_command_steady_scenario(tmp_path, capsys):
    out_dir = tmp_path / "tele"
    assert main(
        ["telemetry", "--scenario", "steady", "--seed", "1",
         "--out-dir", str(out_dir)]
    ) == 0
    assert "telemetry run (steady, seed 1)" in capsys.readouterr().out
    assert (out_dir / "series.jsonl").exists()


def test_faults_command_prints_tardiness(capsys):
    """Fault-injected demo surfaces tardiness severity when jobs are late."""
    assert main(["faults", "--seed", "1", "--failure-prob", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "fault-injected demo" in out
    # severity line appears exactly when the run produced late jobs
    if "late jobs (N)                 : 0" not in out:
        assert "tardiness mean/p95/max" in out


def test_diff_capture_then_self_diff(tmp_path, capsys):
    """`diff --capture` materialises a run dir that self-diffs clean."""
    run_dir = tmp_path / "run-a"
    assert main(
        ["diff", "--capture", str(run_dir), "--label", "pinned"]
    ) == 0
    out = capsys.readouterr().out
    assert "captured run" in out
    assert (run_dir / "run.json").exists()
    assert (run_dir / "plans.json").exists()
    assert main(["diff", str(run_dir), str(run_dir), "--quiet"]) == 0


def test_diff_requires_two_inputs_without_capture(capsys):
    assert main(["diff"]) == 2
    assert "two inputs" in capsys.readouterr().err


def test_diff_html_report(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["diff", "--capture", str(run_dir), "--quiet"]) == 0
    capsys.readouterr()
    html = tmp_path / "diff.html"
    assert main(
        ["diff", str(run_dir), str(run_dir), "--html", str(html), "--quiet"]
    ) == 0
    text = html.read_text()
    assert text.startswith("<!DOCTYPE html>") and "MRCP-RM run diff" in text


def test_diff_listed_in_cli_help(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    assert "diff" in capsys.readouterr().out


def test_loadtest_command_inprocess(tmp_path, capsys):
    report_file = tmp_path / "load.json"
    assert main([
        "loadtest", "--requests", "20", "--seed", "2",
        "--json", str(report_file), "--quotes",
    ]) == 0
    out = capsys.readouterr().out
    assert "in-process (deterministic)" in out
    assert "admitted / rejected / shed" in out
    assert "verdict digest" in out
    payload = json.loads(report_file.read_text())
    assert payload["requests"] == 20
    assert payload["admitted"] + payload["rejected"] + payload["shed"] == 20
    assert len(payload["digest"]) == 16
    assert len(payload["quotes"]) == 20


def test_loadtest_replay_digest_is_stable(capsys):
    digests = []
    for _ in range(2):
        assert main(["loadtest", "--requests", "15", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        digests.append(
            next(l for l in out.splitlines() if "verdict digest" in l)
        )
    assert digests[0] == digests[1]


def test_serve_and_loadtest_parsers_wired():
    parser = build_parser()
    serve = parser.parse_args(["serve", "--port", "0", "--resources", "2"])
    assert serve.func.__name__ == "_cmd_serve"
    assert serve.port == 0 and serve.resources == 2
    load = parser.parse_args(
        ["loadtest", "--requests", "50", "--max-batch-size", "4"]
    )
    assert load.func.__name__ == "_cmd_loadtest"
    assert load.requests == 50 and load.max_batch_size == 4
    assert load.url is None


def test_serve_loadtest_listed_in_cli_help(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    assert "serve" in out and "loadtest" in out
