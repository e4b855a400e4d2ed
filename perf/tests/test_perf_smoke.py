"""The benchmark at the smoke scale (``--seconds 1``), about a minute in all.

Run as ``python -m pytest perf/tests -q``; tier-1's ``testpaths`` leaves
this directory out.
"""

import json
import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [REPO, os.path.join(REPO, "src")]

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(REPO, "perf", "run.py"), *args],
        stdout=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload twice untraced (one file), then once traced."""
    out = tmp_path_factory.mktemp("perf")
    plain, traced = str(out / "plain.json"), str(out / "traced.json")
    assert run("--seconds", "1", "--repeat", "2", "--out", plain).returncode == 0
    assert run("--seconds", "1", "--trace", "1", "--out", traced).returncode == 0
    with open(plain) as a, open(traced) as b:
        return {"end_to_end": json.load(a), "per_layer": json.load(b), "plain": plain}


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_named_metric_is_emitted(smoke, kind):
    for workload in WORKLOADS:
        result = smoke[kind]["workloads"][workload]
        assert result["correct"] and result["failed"] == 0, result["problems"]
        assert result["ops"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
        for spec in SPEC[kind]:
            metric = result["metrics"][spec["name"]]
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", spec["name"])
            assert metric["unit"] == spec["unit"] and metric["n"] >= 1
            assert isinstance(metric["median"], (int, float))
            if kind == "end_to_end":
                assert metric["median"] > 0


def test_smoke_scale_is_short(smoke):
    for workload in WORKLOADS:
        assert smoke["end_to_end"]["workloads"][workload]["wall_s"] < 5.0


def test_two_runs_of_one_seed_give_one_digest(smoke):
    # run.py marks a workload wrong when its repeats disagree; the traced
    # run's untraced twin makes it a third opinion.
    for workload in WORKLOADS:
        plain = smoke["end_to_end"]["workloads"][workload]
        traced = smoke["per_layer"]["workloads"][workload]
        assert plain["correct"] and plain["sim_digest"] == traced["sim_digest"]
    digests = {w: smoke["end_to_end"]["workloads"][w]["sim_digest"] for w in WORKLOADS}
    assert digests["open_contended_lns"] is None  # its outputs follow the clock
    assert all(d for w, d in digests.items() if w != "open_contended_lns")


def test_written_spans_add_up_to_the_timed_wall(smoke):
    for workload in WORKLOADS:
        path = os.path.join(REPO, "perf", "out", f"trace-{workload}.jsonl")
        with open(path) as f:
            spans = [json.loads(line) for line in f]
        own = [s["end_ns"] - s["start_ns"] for s in spans]
        for s in spans:
            if s["parent"] >= 0:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        root = spans[0]
        assert root["name"] == "timed" and root["parent"] == -1
        assert min(own) >= 0
        assert sum(own) == root["end_ns"] - root["start_ns"]
        layers = smoke["per_layer"]["workloads"][workload]["metrics"]
        total = sum(
            m["median"] for name, m in layers.items()
            if name.endswith("_s") and not name.startswith(("setup.", "workload."))
            and name != "cp.lns.iter_per_s"
        )
        assert total == pytest.approx(sum(own) / 1e9, abs=1e-6)


def test_compare_accepts_a_file_against_itself(smoke):
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "perf", "compare.py"),
         smoke["plain"], smoke["plain"]],
        stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0, done.stdout
    assert "worse" not in done.stdout and "MISMATCH" not in done.stdout


def test_uninstall_restores_every_patched_name():
    from perf import trace

    before = [vars(owner)[attr] for owner, attr, _ in trace.TARGETS]
    recorder = trace.Recorder()
    recorder.install()
    during = [vars(owner)[attr] for owner, attr, _ in trace.TARGETS]
    recorder.uninstall()
    after = [vars(owner)[attr] for owner, attr, _ in trace.TARGETS]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_refuses_to_run_without_the_program(tmp_path):
    # The driver also runs the benchmark where only it and BENCHMARK.json exist.
    import shutil

    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(REPO, "perf"), tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perf" / "run.py"), "--workload",
         "open_steady", "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode != 0 and done.stdout == ""
