"""`mrcp-rm diff` exits 2 on a damaged file inside a run directory.

Exit 1 means "the runs diverge"; a file the engine cannot read is not a
behaviour change, so it must be reported as unreadable input (exit 2),
never as a divergence or a traceback.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.cli import main
from repro.obs.diff import capture_run_dir, default_diff_config


def _tear(path):
    """Cut the last line of a JSONL file mid-object."""
    path.write_text(path.read_text(encoding="utf-8").rstrip("\n")[:-3])


def _drop(key):
    """A damage that deletes ``key`` from a JSON document."""

    def damage(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc[key]
        path.write_text(json.dumps(doc))

    return damage


#: The file each case damages in the copied run directory, and how.
DAMAGE = {
    "binary_run_json": ("run.json", lambda p: p.write_bytes(b"\xff\xfe\x00run")),
    "torn_series_jsonl": ("series.jsonl", _tear),
    "torn_trace_jsonl": ("trace.jsonl", _tear),
    "forensics_without_attributions": ("forensics.json", _drop("attributions")),
    "plans_without_plans": ("plans.json", _drop("plans")),
}


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    out = tmp_path_factory.mktemp("capture") / "base"
    capture_run_dir(default_diff_config(num_jobs=6), str(out), label="base")
    return out


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_run_dir_exits_2(captured, tmp_path, capsys, damage):
    broken = tmp_path / "broken"
    shutil.copytree(captured, broken)
    name, damage_file = DAMAGE[damage]
    damage_file(broken / name)
    assert main(["diff", str(captured), str(broken), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("diff failed: ") and str(broken) in err


def test_undamaged_copy_is_identical(captured, tmp_path):
    twin = tmp_path / "twin"
    shutil.copytree(captured, twin)
    assert main(["diff", str(captured), str(twin), "--quiet"]) == 0
