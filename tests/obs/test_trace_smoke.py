"""``examples/trace_run.py --smoke`` passes: the observability contract holds.

CI's ``trace-smoke`` and ``telemetry-smoke`` jobs run the same command; it
runs here too so a change that leaves the smoke workload without a CP model
solve (and so without solver phase spans) fails the suite, not only CI.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_trace_run_smoke_passes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "examples" / "trace_run.py"),
            "--smoke",
            "--out",
            str(tmp_path / "trace.json"),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke OK" in done.stdout
