"""Smoke test: every demo script runs to completion with its defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spherekh

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script", ["identity_walkthrough.py", "partition_rule_demo.py", "pipeline_demo.py"]
)
def test_demo_runs(script):
    src = str(Path(spherekh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
