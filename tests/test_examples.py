"""The examples that drive the full time step run to completion.

``quickstart.py`` (box) and ``rbc_cylinder.py`` (cylinder) exercise the
production pressure path end to end; a short run of each must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, steps", [("quickstart.py", 20), ("rbc_cylinder.py", 6)]
)
def test_example_runs(script, steps):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), "--steps", str(steps)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
