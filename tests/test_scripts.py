"""The demos in scripts/ run to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfsim

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(selfsim.__file__).resolve().parents[1])  # the child imports this checkout


@pytest.mark.parametrize(
    "script, args",
    [
        ("fd_crosscheck.py", ["--dx", "0.04,0.02", "--t-final", "0.5"]),
        ("ratio_sweep.py", ["--seed", "7", "--lo", "-8", "--draws", "30"]),
        ("ratio_sweep.py", ["--seed", "7", "--lo", "-8", "--draws", "30", "--oracle"]),
        ("solve_digest.py", ["--draws", "30"]),
    ],
)
def test_script_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
