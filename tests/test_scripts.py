"""The example scripts run to the end in a fresh process and print their
results."""

import os
import pathlib
import subprocess
import sys

import pytest

import tailvol

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, key_line",
    [
        ("synthetic_demo.py",
         "recovered premia: lam2 +0.1000 (true 0.1), lam3 +0.4000 (true 0.4), lam4 +1.0000 (true 1.0)"),
        ("convergence_study.py", "least-squares error order in the scale:"),
    ],
)
def test_script_quick_run(tmp_path, script, key_line):
    src = str(pathlib.Path(tailvol.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--quick"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert any(line.startswith(key_line) for line in run.stdout.splitlines()), run.stdout
