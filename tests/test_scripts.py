"""The scripts under scripts/, run in a subprocess as from the shell."""

import os
import subprocess
import sys
from pathlib import Path

import absqm

SRC = Path(absqm.__file__).resolve().parents[1]
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300,
    )


def test_residual_convergence_prints_orders():
    out = run_script(
        "residual_convergence.py", "--levels", "2", "--n0", "128", "--dt0", "0.05"
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 3
    assert "orders:" in lines[-1]


def test_residual_convergence_rejects_a_step_off_the_grid():
    """t_final = 0.5 is no whole multiple of dt0 = 0.04: a usage error (exit
    2) before any evolution, not a traceback."""
    out = run_script("residual_convergence.py", "--dt0", "0.04")
    assert out.returncode == 2
    assert "not a multiple of dt=0.04" in out.stderr
    assert "Traceback" not in out.stderr
