"""The scripts under scripts/, run in a subprocess as from the shell."""

import json
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


def artifact_tree(root: Path, wall: float) -> Path:
    (root / "sub").mkdir(parents=True)
    (root / "limit.csv").write_text("c,distance\n1.0,2.0\n", encoding="utf-8")
    (root / "sub" / "fit.json").write_text('{"exponent": 2.0}\n', encoding="utf-8")
    manifest = {"command": "kg-limit", "seed": 0, "wall_time_s": wall}
    (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return root


def test_same_artifacts_passes_equal_trees_and_wall_times(tmp_path):
    """Equal trees pass, and so do manifests that differ only in their
    `wall_time_s`."""
    old = artifact_tree(tmp_path / "old", 1.5)
    assert run_script("same_artifacts.py", str(old), str(old)).returncode == 0
    new = artifact_tree(tmp_path / "new", 2.5)
    out = run_script("same_artifacts.py", str(old), str(new))
    assert out.returncode == 0, out.stdout
    assert out.stdout == ""


def test_same_artifacts_names_a_changed_or_missing_file(tmp_path):
    """A one-byte CSV change and a missing file each fail the check and are
    named (the change by the column it moved); so is a manifest that
    differs in more than its wall time (by the number that moved)."""
    old = artifact_tree(tmp_path / "old", 1.5)
    new = artifact_tree(tmp_path / "new", 1.5)
    (new / "limit.csv").write_text("c,distance\n1.0,3.0\n", encoding="utf-8")
    out = run_script("same_artifacts.py", str(old), str(new))
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        "moved: limit.csv:distance max|d| 1.000e+00 rel 5.000e-01"]

    artifact_tree(tmp_path / "gone", 1.5)
    (tmp_path / "gone" / "sub" / "fit.json").unlink()
    out = run_script("same_artifacts.py", str(old), str(tmp_path / "gone"))
    assert out.returncode == 1
    assert out.stdout.splitlines() == [f"only in {old}: sub/fit.json"]

    seeded = artifact_tree(tmp_path / "seeded", 1.5)
    manifest = json.loads((seeded / "manifest.json").read_text(encoding="utf-8"))
    (seeded / "manifest.json").write_text(json.dumps({**manifest, "seed": 1}),
                                          encoding="utf-8")
    out = run_script("same_artifacts.py", str(old), str(seeded))
    assert out.returncode == 1
    assert out.stdout.splitlines() == ["moved: manifest.json:seed 0 -> 1"]


def test_same_artifacts_lists_what_moved(tmp_path):
    """Each CSV column that moved is listed with its max |d| and that over
    the column's largest old magnitude, and each JSON number that moved with
    its old and new value, as is each number of a CSV's `# {json}` metadata
    line; a file whose text differs in more than its numbers is named as
    differing, and equal trees pass."""
    old = artifact_tree(tmp_path / "old", 1.5)
    (old / "limit.csv").write_text("c,distance\n1.0,2.0\n3.0,-4.0\n",
                                   encoding="utf-8")
    assert run_script("same_artifacts.py", str(old), str(old)).returncode == 0
    new = artifact_tree(tmp_path / "new", 2.5)
    (new / "limit.csv").write_text("c,distance\n1.0,2.0\n3.0,-4.5\n",
                                   encoding="utf-8")
    (new / "sub" / "fit.json").write_text('{"exponent": 2.5}\n', encoding="utf-8")
    out = run_script("same_artifacts.py", str(old), str(new))
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        "moved: limit.csv:distance max|d| 5.000e-01 rel 1.250e-01",
        "moved: sub/fit.json:exponent 2.0 -> 2.5",
    ]

    (new / "limit.csv").write_text("c,dist\n1.0,2.0\n3.0,-4.0\n", encoding="utf-8")
    (new / "sub" / "fit.json").write_text('{"exponent": "2.0"}\n', encoding="utf-8")
    out = run_script("same_artifacts.py", str(old), str(new))
    assert out.returncode == 1
    assert out.stdout.splitlines() == ["differs: limit.csv", "differs: sub/fit.json"]

    profile = '# {"E": 0.5, "branch": 0, "kind": "ground"}\nr,R\n1.0,2.0\n'
    (old / "profile.csv").write_text(profile, encoding="utf-8")
    new = artifact_tree(tmp_path / "meta", 1.5)
    (new / "limit.csv").write_bytes((old / "limit.csv").read_bytes())
    (new / "profile.csv").write_text(profile.replace("0.5", "0.25")
                                     .replace("2.0\n", "2.5\n"), encoding="utf-8")
    out = run_script("same_artifacts.py", str(old), str(new))
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        "moved: profile.csv#meta.E 0.5 -> 0.25",
        "moved: profile.csv:R max|d| 5.000e-01 rel 2.500e-01",
    ]
    (new / "profile.csv").write_text(profile.replace("ground", "excited"),
                                     encoding="utf-8")
    out = run_script("same_artifacts.py", str(old), str(new))
    assert out.stdout.splitlines() == ["differs: profile.csv"]
