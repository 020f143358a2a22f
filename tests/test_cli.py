"""Command-line interface: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import absqm
from absqm import cli, dissipative
from absqm.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main


def write_yaml(path: Path, data: dict) -> str:
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


FAST_CHECK = {
    "grid": {"n": 256},
    "n_invariance": 3,
    "n_uncertainty": 40,
    "n_triples": 20,
    "n_geodesic_pairs": 2,
}

FAST_SIMULATE = {
    "grid": {"n": 256},
    "evolution": {"dt": 0.002, "t_final": 0.2, "snapshot_every": 20},
    "output": {"snapshots": 2},
}


def test_public_names_resolve():
    """Every name in `absqm.__all__` resolves, so `from absqm import *` works."""
    namespace = {}
    exec("from absqm import *", namespace)
    assert set(absqm.__all__) <= namespace.keys()


def run(tmp_path, command, cfg=None, seed=0, subdir="out"):
    args = [command, "--out-dir", str(tmp_path / subdir), "--seed", str(seed)]
    if cfg is not None:
        args += ["--config", write_yaml(tmp_path / f"{command}.yaml", cfg)]
    return main(args), tmp_path / subdir


def test_simulate_artifacts(tmp_path):
    code, out = run(tmp_path, "simulate", FAST_SIMULATE)
    assert code == EXIT_OK
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert len(snaps) == 2
    lines = snaps[0].read_text().splitlines()
    meta = json.loads(lines[0].lstrip("# "))
    assert meta["grid"]["n"] == 256
    assert lines[1] == "x,re_psi,im_psi,rho,u,eps,s"
    assert len(lines) == 2 + 256
    res = (out / "residuals.csv").read_text().splitlines()
    assert res[0] == "time,residual_mass_shell,residual_continuity,residual_force"
    mom = (out / "moments.csv").read_text().splitlines()
    assert mom[0].startswith("t,Q,V,K,varQ,varV,T,P,Y,margin_hat1")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 0
    assert set(manifest["versions"]) == {"absqm", "numpy", "scipy", "python"}
    assert manifest["wall_time_s"] >= 0.0


def test_simulate_deterministic(tmp_path):
    cfg = dict(FAST_SIMULATE, state={"kind": "random"})
    _, out1 = run(tmp_path, "simulate", cfg, seed=7, subdir="a")
    _, out2 = run(tmp_path, "simulate", cfg, seed=7, subdir="b")
    for name in ("snapshot_0000.csv", "residuals.csv", "moments.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_check_passes_and_is_deterministic(tmp_path):
    code1, out1 = run(tmp_path, "check", FAST_CHECK, seed=3, subdir="a")
    code2, out2 = run(tmp_path, "check", FAST_CHECK, seed=3, subdir="b")
    assert code1 == EXIT_OK and code2 == EXIT_OK
    blob = (out1 / "report.json").read_bytes()
    assert blob == (out2 / "report.json").read_bytes()
    report = json.loads(blob)
    assert report["all_passed"] is True
    names = [c["name"] for c in report["invariants"]]
    assert names == sorted(names)
    assert "gauge_invariance" in names and "triangle_inequality_margin" in names


def test_check_impossible_tolerance_fails(tmp_path):
    cfg = dict(FAST_CHECK, tolerances={"gauge": 1e-30})
    code, out = run(tmp_path, "check", cfg)
    assert code == EXIT_ASSERTION
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is False
    gauge = next(c for c in report["invariants"] if c["name"] == "gauge_invariance")
    assert not gauge["passed"]


def test_dissipative_short_run(tmp_path):
    cfg = {"n": 1024, "t_final": 6.0, "snapshot_dt": 0.1}
    code, out = run(tmp_path, "dissipative", cfg)
    assert code == EXIT_OK
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "t,Q,V,X,Y,T,P,Z,K"
    assert len(diag) == 1 + 61
    fit = json.loads((out / "fit.json").read_text())
    # too short for the asymptotic window: Z_star deliberately absent
    assert fit["Z_star"] is None
    assert fit["law_dev_q"] < 0.01


def test_ab_sweep(tmp_path):
    code, out = run(tmp_path, "ab-sweep")
    assert code == EXIT_OK
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "phi0,E,kappa,interior_mass,max_interior_R,u_theta_half_b"
    assert len(sweep) == 1 + 4
    # one profile per ladder rung, with eigenvalue metadata
    profiles = sorted(out.glob("profile_*.csv"))
    assert len(profiles) == 4
    meta = json.loads(profiles[0].read_text().splitlines()[0].lstrip("# "))
    assert meta["phi0"] == 10.0
    # u_theta at b/2 is byte-identical across the ladder
    col = [line.split(",")[5] for line in sweep[1:]]
    assert len(set(col)) == 1


def test_kg_limit(tmp_path):
    code, out = run(tmp_path, "kg-limit")
    assert code == EXIT_OK
    limit = (out / "limit.csv").read_text().splitlines()
    assert limit[0] == "c,distance"
    assert len(limit) == 1 + 4
    fit = json.loads((out / "fit.json").read_text())
    assert 1.7 <= fit["exponent"] <= 2.3


def test_bad_yaml_is_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("grid: [unclosed\n", encoding="utf-8")
    code, _ = run_with_config(tmp_path, "check", str(path))
    assert code == EXIT_CONFIG


def test_undecodable_config_is_config_error(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"grid: {n: 256}\n# \xff\n")
    code, _ = run_with_config(tmp_path, "check", str(path))
    assert code == EXIT_CONFIG


def test_missing_config_is_config_error(tmp_path):
    code, _ = run_with_config(tmp_path, "check", str(tmp_path / "nope.yaml"))
    assert code == EXIT_CONFIG


def test_unknown_key_is_config_error(tmp_path):
    code, _ = run(tmp_path, "check", {"grid": {"m": 128}})
    assert code == EXIT_CONFIG


def test_non_mapping_config_is_config_error(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n", encoding="utf-8")
    code, _ = run_with_config(tmp_path, "simulate", str(path))
    assert code == EXIT_CONFIG


def test_uniform_force_needs_dirichlet(tmp_path):
    cfg = dict(FAST_SIMULATE, potential={"e0": 0.1})
    code, _ = run(tmp_path, "simulate", cfg)
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("simulate", dict(FAST_SIMULATE, grid={"n": 4}), None),
        ("simulate", dict(FAST_SIMULATE, grid={"n": "abc"}), "grid.n"),
        ("simulate", dict(FAST_SIMULATE, grid={"n": [256]}), "grid.n"),
        ("simulate", dict(FAST_SIMULATE, evolution={"dt": -0.1}), None),
        ("ab-sweep", {"phi0_ladder": [10.0, 100.0, 100.0, 1000.0]}, None),
        ("dissipative", {"n": 128, "snapshot_dt": 0}, "snapshot_dt"),
        ("dissipative", {"n": 128, "sigma": 0}, "sigma"),
        ("simulate", dict(FAST_SIMULATE, state={"sigma": 0}), "sigma"),
        ("dissipative", {"n": 128, "t_final": 0.5}, "t_final"),
        ("kg-limit", {"c_values": [0.0, 5, 10, 20]}, "c_values"),
        ("kg-limit", {"c_values": [5.0]}, "c_values"),
        ("simulate", dict(FAST_SIMULATE, grid={"n": 256.7}), "grid.n"),
        ("simulate", dict(FAST_SIMULATE, evolution={"snapshot_every": 20.5}),
         "evolution.snapshot_every"),
        ("ab-sweep", {"branch": 0.9}, "branch"),
        ("ab-sweep", {"profiles": "false"}, "profiles"),
        ("kg-limit", {"c_values": "abc"}, "c_values"),
        ("simulate", dict(FAST_SIMULATE, grid={"x_min": "abc"}), "grid.x_min"),
        ("check", dict(FAST_CHECK, n_invariance=0), "n_invariance"),
        ("check", dict(FAST_CHECK, n_uncertainty=0), "n_uncertainty"),
        ("check", dict(FAST_CHECK, n_triples=0), "n_triples"),
        ("check", dict(FAST_CHECK, n_geodesic_pairs=0), "n_geodesic_pairs"),
        ("simulate", dict(FAST_SIMULATE, output={"snapshots": 0}),
         "output.snapshots"),
        ("simulate", dict(FAST_SIMULATE, state={"kind": "random", "components": 0}),
         "state.components"),
        ("dissipative", {"n": 128, "t_min": 10.0, "t_final": 22.0}, "t_min"),
        ("kg-limit", {"t_final": float("inf")}, "t_final"),
        ("simulate", dict(FAST_SIMULATE, grid={"x_min": float("nan")}),
         "grid.x_min"),
        ("check", dict(FAST_CHECK, boost_velocity=float("nan")),
         "boost_velocity"),
        ("simulate", dict(FAST_SIMULATE, state={"sigma": float("inf")}),
         "state.sigma"),
        ("kg-limit", {"c_values": [5.0, 10.0, float("inf"), 40.0]},
         "c_values[2]"),
        ("check", dict(FAST_CHECK, geodesic_steps=0), "geodesic_steps"),
        ("simulate", dict(FAST_SIMULATE, evolution={
            "dt": 0.002, "t_final": 0.2, "snapshot_every": 0}),
         "evolution.snapshot_every"),
    ],
    ids=["too_few_points", "non_numeric", "wrong_type", "negative_dt",
         "non_increasing_ladder", "zero_snapshot_dt", "zero_sigma_dissipative",
         "zero_sigma_simulate", "short_dissipative_run", "zero_c_value",
         "single_c_value", "fractional_n", "fractional_snapshot_every",
         "fractional_branch", "string_profiles", "string_c_values",
         "non_numeric_x_min", "zero_invariance_samples",
         "zero_uncertainty_samples", "zero_triples", "zero_geodesic_pairs",
         "zero_snapshots", "zero_components", "early_t_min", "infinite_t_final",
         "nan_x_min", "nan_boost_velocity", "infinite_sigma",
         "infinite_c_value", "zero_geodesic_steps", "zero_snapshot_every"],
)
def test_invalid_value_is_config_error(tmp_path, caplog, command, cfg, key):
    """Exit 2 with an "invalid config" line, which names the key where the
    check knows it."""
    code, _ = run(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert "invalid config" in caplog.text
    assert key is None or key in caplog.text


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("dissipative", {"n": 128, "t_final": 5.05, "snapshot_dt": 0.1}),
        ("simulate", dict(FAST_SIMULATE,
                          evolution={"dt": 0.002, "t_final": 0.0105})),
    ],
    ids=["dissipative", "simulate"],
)
def test_t_final_off_the_step_grid_is_config_error(tmp_path, caplog, command, cfg):
    code, _ = run(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert "invalid config" in caplog.text and "t_final" in caplog.text


def test_numeric_strings_and_integral_floats_take_their_types(tmp_path):
    """PyYAML 1.1 reads `2e-3` as a string and `256.0` as a float: the run
    goes ahead, and the manifest echoes the typed values."""
    path = tmp_path / "typed.yaml"
    path.write_text(
        "grid: {n: 256.0}\n"
        "evolution: {dt: 2e-3, t_final: 0.2, snapshot_every: 20}\n"
        "output: {snapshots: 2}\n",
        encoding="utf-8",
    )
    code, out = run_with_config(tmp_path, "simulate", str(path))
    assert code == EXIT_OK
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    assert cfg["evolution"]["dt"] == 0.002
    assert type(cfg["evolution"]["dt"]) is float
    assert type(cfg["grid"]["n"]) is int


def test_asymptotics_fit_at_exactly_t_min_plus_11(tmp_path, monkeypatch):
    """At t_final = t_min + 11 the fit runs, although the stored snapshot
    times add up their steps and end a few ulps short of t_final."""
    short = dissipative.run(dissipative.DissipativeRunConfig(
        x_min=-20.0, x_max=20.0, n=512, t_final=0.62, snapshot_dt=0.002))

    def retimed_run(cfg):
        # the default grid makes 164 steps of snapshot_dt / 164 per snapshot;
        # summed the way `run` sums them, the last time reads 30.99999999998
        dt, t, states = cfg.snapshot_dt / 164, 0.0, []
        for s in short:
            states.append(replace(s, time=t))
            for _ in range(164):
                t += dt
        assert states[-1].time < cfg.t_final
        return states

    monkeypatch.setattr(cli, "dissipative_run", retimed_run)
    code, out = run(tmp_path, "dissipative", {"t_final": 31.0, "t_min": 20.0})
    assert code in (EXIT_OK, EXIT_ASSERTION)
    fit = json.loads((out / "fit.json").read_text())
    assert isinstance(fit["Z_star"], float)


def test_kg_bandwidth_violation_is_numerical_failure(tmp_path):
    cfg = {"c_values": [1.0, 2.0, 3.0, 4.0]}
    code, _ = run(tmp_path, "kg-limit", cfg)
    assert code == EXIT_NUMERICAL


def run_with_config(tmp_path, command, config_path):
    out = tmp_path / "out"
    return main([command, "--out-dir", str(out), "--config", config_path]), out


def test_cli_import_leaves_out_scipy_optimize():
    """The root solver is the package's own; `scipy.optimize` costs about a
    quarter of a second and 17 MB on import."""
    code = "import sys, absqm.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(absqm.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
