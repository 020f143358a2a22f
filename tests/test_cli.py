"""Command-line interface: exit codes, artifacts, determinism."""

import json
import logging
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import absqm
from absqm import cli, dissipative
from absqm.absolute import continuity_norm, force_norm, mass_shell_norm
from absqm.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from absqm.numerics import Grid, derivative
from absqm.observables import moments, uncertainty_report
from absqm.schrodinger import evolve, rhs
from absqm.states import gaussian_packet, random_mixtures
from absqm.wavefield import extract_block


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


def joined_csv(path: Path, columns, rows, meta=None):
    """The CSV writer as it was: every line joined in memory, then written."""
    lines = []
    if meta is not None:
        lines.append("# " + json.dumps(meta, sort_keys=True))
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(f"{float(v):.17e}" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("meta", [None, {"time": 0.5, "grid": {"n": 3}}])
@pytest.mark.parametrize("n_rows", [0, 3, 2 * cli.CSV_CHUNK_ROWS + 5])
def test_write_csv_streams_the_joined_bytes(tmp_path, meta, n_rows):
    """Chunks of rows formatted by one `%` each give the bytes of one
    f-string per value, on special values, float32 and values spread over
    600 decades, with a partial last chunk."""
    spread = np.random.default_rng(0).normal(size=(n_rows, 3)) * 10.0 ** (
        np.random.default_rng(1).uniform(-300, 300, (n_rows, 3)))
    rows = ([(1, -2.5e-300, np.pi), (np.float64(0.1), np.inf, -0.0),
             (np.nan, 7.0, np.float32(1.5))] + list(spread))[:n_rows]
    cli.write_csv(tmp_path / "streamed.csv", ["a", "b", "c"], iter(rows),
                  meta=meta)
    joined_csv(tmp_path / "joined.csv", ["a", "b", "c"], rows, meta=meta)
    assert ((tmp_path / "streamed.csv").read_bytes()
            == (tmp_path / "joined.csv").read_bytes())


def read_csv(path: Path):
    """(meta or None, values) of an artifact CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = json.loads(lines.pop(0)[2:]) if lines[0].startswith("# ") else None
    return meta, np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


@pytest.mark.parametrize(
    "cfg, seed",
    [
        ({"grid": {"x_min": -30.0, "x_max": 30.0, "n": 256},
          "state": {"kind": "random"},
          "evolution": {"dt": 0.01, "t_final": 0.4, "snapshot_every": 1},
          "output": {"snapshots": 4}}, 5),
        ({"grid": {"x_min": -12.0, "x_max": 12.0, "n": 192,
                   "boundary": "dirichlet_zero"},
          "state": {"momentum": 0.6}, "potential": {"e0": 0.05},
          "evolution": {"dt": 0.004, "t_final": 0.16, "snapshot_every": 2},
          "output": {"snapshots": 3}}, 0),
        ({"grid": {"n": 256},
          "evolution": {"dt": 0.01, "t_final": 0.1, "snapshot_every": 5},
          "output": {"snapshots": 3}}, 0),
    ],
    ids=["periodic_41_snapshots", "dirichlet_uniform_force", "three_snapshots"],
)
def test_simulate_equals_the_trajectory_api(tmp_path, cfg, seed):
    """The one-pass simulate writes, bit for bit, the values rebuilt from a
    whole run: evolve, `extract_block(w, rhs(w))` of each snapshot, the
    continuity and force norms with d/dt from rhs(w), the mass shell with
    R'' and the moments, one snapshot and one derivative call each."""
    cfg = cli.load_config("simulate", write_yaml(tmp_path / "c.yaml", cfg))
    checks = cli.cmd_simulate(cfg, tmp_path, seed)

    g, st, ev = Grid(**cfg["grid"]), cfg["state"], cfg["evolution"]
    if st["kind"] == "random":
        w0, = random_mixtures(np.random.default_rng(seed), g, 1,
                              n_components=st["components"])
    else:
        w0 = gaussian_packet(g, sigma=st["sigma"], center=st["center"],
                             momentum=st["momentum"], chirp=st["chirp"])
    w0 = replace(w0, a0=cfg["potential"]["e0"] * g.x)
    states = evolve(w0, ev["dt"], ev["t_final"],
                    snapshot_every=ev["snapshot_every"])
    procs = [extract_block(w, rhs(w))[1] for w in states]
    n = len(states)
    assert n == {0.4: 41, 0.16: 21, 0.1: 3}[ev["t_final"]]
    if n == 41:
        assert all(p.flagged.any() for p in procs)

    picks = sorted(set(np.linspace(0, n - 1, cfg["output"]["snapshots"])
                       .astype(int)))
    assert sorted(tmp_path.glob("snapshot_*.csv")) == [
        tmp_path / f"snapshot_{i:04d}.csv" for i in picks]
    for i in picks:
        w, p = states[i], procs[i]
        meta, got = read_csv(tmp_path / f"snapshot_{i:04d}.csv")
        assert meta["time"] == w.time
        want = np.array([g.x, w.psi.real, w.psi.imag, p.rho, p.u, p.eps, p.s]).T
        assert np.array_equal(got, want)

    e_field = derivative(w0.a0, g, 1)
    want = []
    for w, p in list(zip(states, procs))[1:-1]:
        dw = rhs(w)
        want.append((
            w.time,
            mass_shell_norm(p),
            continuity_norm(p, w.psi, dw),
            force_norm(p, w.psi, dw, derivative(w.psi, g, 1), e_field),
        ))
    want = np.array(want)
    assert np.array_equal(read_csv(tmp_path / "residuals.csv")[1], want)

    rows = []
    for p in procs:
        m, = moments(p)
        u = uncertainty_report(m)
        rows.append((m.time, m.Q, m.V, m.K, m.varQ, m.varV, m.T, m.P, m.Y,
                     *u.all_margins(), u.margin_classical))
    assert np.array_equal(read_csv(tmp_path / "moments.csv")[1], np.array(rows))

    measured = {c["name"]: c["measured"] for c in checks}
    assert measured["norm_drift"] == max(abs(w.norm_sq() - 1.0)
                                         for w in states)
    assert measured["uncertainty_margin_min"] == min(
        np.array(rows)[:, 9:12].flat)


def test_simulate_memory_is_one_block(tmp_path):
    """simulate holds one block of snapshots, not the run: four times the
    snapshots peak within 15% of the traced memory."""

    def peak(t_final: float) -> int:
        cfg = {"grid": {"n": 256},
               "evolution": {"dt": 0.01, "t_final": t_final, "snapshot_every": 1},
               "output": {"snapshots": 2}}
        args = ["simulate", "--config", write_yaml(tmp_path / "m.yaml", cfg),
                "--out-dir", str(tmp_path / "out")]
        assert main(args) == EXIT_OK  # caches and lazy imports, untraced
        tracemalloc.start()
        try:
            assert main(args) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(0.4), peak(1.6)  # 41 and 161 snapshots
    assert long <= 1.15 * short, long / short


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


@pytest.mark.parametrize("seed", [3, 8])
def test_check_report_does_not_depend_on_block_rows(tmp_path, monkeypatch, seed):
    """`check` draws and measures its random states BLOCK_ROWS at a time; its
    report is the same bytes for blocks of 1, 3 (40 states and 20 triples
    leave a partial last block) and 8 states."""
    reports = []
    for rows in (1, 3, 8):
        monkeypatch.setattr(cli, "BLOCK_ROWS", rows)
        code, out = run(tmp_path, "check", FAST_CHECK, seed=seed, subdir=f"b{rows}")
        assert code == EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_check_memory_is_one_block(tmp_path):
    """`check` holds one block of random states, not all of them: four times
    the uncertainty states and triples peak within 15% of the traced
    memory."""

    def peak(scale: int) -> int:
        cfg = dict(FAST_CHECK, n_uncertainty=40 * scale, n_triples=20 * scale)
        args = ["check", "--config", write_yaml(tmp_path / "m.yaml", cfg),
                "--out-dir", str(tmp_path / "out")]
        assert main(args) == EXIT_OK  # caches and lazy imports, untraced
        tracemalloc.start()
        try:
            assert main(args) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(1), peak(4)
    assert long <= 1.15 * short, long / short


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


def test_dissipative_packet_at_the_domain_edge_is_numerical_failure(tmp_path):
    cfg = {"x_min": -5.0, "x_max": 5.0, "n": 256, "t_final": 5.0,
           "snapshot_dt": 0.25}
    code, out = run(tmp_path, "dissipative", cfg)
    assert code == EXIT_NUMERICAL
    assert list(out.iterdir()) == []  # no diagnostics.csv, fit.json or manifest


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


def test_ab_sweep_ladder_from_zero(tmp_path):
    """A ladder may start at phi0 = 0: the reduction check compares the last
    rung with 1000 times the first instead of dividing by it, so the run
    ends with its checks (both passing on this cylinder, nu = 2, where the
    interior mass falls from 3.4e-3 to 7.2e-7) and the sweep."""
    cfg = {"phi0_ladder": [0.0, 10.0, 100.0, 1000.0], "profiles": False,
           "cylinder": {"B0": 2.0, "C1": 1.0}}
    code, out = run(tmp_path, "ab-sweep", cfg)
    assert code == EXIT_OK
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 4


def test_ab_sweep_at_a_high_order_fails_only_the_reduction(tmp_path):
    """At nu = 21 the ladder from 0 solves: the sweep is written and the
    interior mass falls monotonically, from 1.6e-23 to 2.5e-24, but only
    6.4 times, since the centrifugal barrier, not the wall, keeps the state
    out.  So the reduction check fails (exit 3)."""
    cfg = {"phi0_ladder": [0.0, 10.0, 100.0, 1000.0], "profiles": False,
           "cylinder": {"B0": 2.0, "C1": 20.0}}
    code, out = run(tmp_path, "ab-sweep", cfg)
    assert code == EXIT_ASSERTION
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    mass = np.array([float(row.split(",")[3]) for row in rows])
    assert len(mass) == 4 and np.all(np.diff(mass) < 0.0)
    assert 6.0 < mass[0] / mass[-1] < 7.0


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
        ("simulate", dict(FAST_SIMULATE, evolution={"dt": -0.1}),
         "config keys 'evolution.t_final', 'evolution.dt'"),
        ("ab-sweep", {"phi0_ladder": [10.0, 100.0, 100.0, 1000.0]}, None),
        ("dissipative", {"n": 128, "snapshot_dt": 0}, "snapshot_dt"),
        ("dissipative", {"n": 128, "sigma": 0}, "sigma"),
        ("simulate", dict(FAST_SIMULATE, state={"sigma": 0}), "sigma"),
        ("dissipative", {"n": 128, "t_final": 0.5}, "t_final"),
        ("kg-limit", {"c_values": [0.0, 5, 10, 20]}, "c_values"),
        ("kg-limit", {"c_values": [5.0]}, "c_values"),
        ("kg-limit", {"c_values": [5.0, 5.0]}, "c_values [5.0, 5.0]: [5.0] repeated"),
        ("kg-limit", {"c_values": [5, 5, 10]}, "[5.0] repeated"),
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
        ("dissipative", {"n": 128, "t_final": 5.0, "snapshot_dt": 2.5},
         "'t_final', 'snapshot_dt': the diagnostics need at least 5 snapshots"),
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
        ("simulate", dict(FAST_SIMULATE, grid={"n": 256, "boundary": "dirichlet_zero"},
                          evolution={"dt": 0.01}),
         "config key 'evolution.dt'"),
        ("simulate", dict(FAST_SIMULATE, grid={"n": 128},
                          evolution={"dt": 0.01, "t_final": 0.01}),
         "'evolution.t_final', 'evolution.snapshot_every'"),
        ("simulate", dict(FAST_SIMULATE, evolution={
            "dt": 0.01, "t_final": 0.5, "snapshot_every": 50}),
         "'evolution.t_final', 'evolution.snapshot_every'"),
        ("ab-sweep", {"cylinder": {"B0": 1.0, "C1": -1.0},
                      "phi0_ladder": [0.1, 1.0, 10.0, 100.0]},
         "no energy window: phi0 + B0 C1/2 must be positive"),
        ("simulate", dict(FAST_SIMULATE, state={"kind": "bogus"}),
         "unknown state.kind 'bogus'"),
    ],
    ids=["too_few_points", "non_numeric", "wrong_type", "negative_dt",
         "non_increasing_ladder", "zero_snapshot_dt", "zero_sigma_dissipative",
         "zero_sigma_simulate", "short_dissipative_run", "zero_c_value",
         "single_c_value", "repeated_c_value", "weighted_c_value",
         "fractional_n", "fractional_snapshot_every",
         "fractional_branch", "string_profiles", "string_c_values",
         "non_numeric_x_min", "zero_invariance_samples",
         "zero_uncertainty_samples", "zero_triples", "zero_geodesic_pairs",
         "zero_snapshots", "zero_components", "early_t_min",
         "three_dissipative_snapshots", "infinite_t_final",
         "nan_x_min", "nan_boost_velocity", "infinite_sigma",
         "infinite_c_value", "zero_geodesic_steps", "zero_snapshot_every",
         "dirichlet_dt_above_bound", "two_snapshots_one_step",
         "two_snapshots_sparse", "no_energy_window", "unknown_state_kind"],
)
def test_invalid_value_is_config_error(tmp_path, caplog, command, cfg, key):
    """Exit 2 with an "invalid config" line, which names the key where the
    check knows it, and no artifact written."""
    code, out = run(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert "invalid config" in caplog.text
    assert key is None or key in caplog.text
    assert not out.exists() or not any(out.iterdir())


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


@pytest.mark.parametrize(
    "args, named",
    [
        (["kg-limit", "--seed", "-1", "--out-dir", "{tmp}/out"], "--seed"),
        (["check", "--log-level", "LOUD", "--out-dir", "{tmp}/out"], "--log-level"),
        (["check", "--out-dir", "{tmp}/taken"], "--out-dir"),
        (["check", "--out-dir", "{tmp}/taken/out"], "--out-dir"),
    ],
    ids=["negative_seed", "unknown_log_level", "out_dir_is_a_file",
         "out_dir_under_a_file"],
)
def test_bad_argument_is_usage_error(tmp_path, capsys, caplog, args, named):
    """Exit 2 with a message naming the argument, not a traceback, and no
    artifact written: argparse refuses a bad --seed or --log-level, and an
    --out-dir that cannot be made is logged."""
    taken = tmp_path / "taken"
    taken.write_text("x", encoding="utf-8")
    try:
        code = main([a.format(tmp=tmp_path) for a in args])
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_CONFIG
    assert named in capsys.readouterr().err + caplog.text
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_text(encoding="utf-8") == "x"


def test_log_level_holds_where_logging_is_set_up(tmp_path, caplog):
    """`--log-level` holds in a process whose root logger has a handler
    already (pytest's): at ERROR a failing `check` logs only its ERROR
    record; at the default level it logs each check's PASS/FAIL record.
    The package logger's own level is put back after each call."""
    caplog.set_level(logging.INFO)
    pkg = logging.getLogger("absqm")
    level = pkg.level
    cfg = dict(FAST_CHECK, tolerances={"gauge": 1e-30})
    args = ["check", "--config", write_yaml(tmp_path / "c.yaml", cfg),
            "--out-dir", str(tmp_path / "out")]
    assert main(args + ["--log-level", "ERROR"]) == EXIT_ASSERTION
    assert [r.levelname for r in caplog.records] == ["ERROR"]
    assert "failed invariants: gauge_invariance" in caplog.text
    assert pkg.level == level
    caplog.clear()
    assert main(args) == EXIT_ASSERTION
    checks = json.loads((tmp_path / "out" / "report.json").read_text())["invariants"]
    verdicts = [r.getMessage().split()[:2] for r in caplog.records
                if r.levelname == "INFO"]
    assert sorted(verdicts) == sorted(
        [c["name"], "PASS" if c["passed"] else "FAIL"] for c in checks)
    assert ["gauge_invariance", "FAIL"] in verdicts
    assert pkg.level == level


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
        dt, t, times = cfg.snapshot_dt / 164, 0.0, np.empty(len(short))
        for i in range(len(short)):
            times[i] = t
            for _ in range(164):
                t += dt
        assert times[-1] < cfg.t_final
        return replace(short, time=times)

    monkeypatch.setattr(cli, "dissipative_run", retimed_run)
    code, out = run(tmp_path, "dissipative", {"t_final": 31.0, "t_min": 20.0})
    assert code in (EXIT_OK, EXIT_ASSERTION)
    fit = json.loads((out / "fit.json").read_text())
    assert isinstance(fit["Z_star"], float)


def test_kg_bandwidth_violation_is_numerical_failure(tmp_path):
    cfg = {"c_values": [1.0, 2.0, 3.0, 4.0]}
    code, _ = run(tmp_path, "kg-limit", cfg)
    assert code == EXIT_NUMERICAL


def test_floating_point_failure_is_numerical_failure(tmp_path, caplog, monkeypatch):
    """A command runs with overflow, division by zero and invalid operations
    raising: a kernel that overflows stops the run with exit 4 and a
    "numerical failure" line naming the operation, and writes no artifact."""
    def overflowing(f, g, order):
        return 1e300 * derivative(f, g, order)

    monkeypatch.setattr(dissipative, "derivative", overflowing)
    cfg = {"x_min": -20.0, "x_max": 20.0, "n": 512, "t_final": 5.0,
           "snapshot_dt": 0.25}
    code, out = run(tmp_path, "dissipative", cfg)
    assert code == EXIT_NUMERICAL
    assert "numerical failure: overflow encountered" in caplog.text
    assert list(out.iterdir()) == []


def run_with_config(tmp_path, command, config_path):
    out = tmp_path / "out"
    return main([command, "--out-dir", str(out), "--config", config_path]), out


def fresh_interpreter(code: str, *flags: str) -> list[str]:
    """The words a new interpreter, started with flags, prints when it runs
    code with the package's source tree on its path."""
    src = str(Path(absqm.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.split()


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.linalg", "scipy.special",
                                    "scipy.fft"])
def test_cli_import_leaves_out(module):
    """The compiled Brent, Bessel, LAPACK and pocketfft kernels load without
    `scipy.optimize` (about a quarter of a second and 17 MB on import),
    `scipy.special`, `scipy.linalg` and `scipy.fft` (about 0.2 s and 20 MB
    each, in scipy's array-API layer)."""
    code = f"import sys, absqm.cli; print({module!r} in sys.modules)"
    assert fresh_interpreter(code) == ["False"]


def fresh_run(tmp_path, command, cfg, modules) -> list[str]:
    """The exit code of a command that a new interpreter runs to the end
    (with cfg as its config, if given), then for each of modules whether it
    was then loaded.  An in-process run could find them already imported."""
    args = [command, "--out-dir", str(tmp_path / "out")]
    if cfg is not None:
        args += ["--config", write_yaml(tmp_path / "c.yaml", cfg)]
    code = (f"import sys; from absqm.cli import main; code = main({args!r}); "
            f"print(code, *(m in sys.modules for m in {modules!r}))")
    return fresh_interpreter(code)


SCIPY_PACKAGES = ("scipy.special", "scipy.linalg", "scipy.fft", "scipy.optimize",
                  "scipy._lib._array_api")
SMALL_RUN = {"grid": {"x_min": -12.0, "x_max": 12.0, "n": 192},
             "state": {"momentum": 0.6},
             "evolution": {"dt": 0.004, "t_final": 0.16, "snapshot_every": 2},
             "output": {"snapshots": 3}}


@pytest.mark.parametrize("command, cfg, exit_code, kernels", [
    ("ab-sweep", None, EXIT_OK,
     ("scipy.special._special_ufuncs", "scipy.optimize._zeros")),
    ("simulate", {**SMALL_RUN, "grid": {**SMALL_RUN["grid"], "boundary": "dirichlet_zero"},
                  "potential": {"e0": 0.05}}, EXIT_ASSERTION, ("scipy.linalg._flapack",)),
    ("simulate", SMALL_RUN, EXIT_OK, ("scipy.fft._pocketfft.pypocketfft",)),
], ids=["ab-sweep", "simulate-dirichlet", "simulate-periodic"])
def test_scipy_kernels_load_without_their_packages(tmp_path, command, cfg, exit_code,
                                                   kernels):
    """`ab-sweep` evaluates Bessel functions and solves by Brent's method, a
    `dirichlet_zero` `simulate` steps with LAPACK and a periodic one with
    pocketfft, each to its usual exit code (the Dirichlet run fails its
    uncertainty margin, a known defect): the kernels are loaded, and
    `scipy.special`, `scipy.linalg`, `scipy.fft`, `scipy.optimize` and
    scipy's array-API layer are not."""
    words = fresh_run(tmp_path, command, cfg, (*kernels, *SCIPY_PACKAGES))
    assert words == [str(exit_code), *["True"] * len(kernels),
                     *["False"] * len(SCIPY_PACKAGES)]
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_bessel_error_paths_without_scipy_special():
    """Every in-process Aharonov-Bohm test runs with `scipy.special` loaded
    by its module's imports; in a fresh interpreter that has only the
    compiled ufuncs, with RuntimeWarnings as errors, Y_140's overflow is
    still refused, the phi0 = 3e5 wall still solves without a warning, and a
    later `import scipy.special` takes the one loaded module."""
    code = """if True:
        import sys
        from absqm.aharonov_bohm import ABConfig, _special, solve_radial
        from absqm.errors import RangeError
        print("scipy.special" in sys.modules)
        try:
            solve_radial(ABConfig(b=1.0, C1=140.0, phi0=10.0))
        except RangeError as exc:
            print("overflows double precision" in str(exc))
        sol = solve_radial(ABConfig(b=1, B0=0.5, C1=0.3, phi0=3e5, r_out=5))
        print(sol.C3 == 0.0 and 0.0 < sol.interior_mass < 1e-8)
        print("scipy.special" in sys.modules)
        import scipy.special
        module = sys.modules["scipy.special._special_ufuncs"]
        print(module is _special() and scipy.special.jv is module.jv)
    """
    words = fresh_interpreter(code, "-W", "error::RuntimeWarning")
    assert words == ["False", "True", "True", "False", "True"]


@pytest.mark.parametrize("command, cfg", [
    ("dissipative", {"n": 1024, "t_final": 5.0, "snapshot_dt": 0.25}),
    ("kg-limit", None),
])
def test_commands_that_draw_nothing_leave_numpy_random_out(tmp_path, command, cfg):
    """Only `simulate` of a random state and `check` build a generator, so a
    fresh interpreter runs `dissipative` and `kg-limit` to the end without
    loading `numpy.random` (about 6 MB and 25 ms), nor `numpy.ma`, which
    `np.unique` imports (about 10 ms and 1 MB)."""
    words = fresh_run(tmp_path, command, cfg, ("numpy.random", "numpy.ma"))
    assert words == [str(EXIT_OK), "False", "False"]
