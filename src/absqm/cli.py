"""Batch entry point: bind a structured config to a run and emit artifacts.

Commands: simulate (wave evolution + residuals + observables), dissipative
(damped-system pipeline incl. asymptotics), ab-sweep (wall-height ladder for
the cylindrical bound state), kg-limit (nonrelativistic-limit ladder), check
(invariance / uncertainty / geometry suite).  All numeric output is CSV with
a header row; every run writes a manifest JSON.  Outputs are deterministic
given config + seed.  Exit codes: 0 pass, 2 usage or config error (an
invalid argument, an --out-dir that cannot be made, an unknown key or an
invalid value), 3 assertion failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import platform
import sys
import time
from dataclasses import asdict, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .aharonov_bohm import ABConfig, wall_sweep
from .absolute import continuity_norm, force_norm, mass_shell_norm
from .dissipative import (
    LAW_SPAN,
    DissipativeRunConfig,
    asymptotics,
    diagnostics,
    expectation_laws,
    run as dissipative_run,
)
from .errors import AbsqmError, ContractViolationError, StabilityError
from .kleingordon import nr_limit_compare
from .numerics import BLOCK_ROWS, DIRICHLET, PERIODIC, Grid, derivative, whole_steps
from .observables import moments, uncertainty_report
from .schrodinger import (check_step, free_processes, rhs, snapshot_blocks,
                          snapshot_steps)
from .states import gaussian_packet, random_mixtures
from .wavefield import (
    WaveField,
    boost_transform,
    cotensor_boost_check,
    extract_block,
    gauge_transform,
    geodesic_length,
    process_distances,
)

log = logging.getLogger("absqm")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERTION = 3
EXIT_NUMERICAL = 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------- config ---

DEFAULTS = {
    "simulate": {
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 512, "boundary": PERIODIC},
        "state": {
            "kind": "gaussian",  # gaussian | random
            "sigma": 1.0,
            "center": 0.0,
            "momentum": 1.0,
            "chirp": 0.1,
            "components": 3,
        },
        "potential": {"e0": 0.0},  # uniform force: a0 = e0 x (dirichlet only)
        "evolution": {"dt": 0.002, "t_final": 1.0, "snapshot_every": 50},
        "output": {"snapshots": 3},
        "assertions": {"norm_drift": 1.0e-8, "uncertainty_margin": -1.0e-9},
    },
    "dissipative": {
        **asdict(DissipativeRunConfig()),
        "t_min": 20.0,
        "assertions": {
            "z_star": 0.98,
            "law_dev": 0.01,
            "h_margin": -1.0e-9,
            "zdot_max": 1.0e-6,
        },
    },
    "ab-sweep": {
        "cylinder": {
            "b": 1.0,
            "B0": 0.5,
            "C1": 0.3,
            "uz": 0.0,
            "r_out": 5.0,
            "n_r": 2048,
        },
        "phi0_ladder": [10.0, 100.0, 1000.0, 10000.0],
        "branch": 0,
        "profiles": True,
        "assertions": {"mass_reduction": 100.0},
    },
    "kg-limit": {
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 512},
        "envelope": {"sigma": 2.0, "momentum": 0.3},
        "c_values": [5.0, 10.0, 20.0, 40.0],
        "t_final": 0.5,
        "assertions": {"exponent_min": 1.7, "exponent_max": 2.3},
    },
    "check": {
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 320},
        "center_scale": 4.0,
        "n_invariance": 5,
        "n_uncertainty": 500,
        "n_triples": 200,
        "n_geodesic_pairs": 3,
        "boost_velocity": 0.7,
        "geodesic_steps": 512,
        "tolerances": {
            "gauge": 1.0e-9,
            "ray": 1.0e-12,
            "boost": 1.0e-6,
            "cotensor": 1.0e-12,
            "uncertainty": -1.0e-9,
            "saturation": 1.0e-8,
            "geodesic": 1.0e-4,
            "triangle": -1.0e-12,
        },
    },
}


# counts that must sample at least once
_COUNTS = {"state.components", "output.snapshots", "evolution.snapshot_every",
           "n_invariance", "n_uncertainty", "n_triples", "n_geodesic_pairs",
           "geodesic_steps"}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """A fresh tree of `base` under `override`, each leaf typed as its default."""
    for key in override:
        if key not in base:
            raise ConfigError(f"unknown config key '{path}{key}'")
    out = {}
    for key, default in base.items():
        where = path + key
        val = out[key] = _typed(default, override.get(key, default), where)
        if where in _COUNTS and val < 1:
            raise ConfigError(f"config key '{where}': expected at least 1, got {val}")
    return out


def _typed(default, val, where: str):
    """`val` with the type of its default.  An int takes an integral number,
    a float any finite number; either takes a numeric string, since PyYAML
    reads `2e-3` as one.  A list takes a list, whose elements become floats."""
    kind = type(default)
    if kind is dict and isinstance(val, dict):
        return _merge(default, val, where + ".")
    if kind is list and isinstance(val, list):
        return [_typed(0.0, v, f"{where}[{i}]") for i, v in enumerate(val)]
    if type(val) is kind and kind is not float:
        return val
    if kind in (int, float) and type(val) in (int, float, str):
        try:
            num = float(val)
        except (ValueError, OverflowError):
            num = None
        if num is not None and np.isfinite(num) and (
                kind is float or num.is_integer()):
            return kind(num)
    expected = {dict: "a mapping", list: "a list", bool: "a boolean",
                str: "a string", int: "an integer",
                float: "a finite number"}[kind]
    raise ConfigError(f"config key '{where}': expected {expected}, got {val!r}")


def _check_config(keys: str, check, *args):
    """check(*args), where a library check that refuses config values is a
    config error naming their keys."""
    try:
        return check(*args)
    except (ContractViolationError, StabilityError) as exc:
        raise ConfigError(f"config {keys}: {exc}") from exc


def load_config(command: str, config_path: str | None) -> dict:
    data = None
    if config_path is not None:
        try:
            data = yaml.safe_load(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse error in {config_path}: {exc}") from exc
    if data is not None and not isinstance(data, dict):
        raise ConfigError(f"config root in {config_path} must be a mapping")
    return _merge(DEFAULTS[command], data or {})


# ------------------------------------------------------------- artifacts ---


# rows formatted per `%` call of `write_csv`: one chunk's text is a few
# hundred KB at most, and the whole file is never held in memory
CSV_CHUNK_ROWS = 256


def write_csv(path: Path, columns, rows, meta: dict | None = None):
    """CSV with a header row; optional '#'-prefixed JSON metadata block.
    Values are written as `%.17e` (the text of f"{float(v):.17e}"), each
    chunk of CSV_CHUNK_ROWS rows as it is formatted."""
    line = ",".join(["%.17e"] * len(columns)) + "\n"
    rows = iter(rows)
    with path.open("w", encoding="utf-8") as f:
        if meta is not None:
            f.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        f.write(",".join(columns) + "\n")
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            f.write((line * len(chunk)) % tuple(v for row in chunk for v in row))


def write_snapshot_csv(path: Path, w: WaveField, p) -> None:
    meta = {
        "grid": asdict(w.grid),
        "time": w.time,
        "gauge": {
            "a0_max": float(np.max(np.abs(w.a0))),
            "a1_max": float(np.max(np.abs(w.a1))),
        },
        "frame_velocity": w.frame_velocity,
    }
    cols = ["x", "re_psi", "im_psi", "rho", "u", "eps", "s"]
    rows = zip(w.grid.x, w.psi.real, w.psi.imag, p.rho, p.u, p.eps, p.s)
    write_csv(path, cols, rows, meta=meta)


def write_json(path: Path, obj) -> None:
    """obj as indented JSON with sorted keys and a final newline."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_manifest(out_dir: Path, command: str, cfg: dict, seed: int, wall: float):
    manifest = {
        "command": command,
        "config": cfg,
        "seed": seed,
        "versions": {
            "absqm": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": wall,
    }
    write_json(out_dir / "manifest.json", manifest)


def record(name, measured, bound, kind) -> dict:
    """kind 'max': pass iff measured <= bound; kind 'min': measured >= bound."""
    measured = float(measured)
    margin = bound - measured if kind == "max" else measured - bound
    return {
        "name": name,
        "measured": measured,
        "bound": float(bound),
        "margin": float(margin),
        "passed": bool(margin >= 0.0),
    }


# -------------------------------------------------------------- commands ---


def _block_sizes(n: int) -> list[int]:
    """n split into blocks of BLOCK_ROWS and a last, partial one."""
    return [min(BLOCK_ROWS, n - k) for k in range(0, n, BLOCK_ROWS)]


def cmd_simulate(cfg: dict, out: Path, seed: int) -> list[dict]:
    st, ev = cfg["state"], cfg["evolution"]
    g = Grid(**cfg["grid"])
    e0 = cfg["potential"]["e0"]
    if e0 != 0.0 and g.boundary != DIRICHLET:
        raise ConfigError(
            "a uniform force (potential.e0 != 0) needs grid.boundary "
            f"'{DIRICHLET}': a linear potential is discontinuous on a ring"
        )
    if st["kind"] == "gaussian":
        w0 = gaussian_packet(
            g, sigma=st["sigma"], center=st["center"],
            momentum=st["momentum"], chirp=st["chirp"],
        )
    elif st["kind"] == "random":
        w0 = random_mixtures(np.random.default_rng(seed), g, 1,
                             n_components=st["components"])[0]
    else:
        raise ConfigError(f"unknown state.kind {st['kind']!r}")
    # a0 is the covariant component A0; the force field is E = dA0/dx, so a
    # uniform force e0 comes from a0 = e0 x
    a0 = e0 * g.x
    dt, t_final = ev["dt"], ev["t_final"]
    n_steps = _check_config("keys 'evolution.t_final', 'evolution.dt'",
                            whole_steps, t_final, dt)
    _check_config("key 'evolution.dt'", check_step, g, dt)
    n_snap = len(snapshot_steps(n_steps, ev["snapshot_every"]))
    if n_snap < 3:
        raise ConfigError(
            "config keys 'evolution.t_final', 'evolution.snapshot_every': "
            f"the residuals need at least 3 snapshots, got {n_snap}"
        )
    picks = set(np.linspace(0, n_snap - 1, cfg["output"]["snapshots"])
                .astype(int).tolist())
    e_field = derivative(a0, g, 1)
    residual_rows = np.empty((n_snap, 4))  # residuals.csv leaves out the ends
    moment_rows = np.empty((n_snap, 13))
    norm_dev = np.empty(n_snap)

    def take(k: int, w: WaveField) -> None:
        """The output rows of one block of snapshots, the first being k; its
        temporaries are freed on return."""
        end = k + len(w)
        dpsi_dt = rhs(w)
        dpsi_dx, p = extract_block(w, dpsi_dt)
        for i in picks.intersection(range(k, end)):
            write_snapshot_csv(out / f"snapshot_{i:04d}.csv", w[i - k], p[i - k])
        residual_rows[k:end] = np.column_stack((
            w.time,
            mass_shell_norm(p),
            continuity_norm(p, w.psi, dpsi_dt),
            force_norm(p, w.psi, dpsi_dt, dpsi_dx, e_field),
        ))
        for i, m in enumerate(moments(p), k):
            u = uncertainty_report(m)
            moment_rows[i] = (m.time, m.Q, m.V, m.K, m.varQ, m.varV, m.T,
                              m.P, m.Y, *u.all_margins(), u.margin_classical)
        norm_dev[k:end] = np.abs(w.norm_sq() - 1.0)

    # one pass over the blocks of snapshots: each is extracted once, feeds
    # its output rows and is dropped before the next is stepped to
    k = 0
    for w in snapshot_blocks(replace(w0, a0=a0), dt, t_final,
                             ev["snapshot_every"]):
        take(k, w)
        k += len(w)
    write_csv(
        out / "residuals.csv",
        ["time", "residual_mass_shell", "residual_continuity", "residual_force"],
        residual_rows[1:-1],
    )
    write_csv(
        out / "moments.csv",
        ["t", "Q", "V", "K", "varQ", "varV", "T", "P", "Y",
         "margin_hat1", "margin_hat2", "margin_hat3", "margin_classical"],
        moment_rows,
    )

    a = cfg["assertions"]
    return [
        record("norm_drift", max(norm_dev), a["norm_drift"], "max"),
        # the margin_hat columns, in the order the snapshots gave them
        record("uncertainty_margin_min", min(moment_rows[:, 9:12].flat),
               a["uncertainty_margin"], "min"),
    ]


def cmd_dissipative(cfg: dict, out: Path, seed: int) -> list[dict]:
    run_cfg = DissipativeRunConfig(
        **{f.name: cfg[f.name] for f in fields(DissipativeRunConfig)}
    )
    n_snap = 1 + _check_config("keys 't_final', 'snapshot_dt'",
                               whole_steps, run_cfg.t_final, run_cfg.snapshot_dt)
    if n_snap < 5:
        raise ConfigError(
            "config keys 't_final', 'snapshot_dt': the diagnostics need at "
            f"least 5 snapshots, got {n_snap}"
        )
    if not run_cfg.t_final >= LAW_SPAN:
        raise ConfigError(f"config key 't_final': expected at least {LAW_SPAN:g}")
    t_min = cfg["t_min"]
    if t_min < 20.0:
        raise ConfigError("config key 't_min': expected at least 20")
    diag = diagnostics(dissipative_run(run_cfg))
    write_csv(
        out / "diagnostics.csv",
        ["t", "Q", "V", "X", "Y", "T", "P", "Z", "K"],
        zip(diag.times, diag.Q, diag.V, diag.X, diag.Y, diag.T, diag.P,
            diag.Z, diag.K),
    )
    laws = expectation_laws(diag)
    h1 = diag.P * diag.X - 0.25
    h2 = diag.T * diag.X - diag.Y**2
    a = cfg["assertions"]
    checks = [
        record("law_dev_q", laws.max_rel_dev_q, a["law_dev"], "max"),
        record("law_dev_v", laws.max_rel_dev_v, a["law_dev"], "max"),
        record("h1_margin_min", h1.min(), a["h_margin"], "min"),
        record("h2_margin_min", h2.min(), a["h_margin"], "min"),
        record("zdot_max", diag.Zdot.max(), a["zdot_max"], "max"),
    ]
    report: dict = {"Z_star": None}
    # decided from the config: the stored times sum up their steps and can
    # end a few ulps short of t_final
    if run_cfg.t_final >= t_min + 11.0:
        report = asdict(asymptotics(diag, t_min=t_min))
        checks.append(record("Z_star", report.pop("z_star"), a["z_star"], "min"))
    else:
        log.info("run too short for asymptotics (t_final < t_min + 11); skipped")
    fit = {c["name"]: c["measured"] for c in checks}
    write_json(out / "fit.json", {**fit, **report})
    return checks


def cmd_ab_sweep(cfg: dict, out: Path, seed: int) -> list[dict]:
    ladder, branch = cfg["phi0_ladder"], cfg["branch"]
    report = wall_sweep(ABConfig(**cfg["cylinder"]), ladder, branch)
    write_csv(
        out / "sweep.csv",
        ["phi0", "E", "kappa", "interior_mass", "max_interior_R",
         "u_theta_half_b"],
        zip(report.phi0, report.energy, report.kappa, report.interior_mass,
            report.max_interior_R, report.u_theta_half_b),
    )
    if cfg["profiles"]:
        for i, (p0, sol) in enumerate(zip(ladder, report.solutions)):
            meta = {"phi0": p0, "E": sol.E, "kappa": sol.kappa,
                    "branch": branch}
            write_csv(out / f"profile_{i:02d}.csv", ["r", "R", "u_theta"],
                      zip(sol.r, sol.R, sol.u_theta), meta=meta)
    mass = report.interior_mass
    monotone = float(np.max(np.diff(mass)))  # < 0 iff strictly decreasing
    checks = [record("interior_mass_monotone_decrease", monotone, 0.0, "max")]
    if ladder[-1] >= 1000.0 * ladder[0]:
        checks.append(
            record("interior_mass_reduction", mass[0] / mass[-1],
                   cfg["assertions"]["mass_reduction"], "min")
        )
    return checks


def cmd_kg_limit(cfg: dict, out: Path, seed: int) -> list[dict]:
    w0 = gaussian_packet(Grid(**cfg["grid"]), **cfg["envelope"])
    report = nr_limit_compare(w0, cfg["c_values"], t_final=cfg["t_final"])
    write_csv(out / "limit.csv", ["c", "distance"],
              zip(report.c_values, report.distances))
    write_json(out / "fit.json", {"exponent": report.exponent})
    a = cfg["assertions"]
    return [
        record("nr_exponent_lower", report.exponent, a["exponent_min"], "min"),
        record("nr_exponent_upper", report.exponent, a["exponent_max"], "max"),
        record("nr_distance_monotone", float(np.max(np.diff(report.distances))),
               0.0, "max"),
    ]


def cmd_check(cfg: dict, out: Path, seed: int) -> list[dict]:
    g = Grid(**cfg["grid"])
    tol, scale = cfg["tolerances"], cfg["center_scale"]
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def mixtures(m: int) -> WaveField:
        return random_mixtures(rng, g, m, center_scale=scale)

    # gauge / ray / boost invariance and the cotensor boost identity.
    # u and eps are compared through the density-weighted fields rho*u and
    # rho*eps: pointwise differences near density zeros are divided by rho
    # and amplify round-off without bound, while the weighted fields carry
    # the same information and stay conditioned.
    def weighted_dev(p1, p2, expect_u=None, expect_eps=None):
        u2 = p2.u if expect_u is None else expect_u
        e2 = p2.eps if expect_eps is None else expect_eps
        return max(
            float(np.max(np.abs(p1.rho - p2.rho))),
            float(np.max(np.abs(p1.rho * p1.u - p2.rho * u2))),
            float(np.max(np.abs(p1.rho * p1.eps - p2.rho * e2))),
        )

    dev_gauge = dev_ray = dev_boost = dev_cot = 0.0
    v = cfg["boost_velocity"]
    for _ in range(cfg["n_invariance"]):
        w = mixtures(1)[0]
        p = free_processes(w)

        alpha = (rng.normal() * np.sin(2.0 * np.pi * g.x / g.length)
                 + rng.normal() * np.cos(4.0 * np.pi * g.x / g.length))
        dalpha = rng.normal() * np.cos(2.0 * np.pi * g.x / g.length)
        pg = free_processes(gauge_transform(w, alpha, dalpha))
        dev_gauge = max(dev_gauge, weighted_dev(pg, p))

        theta = rng.uniform(0.0, 2.0 * np.pi)
        pr = free_processes(WaveField(np.exp(1j * theta) * w.psi, g))
        dev_ray = max(dev_ray, weighted_dev(pr, p))

        pb = free_processes(boost_transform(w, v))
        dev_boost = max(dev_boost, weighted_dev(
            pb, p, expect_u=p.u - v,
            expect_eps=p.eps + v * p.u - 0.5 * v * v,
        ))
        dev_cot = max(dev_cot, cotensor_boost_check(p, v))
    checks.append(record("gauge_invariance", dev_gauge, tol["gauge"], "max"))
    checks.append(record("ray_phase_invariance", dev_ray, tol["ray"], "max"))
    checks.append(record("boost_covariance", dev_boost, tol["boost"], "max"))
    checks.append(record("cotensor_boost_identity", dev_cot,
                         tol["cotensor"], "max"))

    # uncertainty margins on random states, BLOCK_ROWS at a time; sharpened
    # bound dominates the classical one on every state.  The margins and
    # their running minima stay Python floats, as each state's were.
    min_margin = np.inf
    min_dominance = np.inf
    for m in _block_sizes(cfg["n_uncertainty"]):
        for rep in moments(free_processes(mixtures(m))):
            u = uncertainty_report(rep)
            min_margin = min(min_margin, *u.all_margins())
            min_dominance = min(min_dominance, u.margin_classical - u.margin_hat3)
    checks.append(record("uncertainty_margin_min", min_margin,
                         tol["uncertainty"], "min"))
    checks.append(record("sharpened_dominates_classical", min_dominance,
                         0.0, "min"))

    # Gaussian saturation of the sharpened bound
    mg, = moments(free_processes(gaussian_packet(g, sigma=1.2, momentum=0.8,
                                                 chirp=0.2)))
    checks.append(record("gaussian_saturation",
                         abs(uncertainty_report(mg).margin_hat3),
                         tol["saturation"], "max"))

    # geodesic length vs arccos s_a
    dev_geo = 0.0
    for _ in range(cfg["n_geodesic_pairs"]):
        w1, w2 = mixtures(2)
        w2 = WaveField(w1.psi + 0.3 * w2.psi, g).normalized()
        dev_geo = max(dev_geo, abs(
            geodesic_length(w1, w2, n_steps=cfg["geodesic_steps"])
            - process_distances(w1, w2)
        ))
    checks.append(record("geodesic_length", dev_geo, tol["geodesic"], "max"))

    # triangle inequality of l = arccos s_a, BLOCK_ROWS triples at a time,
    # whose 3m states are drawn in their order (a, b, c of each triple)
    worst = np.inf
    for m in _block_sizes(cfg["n_triples"]):
        ws = mixtures(3 * m)
        wa, wb, wc = ws[0::3], ws[1::3], ws[2::3]
        margins = (process_distances(wa, wb) + process_distances(wb, wc)
                   - process_distances(wa, wc))
        worst = min(worst, *margins.tolist())
    checks.append(record("triangle_inequality_margin", worst,
                         tol["triangle"], "min"))

    write_json(out / "report.json",
               {"invariants": sorted(checks, key=lambda c: c["name"]),
                "all_passed": all(c["passed"] for c in checks)})
    return checks


COMMANDS = {
    "simulate": cmd_simulate,
    "dissipative": cmd_dissipative,
    "ab-sweep": cmd_ab_sweep,
    "kg-limit": cmd_kg_limit,
    "check": cmd_check,
}


# ------------------------------------------------------------------ main ---


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absqm", description="absolute-formulation quantum laboratory"
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="YAML config file")
    parser.add_argument("--out-dir", default="out", help="artifact directory")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--log-level", type=str.upper, default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level,
                        format="%(levelname)s %(name)s: %(message)s")
    # basicConfig does nothing where the root logger has a handler already
    # (pytest, a notebook), so the level is set on the package logger too,
    # for this call
    level = log.level
    log.setLevel(args.log_level)
    try:
        return _run(args)
    finally:
        log.setLevel(level)


def _run(args) -> int:
    out = Path(args.out_dir)
    try:
        cfg = load_config(args.command, args.config)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            log.error("cannot make --out-dir %s: %s", out, exc)
            return EXIT_CONFIG
        t0 = time.perf_counter()
        # no inf or NaN is made silently; Gaussian tails underflow by design
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            checks = COMMANDS[args.command](cfg, out, args.seed)
    except (ConfigError, ValueError) as exc:
        # every ValueError the package raises is an argument check
        log.error("invalid config: %s", exc)
        return EXIT_CONFIG
    except (AbsqmError, FloatingPointError) as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    write_manifest(out, args.command, cfg, args.seed, time.perf_counter() - t0)
    failed = [c for c in checks if not c["passed"]]
    for c in checks:
        log.info("%-34s %s (measured %.3e, bound %.3e)",
                 c["name"], "PASS" if c["passed"] else "FAIL",
                 c["measured"], c["bound"])
    if failed:
        log.error("failed invariants: %s", ", ".join(c["name"] for c in failed))
        return EXIT_ASSERTION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
