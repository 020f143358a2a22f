"""Acceptance gate: end-to-end checks of every headline claim.

Each test prints a single PASS/FAIL line (visible even under capture) and
asserts the same condition, so the suite doubles as a human-readable report.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from absqm.absolute import (
    mass_shell_norm,
    residual_continuity,
    residual_force,
)
from absqm.cli import main as cli_main
from absqm.dissipative import (
    DissipativeRunConfig,
    DissipativeState,
    asymptotics,
    diagnostics,
    gaussian_state,
    run as dissipative_run,
    stationary_analysis,
    step_absolute,
    step_quasiwave,
)
from absqm.kleingordon import (
    KGField,
    from_envelope,
    kg_evolve,
    kg_extract,
    kg_residuals,
    kg_step,
    nr_limit_compare,
)
from absqm.numerics import (
    Grid,
    bessel,
    bessel_derivative,
    derivative,
    integrate,
)
from absqm.aharonov_bohm import ABConfig, solve_radial, wall_sweep
from absqm.observables import ehrenfest_check, moments, uncertainty_report
from absqm.schrodinger import EvolutionSpec, evolve, rhs
from absqm.states import flat_force_potential, gaussian_packet, random_mixture
from absqm.wavefield import (
    WaveField,
    boost_transform,
    cotensor_boost_check,
    extract_absolute,
    gauge_transform,
    geodesic_length,
    overlap_magnitude,
    process_distance,
)


def announce(capsys, name: str, passed: bool, detail: str):
    with capsys.disabled():
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def free_process(w: WaveField):
    return extract_absolute(w, rhs(w))


@pytest.fixture(scope="module")
def long_dissipative():
    """Shared t=60 damped run used by criteria 5 and 6 (the slow fixture)."""
    cfg = DissipativeRunConfig(t_final=60.0, snapshot_dt=0.1)
    states = dissipative_run(cfg)
    return diagnostics(states)


# 1 ------------------------------------------------------------------------


def test_criterion_1_residual_convergence(capsys):
    """All three absolute residuals shrink with order >= 1.8 under
    (dx, dt) -> (dx/2, dt/4) for a chirped Gaussian in a linear potential."""

    def residual_triplet(n, dt):
        g = Grid(-20.0, 20.0, n)
        a0, _ = flat_force_potential(g, 0.05)
        w0 = gaussian_packet(g, sigma=1.5, momentum=0.6, chirp=0.1)
        traj = evolve(replace(w0, a0=a0), EvolutionSpec(dt=dt, t_final=0.5),
                      snapshot_every=5)
        e_field = derivative(a0, g, 1)
        procs = traj.processes()
        return (
            float(np.median([mass_shell_norm(p) for p in procs[1:-1]])),
            float(np.median(residual_continuity(traj, use_stored_rhs=False).values)),
            float(np.median(residual_force(traj, e_field, use_stored_rhs=False).values)),
        )

    coarse = residual_triplet(256, 0.02)
    fine = residual_triplet(512, 0.005)
    orders = [np.log(c / f) / np.log(4.0) for c, f in zip(coarse, fine)]
    detail = ("orders (mass shell, continuity, force) = "
              + ", ".join(f"{o:.2f}" for o in orders) + " (need >= 1.8)")
    announce(capsys, "criterion 1 residual convergence",
             all(o >= 1.8 for o in orders), detail)


# 2 ------------------------------------------------------------------------


def test_criterion_2_invariance(capsys):
    g = Grid(-20.0, 20.0, 320)
    rng = np.random.default_rng(2)
    v = 0.7

    def weighted_dev(p1, p2, expect_u=None, expect_eps=None):
        u2 = p2.u if expect_u is None else expect_u
        e2 = p2.eps if expect_eps is None else expect_eps
        return max(
            float(np.max(np.abs(p1.rho - p2.rho))),
            float(np.max(np.abs(p1.rho * p1.u - p2.rho * u2))),
            float(np.max(np.abs(p1.rho * p1.eps - p2.rho * e2))),
        )

    dev_gauge = dev_ray = dev_boost = dev_cot = 0.0
    for _ in range(5):
        w = random_mixture(rng, g, center_scale=4.0)
        p = free_process(w)
        alpha = rng.normal() * np.sin(2.0 * np.pi * g.x / g.length)
        dev_gauge = max(dev_gauge, weighted_dev(
            free_process(gauge_transform(w, alpha, np.zeros(g.n))), p))
        dev_ray = max(dev_ray, weighted_dev(
            free_process(WaveField(np.exp(1j * rng.uniform(0, 2 * np.pi)) * w.psi, g)), p))
        dev_boost = max(dev_boost, weighted_dev(
            free_process(boost_transform(w, v)), p,
            expect_u=p.u - v, expect_eps=p.eps + v * p.u - 0.5 * v * v))
        dev_cot = max(dev_cot, cotensor_boost_check(p, v).max_deviation)

    ok = (dev_gauge <= 1e-9 and dev_ray <= 1e-12 and dev_boost <= 1e-6
          and dev_cot <= 1e-12)
    announce(capsys, "criterion 2 gauge/ray/boost invariance", ok,
             f"gauge {dev_gauge:.2e} (<=1e-9), ray {dev_ray:.2e} (<=1e-12), "
             f"boost {dev_boost:.2e} (<=1e-6), cotensor {dev_cot:.2e} (<=1e-12)")


# 3 ------------------------------------------------------------------------


def test_criterion_3_process_geometry(capsys):
    g = Grid(-20.0, 20.0, 256)
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(200):
        wa = random_mixture(rng, g, center_scale=4.0)
        wb = random_mixture(rng, g, center_scale=4.0)
        wc = random_mixture(rng, g, center_scale=4.0)
        if (process_distance(wa, wb) + process_distance(wb, wc)
                - process_distance(wa, wc)) < -1e-12:
            violations += 1
    dev_geo = 0.0
    for _ in range(3):
        w1 = random_mixture(rng, g, center_scale=4.0)
        w2 = WaveField(w1.psi + 0.3 * random_mixture(rng, g, center_scale=4.0).psi,
                       g).normalized()
        dev_geo = max(dev_geo, abs(
            geodesic_length(w1, w2, n_steps=512)
            - np.arccos(overlap_magnitude(w1, w2))))
    ok = violations == 0 and dev_geo <= 1e-4
    announce(capsys, "criterion 3 process geometry", ok,
             f"triangle violations {violations}/200 (need 0), "
             f"geodesic dev {dev_geo:.2e} (<=1e-4)")


# 4 ------------------------------------------------------------------------


def test_criterion_4_uncertainty(capsys):
    g = Grid(-20.0, 20.0, 256)
    rng = np.random.default_rng(4)
    min_margin = np.inf
    dominated = True
    for _ in range(500):
        u = uncertainty_report(
            moments(free_process(random_mixture(rng, g, center_scale=4.0)),
                    check_boundary=False))
        min_margin = min(min_margin, *u.all_margins())
        dominated &= u.margin_hat3 <= u.margin_classical + 1e-12
    sat = abs(uncertainty_report(
        moments(free_process(gaussian_packet(g, sigma=1.2, momentum=0.8,
                                             chirp=0.2)),
                check_boundary=False)).margin_hat3)
    ok = min_margin >= -1e-9 and sat <= 1e-8 and dominated
    announce(capsys, "criterion 4 uncertainty relations", ok,
             f"min margin {min_margin:.2e} (>=-1e-9) on 500 states, "
             f"Gaussian saturation {sat:.2e} (<=1e-8), "
             f"sharpened dominates classical: {dominated}")


# 5 ------------------------------------------------------------------------


def test_criterion_5_ehrenfest(capsys, long_dissipative):
    g = Grid(-20.0, 20.0, 256)
    e0 = 0.1
    a0, _ = flat_force_potential(g, e0)
    traj = evolve(replace(gaussian_packet(g, sigma=1.0), a0=a0),
                  EvolutionSpec(dt=0.002, t_final=0.6),
                  snapshot_every=25)
    rep = ehrenfest_check(traj, derivative(a0, g, 1))

    d = long_dissipative
    dt = d.times[1] - d.times[0]
    dq = (d.Q[2:] - d.Q[:-2]) / (2.0 * dt)
    d2q = (d.Q[2:] - 2.0 * d.Q[1:-1] + d.Q[:-2]) / dt**2
    scale = max(np.max(np.abs(dq)), 1e-12)
    dev_diss = float(np.max(np.abs(d2q + dq)) / scale)

    ok = rep.max_rel_dev_force <= 1e-4 and dev_diss <= 0.01
    announce(capsys, "criterion 5 Ehrenfest", ok,
             f"constant-field dev {rep.max_rel_dev_force:.2e} (<=1e-4), "
             f"dissipative d2Q=-dQ dev {dev_diss:.2e} (<=1e-2)")


# 6 ------------------------------------------------------------------------


def test_criterion_6_dissipative_laws(capsys, long_dissipative):
    d = long_dissipative
    early = d.times <= 5.0
    t = d.times[early]
    q_law = d.Q[0] + d.V[0] * (1.0 - np.exp(-t))
    v_law = d.V[0] * np.exp(-t)
    dev_q = float(np.max(np.abs(d.Q[early] - q_law)) / max(abs(d.V[0]), 1e-12))
    dev_v = float(np.max(np.abs(d.V[early] - v_law)) / max(abs(d.V[0]), 1e-12))

    h1_min = float(np.min(d.P * d.X - 0.25))
    h2_min = float(np.min(d.T * d.X - d.Y**2))
    zdot_max = float(np.max(d.Zdot))
    asym = asymptotics(d, t_min=20.0)

    # dual-solver cross-check at t=1 on a winding-free state
    g = Grid(-5.0, 5.0, 256)
    s0 = gaussian_state(g, sigma=1.0)
    phase = 0.3 * np.sin(2.0 * np.pi * g.x / g.length)
    s = DissipativeState(rho=s0.rho, j=s0.rho * derivative(phase, g, 1), grid=g)
    w = WaveField(np.sqrt(s0.rho) * np.exp(1j * phase), g)
    dt_abs = 0.1 * g.dx**2
    n_abs = int(round(1.0 / dt_abs))
    for _ in range(n_abs):
        s = step_absolute(s, 1.0 / n_abs)
    for _ in range(5000):
        w = step_quasiwave(w, 2e-4)
    dual = float(np.sqrt(integrate((s.rho - np.abs(w.psi) ** 2) ** 2, g)))

    ok = (dev_q <= 0.01 and dev_v <= 0.01 and zdot_max <= 1e-6
          and h1_min >= -1e-9 and h2_min >= -1e-9
          and asym.z_star >= 0.98
          and 0.85 <= asym.slope_ratio <= 1.15
          and 0.8 <= asym.k_ratio <= 1.2
          and dual <= 1e-4)
    announce(capsys, "criterion 6 dissipative laws", ok,
             f"law devs ({dev_q:.1e}, {dev_v:.1e}) (<=1e-2), "
             f"Zdot max {zdot_max:.1e} (<=1e-6), H margins ({h1_min:.1e}, "
             f"{h2_min:.1e}) (>=-1e-9), Z*={asym.z_star:.4f} (>=0.98), "
             f"slope ratio {asym.slope_ratio:.3f} in [0.85,1.15], "
             f"K ratio {asym.k_ratio:.3f} in [0.8,1.2], "
             f"dual-solver L2 {dual:.1e} (<=1e-4)")


# 7 ------------------------------------------------------------------------


def test_criterion_7_stationary_nonexistence(capsys):
    cases = [
        (0.7, 1.0, 0.0, "exponential"),  # growing real exponential
        (0.7, 1.0, 1.0, "exponential"),  # cosh-type
        (2.0j, 0.5, 0.5, "linear"),      # bounded oscillatory
    ]
    results = []
    for c0, c1, c2, expected in cases:
        rep = stationary_analysis(c0, c1, c2, L=2.0)
        results.append(
            rep.divergence_class == expected
            and not rep.normalizable
            and bool(np.all(np.diff(rep.norms) > 0.0))
        )
    announce(capsys, "criterion 7 stationary nonexistence", all(results),
             "all three branches diverge with the predicted class: "
             + ", ".join(str(r) for r in results))


# 8 ------------------------------------------------------------------------


def test_criterion_8_aharonov_bohm(capsys):
    # Bessel Wronskian / ODE spot suites on a deterministic sample
    rng = np.random.default_rng(8)
    wr_dev = 0.0
    for _ in range(50):
        nu = rng.uniform(0.0, 20.0)
        x = rng.uniform(0.1, 50.0)
        w_jy = (bessel("J", nu, x) * bessel_derivative("Y", nu, x)
                - bessel_derivative("J", nu, x) * bessel("Y", nu, x))
        w_ik = (bessel("I", nu, x) * bessel_derivative("K", nu, x)
                - bessel_derivative("I", nu, x) * bessel("K", nu, x))
        wr_dev = max(wr_dev,
                     abs(w_jy - 2.0 / (np.pi * x)) / (2.0 / (np.pi * x)),
                     abs(w_ik + 1.0 / x) * x)
    ode_dev = 0.0
    h = 1e-5
    for kind, sign in (("J", 1.0), ("Y", 1.0), ("I", -1.0), ("K", -1.0)):
        for nu in (0.0, 0.55, 2.7):
            for x in (0.8, 2.5, 7.0):
                f = bessel(kind, nu, x)
                fp = bessel_derivative(kind, nu, x)
                fpp = (bessel_derivative(kind, nu, x + h)
                       - bessel_derivative(kind, nu, x - h)) / (2.0 * h)
                res = x * x * fpp + x * fp + (sign * x * x - nu * nu) * f
                ode_dev = max(ode_dev, abs(res) / max(abs(x * x * fpp), abs(f), 1.0))

    cfg = ABConfig(b=1.0, B0=0.5, C1=0.3, phi0=10.0, r_out=5.0, n_r=2048)
    sol = solve_radial(cfg)
    scale = float(np.max(np.abs(sol.R)))
    r_in = float(sol.interior_amplitude(cfg.b))
    r_out_val = sol.C5 * bessel("J", sol.nu, sol.lam * cfg.b) + sol.C6 * bessel(
        "Y", sol.nu, sol.lam * cfg.b)
    cont_r = abs(r_in - r_out_val) / scale
    d_in = (sol.kappa * bessel_derivative("I", sol.mu, sol.kappa * cfg.b)
            / bessel("I", sol.mu, sol.kappa * cfg.b)) * r_in
    d_out = sol.lam * (
        sol.C5 * bessel_derivative("J", sol.nu, sol.lam * cfg.b)
        + sol.C6 * bessel_derivative("Y", sol.nu, sol.lam * cfg.b))
    cont_dr = abs(d_in - d_out) / max(abs(d_out), 1e-12)
    ode_radial = 0.0
    for r in (1.5, 2.5, 4.0):
        f = sol.C5 * bessel("J", sol.nu, sol.lam * r) + sol.C6 * bessel(
            "Y", sol.nu, sol.lam * r)
        fp = sol.lam * (sol.C5 * bessel_derivative("J", sol.nu, sol.lam * r)
                        + sol.C6 * bessel_derivative("Y", sol.nu, sol.lam * r))
        fpp = (sol.lam * (
            sol.C5 * bessel_derivative("J", sol.nu, sol.lam * (r + h))
            + sol.C6 * bessel_derivative("Y", sol.nu, sol.lam * (r + h)))
            - sol.lam * (
            sol.C5 * bessel_derivative("J", sol.nu, sol.lam * (r - h))
            + sol.C6 * bessel_derivative("Y", sol.nu, sol.lam * (r - h)))
        ) / (2.0 * h)
        ode_radial = max(ode_radial, abs(
            fpp + fp / r + (sol.lam**2 - sol.nu**2 / r**2) * f))

    sweep = wall_sweep(cfg, [10.0, 100.0, 1000.0, 1e4])
    monotone = bool(np.all(np.diff(sweep.interior_mass) < 0.0))
    reduction = float(sweep.interior_mass[0] / sweep.interior_mass[-1])
    u_identical = np.unique(sweep.u_theta_half_b).size == 1
    regression = abs(sol.E - 0.2805001266809242) <= 1e-10

    ok = (wr_dev <= 1e-8 and ode_dev <= 1e-7 and cont_r <= 1e-8
          and cont_dr <= 1e-8 and ode_radial <= 1e-7 * scale * sol.lam**2
          and monotone and reduction >= 100.0 and u_identical and regression)
    announce(capsys, "criterion 8 Aharonov-Bohm", ok,
             f"Wronskian {wr_dev:.1e} (<=1e-8), Bessel ODE {ode_dev:.1e} "
             f"(<=1e-7), R cont {cont_r:.1e}, R' cont {cont_dr:.1e} (<=1e-8), "
             f"radial ODE {ode_radial:.1e}, mass monotone {monotone}, "
             f"reduction {reduction:.0f}x (>=100), u_theta bit-identical "
             f"{u_identical}, E regression {regression}")


# 9 ------------------------------------------------------------------------


def test_criterion_9_klein_gordon(capsys):
    # dispersion
    g = Grid(-20.0, 20.0, 512)
    c = 5.0
    k = 2.0 * np.pi * 5 / g.length
    omega = np.sqrt(c**2 * k**2 + c**4)
    psi0 = np.exp(1j * k * g.x)
    f = KGField(psi=psi0, dpsi_dt=-1j * omega * psi0, grid=g, c=c)
    for _ in range(32):
        f = kg_step(f, 0.5 * g.dx / c)
    disp_dev = float(np.max(np.abs(f.psi - psi0 * np.exp(-1j * omega * f.time))))

    # covariant residual order under snapshot refinement
    env = gaussian_packet(g, sigma=2.0, momentum=0.3)
    f0 = from_envelope(env, c)
    dt = 0.25 * g.dx / c
    orders = []
    reps = {}
    for se in (8, 2):
        traj = kg_evolve(f0, dt=dt, t_final=128 * dt, snapshot_every=se)
        rep = kg_residuals(traj)
        reps[se] = (np.median(rep.mass_shell), np.median(rep.continuity))
    for i in range(2):
        orders.append(np.log(reps[8][i] / reps[2][i]) / np.log(4.0))

    # NR ladder
    nr = nr_limit_compare(env, [5.0, 10.0, 20.0, 40.0], t_final=0.5)

    # eps agreement at c=20 against the exact free-envelope oracle
    c20 = 20.0
    fk = from_envelope(env, c20)
    n_steps = int(np.ceil(0.5 / (0.5 * g.dx / c20)))
    dt20 = 0.5 / n_steps
    for _ in range(n_steps):
        fk = kg_step(fk, dt20)
    psi_nr = np.fft.ifft(np.exp(-0.5j * g.k**2 * fk.time) * np.fft.fft(env.psi))
    w_nr = WaveField(psi_nr, g, time=fk.time)
    p_nr = extract_absolute(
        w_nr, 0.5j * derivative(derivative(psi_nr, g, 1), g, 1))
    kg = kg_extract(fk)
    okm = ~(kg.flagged | p_nr.flagged)
    wgt = np.where(okm, p_nr.rho, 0.0)
    eps_rel = float(
        np.sqrt(integrate(wgt * (kg.eps - p_nr.eps) ** 2, g))
        / np.sqrt(integrate(wgt * p_nr.eps**2, g)))

    ok = (disp_dev <= 1e-6 and all(o >= 1.8 for o in orders)
          and 1.7 <= nr.exponent <= 2.3 and eps_rel < 1e-2)
    announce(capsys, "criterion 9 Klein-Gordon limit", ok,
             f"dispersion {disp_dev:.1e} (<=1e-6), residual orders "
             + ", ".join(f"{o:.2f}" for o in orders)
             + f" (>=1.8), NR exponent {nr.exponent:.2f} in [1.7,2.3], "
             f"eps rel L2 {eps_rel:.1e} (<1e-2) at c=20")


# 10 -----------------------------------------------------------------------


def test_criterion_10_determinism(capsys, tmp_path):
    import yaml

    cfg = {"grid": {"n": 256}, "n_invariance": 3, "n_uncertainty": 40,
           "n_triples": 20, "n_geodesic_pairs": 2}
    cfg_path = tmp_path / "check.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    blobs = []
    for sub in ("a", "b"):
        code = cli_main(["check", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / sub), "--seed", "11"])
        assert code == 0
        blobs.append((tmp_path / sub / "report.json").read_bytes())
    identical = blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    announce(capsys, "criterion 10 determinism", identical and report["all_passed"],
             f"repeated check byte-identical: {identical}, "
             f"all invariants passed: {report['all_passed']}")
